import itertools
import math
import random
import tracemalloc
from typing import Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddgon import torus
from oddgon.derivation import cyclic_normal_form, ksl_cyclic
from oddgon.flow import CornerHit
from oddgon.geometry import CORNER_DELTA, EPS, PARALLEL, STEP_MIN
from oddgon.torus import (
    TorusCrossing,
    TorusTrajectory,
    torus_derive_geometric,
    torus_derive_rule,
    torus_trace,
)

torus_words = st.text(alphabet="AB", min_size=0, max_size=30)


def test_rule_fixtures():
    assert torus_derive_rule("ABBB", cyclic=True) == "ABB"
    assert torus_derive_rule("ABBBABBB") == "ABBABBB"  # trailing run has no closing A
    assert torus_derive_rule("ABBBA") == "ABBA"
    assert torus_derive_rule("ABA") == "AA"
    assert torus_derive_rule("AA") == "AA"
    assert torus_derive_rule("BBB") == "BBB"  # no A anywhere: nothing between A's
    assert torus_derive_rule("") == ""


def test_rule_rejects_other_letters():
    with pytest.raises(ValueError):
        torus_derive_rule("ABC")


@given(torus_words)
def test_rule_never_drops_an_a(word):
    out = torus_derive_rule(word)
    assert out.count("A") == word.count("A")


def run_length_rule(word: str, cyclic: bool) -> str:
    """The rule on maximal runs: a B-run with an A on each side loses one B;
    in a cyclic word the run through the end and the start does too, from
    its part after the last A when it has one."""
    runs = [[ch, len(list(group))] for ch, group in itertools.groupby(word)]
    for i, run in enumerate(runs):
        if run[0] == "B" and 0 < i < len(runs) - 1:
            run[1] -= 1
    if cyclic and "A" in word:
        wrap = [run for run in (runs[-1], runs[0]) if run[0] == "B"]
        if wrap:
            wrap[0][1] -= 1
    return "".join(ch * size for ch, size in runs)


@given(torus_words, st.booleans())
def test_rule_matches_the_run_length_reference(word, cyclic):
    assert torus_derive_rule(word, cyclic=cyclic) == run_length_rule(word, cyclic)


@given(torus_words, st.integers(min_value=0, max_value=29))
def test_cyclic_rule_commutes_with_rotation(word, r):
    if not word:
        return
    r %= len(word)
    rotated = word[r:] + word[:r]
    assert cyclic_normal_form(torus_derive_rule(rotated, cyclic=True)) == cyclic_normal_form(
        torus_derive_rule(word, cyclic=True)
    )


def test_slope_one_third_orbit():
    traj = torus_trace((0.25, 0.4), math.atan2(1.0, 3.0))
    assert traj.periodic
    assert cyclic_normal_form(traj.period_word) == cyclic_normal_form("ABBB")
    derived = torus_derive_geometric(traj)
    assert cyclic_normal_form(derived) == cyclic_normal_form("ABB")


def test_periodic_torus_trace_holds_one_period():
    rng, periodic = random.Random(4), 0
    for _ in range(60):
        theta = math.atan2(rng.randrange(1, 6), rng.randrange(1, 6))
        try:
            traj = torus_trace((rng.random(), rng.random()), theta, max_crossings=rng.randrange(12, 60))
        except CornerHit:
            continue
        if traj.periodic:
            periodic += 1
            assert len(traj.crossings) == traj.period
            assert traj.period_word == traj.letters
    assert periodic >= 30


def test_negative_control_against_the_sandwich_rule():
    # the double-n-gon rule does not transfer to the square torus
    assert ksl_cyclic("ABBB") == "AB"
    assert torus_derive_rule("ABBB", cyclic=True) == "ABB"
    assert ksl_cyclic("ABBB") != torus_derive_rule("ABBB", cyclic=True)


def test_diagonal_orbit_alternates():
    traj = torus_trace((0.3, 0.8), math.pi / 4)
    assert traj.periodic
    assert cyclic_normal_form(traj.period_word) == "AB"


def test_horizontal_orbit_is_all_vertical_letters():
    traj = torus_trace((0.5, 0.5), 0.0, max_crossings=6)
    assert traj.periodic
    assert traj.period_word == "B"


def test_corner_hit_on_lattice_diagonal():
    for start in ((0.5, 0.5), (1e15 + 0.5, 0.5)):
        with pytest.raises(CornerHit) as hit:
            torus_trace(start, math.pi / 4)
        assert hit.value.start_point == start  # the caller's start, not its reduction


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_trace_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta"):
        torus_trace((0.25, 0.4), theta)


@pytest.mark.parametrize("start", [(0.1,), (0.1, 0.2, 0.3), (math.nan, 0.5), (0.5, math.inf)])
def test_trace_rejects_a_start_that_is_not_two_finite_numbers(start):
    with pytest.raises(ValueError, match="start"):
        torus_trace(start, 0.3)


@pytest.mark.parametrize("max_crossings", [0, -1])
def test_trace_rejects_fewer_than_one_crossing(max_crossings):
    with pytest.raises(ValueError, match="max_crossings"):
        torus_trace((0.25, 0.4), 0.3, max_crossings=max_crossings)


def test_start_on_lattice_line_emits_first_crossing():
    traj = torus_trace((0.0, 0.25), math.atan2(1.0, 2.0), max_crossings=5)
    assert traj.crossings[0].t == 0.0
    assert traj.crossings[0].letter == "B"


@pytest.mark.parametrize("start", [(1e17, 0.61), (1e15 + 0.23, 0.61), (-3e15 - 0.5, 2e15 + 0.75)])
def test_a_start_far_from_the_unit_square_traces_like_its_reduction(start):
    # far out, x0 + t*dx rounds the start's fraction away: (1e17, 0.61) read
    # as the one-letter periodic orbit "B", (1e15 + 0.23, 0.61) as a corner hit
    theta = math.atan2(2.0, 5.0)
    reduced = (math.fmod(start[0], 1.0), math.fmod(start[1], 1.0))
    assert all(-1.0 < v < 1.0 for v in reduced)
    far, near = torus_trace(start, theta), torus_trace(reduced, theta)
    assert far.start == near.start == reduced
    assert repr(far.crossings) == repr(near.crossings) and far.periodic == near.periodic
    assert far.periodic and far.period == 7
    assert torus_derive_geometric(far) == torus_derive_geometric(near)


def _letters_or_corner(start, theta):
    try:
        traj = torus_trace(start, theta, max_crossings=40)
    except CornerHit:
        return None
    return traj.letters, traj.periodic, traj.period


def test_mirrored_traces_read_the_same_letters():
    # x -> -x and y -> -y map the lattice onto itself and keep each crossing
    # on its family of lines, so a trace in a direction with a negative
    # component must read the letters of its first-quadrant mirror image
    rng = random.Random(3)
    compared = 0
    for i in range(600):
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        if i % 3 == 1:
            x = float(rng.randint(-2, 2))  # on a vertical lattice line
        elif i % 3 == 2:
            y = float(rng.randint(-2, 2))  # on a horizontal lattice line
        if i % 4 == 0:
            theta = math.atan2(rng.randint(1, 4), rng.randint(1, 4))  # periodic
        else:
            theta = rng.uniform(0.01, math.pi / 2 - 0.01)
        base = _letters_or_corner((x, y), theta)
        if base is None:
            continue
        compared += 1
        assert _letters_or_corner((-x, y), math.pi - theta) == base
        assert _letters_or_corner((x, -y), -theta) == base
        assert _letters_or_corner((-x, -y), theta + math.pi) == base
    assert compared > 500


def _runs_by_a(word: str) -> tuple[int, list[int], int, int]:
    parts = word.split("A")
    return (word.count("A"), [len(p) for p in parts[1:-1]], len(parts[0]), len(parts[-1]))


def test_rule_matches_geometric_on_random_orbits():
    rng = random.Random(42)
    checked = 0
    while checked < 200:
        theta = rng.uniform(0.02, math.pi / 4 - 0.02)
        start = (rng.random(), rng.random())
        try:
            traj = torus_trace(start, theta, max_crossings=rng.randrange(6, 50))
            geo = torus_derive_geometric(traj)
        except CornerHit:
            continue
        checked += 1
        if traj.periodic:
            assert cyclic_normal_form(geo) == cyclic_normal_form(
                torus_derive_rule(traj.period_word, cyclic=True)
            )
            continue
        rule = torus_derive_rule(traj.letters)
        na_r, runs_r, lead_r, trail_r = _runs_by_a(rule)
        na_g, runs_g, lead_g, trail_g = _runs_by_a(geo)
        # A crossings are preserved exactly; interior B-runs must agree; the
        # partial runs at the window ends may lose one B to the cut-off A-gap
        assert na_g == na_r
        assert runs_g == runs_r
        assert lead_g in (lead_r, lead_r - 1)
        assert trail_g in (trail_r, trail_r - 1)


def _reference_line_crossings(p0: float, d: float, t_max: float) -> list[float]:
    if abs(d) < PARALLEL:
        return []
    step = 1 if d > 0 else -1
    k = math.floor(p0) + 1 if d > 0 else math.ceil(p0) - 1
    if abs(p0 - round(p0)) < STEP_MIN:
        k = round(p0) + step
    out = []
    t = (k - p0) / d
    while t <= t_max:
        out.append(t)
        k += step
        t = (k - p0) / d
    return out


def _reference_trace(start, theta, max_crossings=100, t_max: Optional[float] = None) -> TorusTrajectory:
    """Brute-force tracer: every lattice crossing up to a horizon, sorted and
    corner-checked, then cut to one period at the first return. It starts
    from `start` reduced modulo 1 as `torus_trace` does."""
    dx, dy = math.cos(theta), math.sin(theta)
    x0, y0 = math.fmod(start[0], 1.0), math.fmod(start[1], 1.0)
    events = []
    if abs(y0 - round(y0)) < STEP_MIN:
        events.append((0.0, "A"))
    elif abs(x0 - round(x0)) < STEP_MIN:
        events.append((0.0, "B"))
    horizon = t_max if t_max is not None else (max_crossings + 2) / (abs(dx) + abs(dy))
    events += [(t, "A") for t in _reference_line_crossings(y0, dy, horizon)]
    events += [(t, "B") for t in _reference_line_crossings(x0, dx, horizon)]
    events.sort()
    events = events[:max_crossings] if t_max is None else events
    crossings, period = [], None
    for t, letter in events:
        px, py = x0 + t * dx, y0 + t * dy
        other = px if letter == "A" else py
        if abs(other - round(other)) < CORNER_DELTA:
            raise CornerHit("torus", (px, py), len(crossings), theta, "torus", start)
        if not crossings:
            letter0, fx, fy = letter, px, py
        elif period is None and letter == letter0:
            rx, ry = px - fx, py - fy
            if abs(rx - round(rx)) < EPS and abs(ry - round(ry)) < EPS:
                period = len(crossings)
        crossings.append(TorusCrossing(t, letter, (px, py)))
    if period is None:
        return TorusTrajectory((x0, y0), theta, crossings)
    return TorusTrajectory((x0, y0), theta, crossings[:period], periodic=True)


def _walk_cases(count: int, seed: int):
    """(start, theta, max_crossings): generic, rational and axis directions in
    all four quadrants; generic starts, starts on (or within STEP_MIN of) a
    lattice line, and lattice points."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.randrange(5)
        if kind < 2:
            theta = rng.uniform(-math.pi, math.pi)
        elif kind < 4:
            p, q = rng.choice([(p, q) for p in range(-5, 6) for q in range(-5, 6) if (p, q) != (0, 0)])
            theta = math.atan2(p, q)
        else:
            theta = rng.randrange(-4, 5) * math.pi / 2
        x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        where = rng.randrange(6)
        if where in (1, 3):
            x = float(rng.randint(-3, 3)) + (1e-13 if where == 3 else 0.0)
        if where in (2, 3, 4):
            y = float(rng.randint(-3, 3))
        yield (x, y), theta, rng.randint(1, 300)


def _outcome(start, theta, max_crossings):
    try:
        traj = torus.torus_trace(start, theta, max_crossings=max_crossings)
    except CornerHit as hit:
        return "corner", hit.point, hit.crossings_done
    try:
        word = torus.torus_derive_geometric(traj)
    except (CornerHit, AssertionError) as err:
        word = repr(err)
    return repr(traj.crossings), traj.periodic, traj.period, word


def test_walk_matches_the_horizon_and_sort_reference(monkeypatch):
    cases = list(_walk_cases(3000, seed=15))
    got = [_outcome(*case) for case in cases]
    # torus_derive_geometric re-traces through the module's torus_trace
    monkeypatch.setattr(torus, "torus_trace", _reference_trace)
    for case, outcome in zip(cases, got):
        assert outcome == _outcome(*case), case
    kinds = [o[0] if o[0] == "corner" else o[1] for o in got]
    # every kind of outcome is well represented
    assert min(kinds.count(kind) for kind in ("corner", True, False)) >= 500


def test_walk_stops_at_the_first_return_under_a_huge_bound():
    theta = math.atan2(1.0, 3.0)
    small = torus_trace((0.25, 0.4), theta, max_crossings=8)
    tracemalloc.start()
    try:
        big = torus_trace((0.25, 0.4), theta, max_crossings=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert small.periodic and big.periodic and big.period == 4
    assert repr(big.crossings) == repr(small.crossings)
    assert peak < 1_000_000


def test_t_max_and_max_crossings_both_bound_the_walk():
    theta = 0.5  # open: no return to stop the walk
    by_count = torus_trace((0.25, 0.4), theta, max_crossings=5, t_max=100.0)
    by_time = torus_trace((0.25, 0.4), theta, max_crossings=1000, t_max=3.0)
    assert len(by_count.crossings) == 5
    assert by_time.crossings and by_time.crossings[-1].t <= 3.0
    assert repr(by_time.crossings) == repr(torus_trace((0.25, 0.4), theta, max_crossings=len(by_time.crossings)).crossings)
