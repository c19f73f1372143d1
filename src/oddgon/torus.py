"""Square-torus baseline: tracing, the between-two-As rule, and un-shearing.

The unit square torus with A = horizontal edges (lines y in Z) and B =
vertical edges (lines x in Z) is the sanity case: its derivation rule
("between every two A's, remove a B") is NOT the sandwich rule, and the tests
pin that contrast. The shear here is M = (1 1; 0 1); derivation applies the
inverse (1 -1; 0 1) to the whole line and re-reads the cutting sequence.
A traced trajectory is a NamedTuple that the tracer builds once, when its
walk ends: two columns, the time and the letter of each crossing; crossing
i lies at start + times[i] * (cos theta, sin theta). The tracer, like
`flow.trace`, ends a periodic orbit at its first return, and its `period`
and `period_word` are `flow`'s, read off the letters.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .flow import CornerHit, _period, _period_word
from .geometry import CORNER_DELTA, EPS, PARALLEL, STEP_MIN

HORIZONTAL, VERTICAL = "A", "B"


class TorusTrajectory(NamedTuple):
    """Crossing i is `letters[i]` at time `times[i]` from the (reduced) `start`."""

    start: tuple[float, float]
    theta: float
    times: list[float]
    letters: str
    periodic: bool = False

    period = property(_period)
    period_word = property(_period_word)


def _first_line(p0: float, d: float, at_start: bool) -> tuple[float, float, int, float]:
    """(t, j, step, d') of the first crossing of p0 + t*d with an integer:
    the line j at t = (j - p0) / d', or the line it starts on at t = 0 if
    `at_start`; the next is j + step. A start within STEP_MIN of a line is
    on it. A family parallel to the line (abs(d) < PARALLEL) is crossed at
    no t > 0: j = inf and d' = 1.0 make every later t inf."""
    if abs(d) < PARALLEL:
        return (0.0 if at_start else math.inf), math.inf, 1, 1.0
    step = 1 if d > 0 else -1
    if abs(p0 - round(p0)) < STEP_MIN:
        if at_start:
            return 0.0, round(p0), step, d
        j = round(p0) + step
    else:
        j = math.floor(p0) + 1 if d > 0 else math.ceil(p0) - 1
    return (j - p0) / d, j, step, d


def torus_trace(
    start: tuple[float, float],
    theta: float,
    max_crossings: int = 100,
    t_max: Optional[float] = None,
) -> TorusTrajectory:
    """Cutting sequence of the line start + t*(cos theta, sin theta).

    One loop walks the two families of lattice lines in time order, an A
    before a B at the same time. A start on a lattice line emits that
    crossing at t = 0, an A if it is on both. The walk stops after
    `max_crossings`, past `t_max`, or at the first return; CornerHit when a
    crossing before that passes within CORNER_DELTA of a lattice point.
    The walk starts from `start` reduced by math.fmod(., 1.0), which is
    exact; far from the unit square, x0 + t*dx would round the start's
    fraction away. The trajectory holds the reduced start, a CornerHit the
    caller's.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be a finite direction in radians, got {theta}")
    if len(start) != 2 or not all(map(math.isfinite, start)):
        raise ValueError(f"start must be two finite numbers x,y, got {start}")
    if max_crossings < 1:
        raise ValueError(f"max_crossings must be at least 1, got {max_crossings}")
    dx, dy = math.cos(theta), math.sin(theta)
    x0, y0 = math.fmod(start[0], 1.0), math.fmod(start[1], 1.0)
    # distances to the nearest lattice line are abs(x - round(x)) throughout
    on_a = abs(y0 - round(y0)) < STEP_MIN
    ta, ja, sa, da = _first_line(y0, dy, on_a)
    tb, jb, sb, db = _first_line(x0, dx, not on_a and abs(x0 - round(x0)) < STEP_MIN)
    t_end = math.inf if t_max is None else t_max
    times: list[float] = []
    letters: list[str] = []
    periodic = False
    # each crossing is checked for a corner; the first return to crossing 0's
    # letter and point modulo the lattice ends one period
    for i in range(max_crossings):
        if ta <= tb:
            t, letter = ta, HORIZONTAL
            ja += sa
            ta = (ja - y0) / da
        else:
            t, letter = tb, VERTICAL
            jb += sb
            tb = (jb - x0) / db
        if t > t_end:
            break
        px, py = x0 + t * dx, y0 + t * dy
        other = px if letter == HORIZONTAL else py
        if abs(other - round(other)) < CORNER_DELTA:
            raise CornerHit("torus", (px, py), i, theta, "torus", start)
        if not i:
            letter0, fx, fy = letter, px, py
        elif letter == letter0:
            rx, ry = px - fx, py - fy
            if abs(rx - round(rx)) < EPS and abs(ry - round(ry)) < EPS:
                periodic = True
                break
        times.append(t)
        letters.append(letter)
    return TorusTrajectory((x0, y0), theta, times, "".join(letters), periodic)


def torus_derive_rule(word: str, cyclic: bool = False) -> str:
    """Remove one B from every maximal B-run between consecutive A's."""
    for ch in word:
        if ch not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"torus words use letters A and B only, got {ch!r}")
    L = len(word)
    a = [i for i, ch in enumerate(word) if ch == HORIZONTAL]
    # every letter strictly between two consecutive A's is a B, so the B a run
    # loses is the one right after its opening A; a cyclic word's last A pairs
    # with its first, one period on
    ends = a[1:] + [a[0] + L] if cyclic and a else a[1:]
    drop = {(lo + 1) % L for lo, hi in zip(a, ends) if hi > lo + 1}
    return "".join(ch for i, ch in enumerate(word) if i not in drop)


def torus_derive_geometric(traj: TorusTrajectory) -> str:
    """Re-read the cutting sequence after applying the inverse shear.

    The inverse shear acts affinely on the whole plane, so the image of the
    traced span is traced over the same time interval; for periodic orbits
    one period of the image orbit is returned.
    """
    x0, y0 = traj.start
    dx, dy = math.cos(traj.theta), math.sin(traj.theta)
    ix, iy = x0 - y0, y0
    idx, idy = dx - dy, dy
    itheta = math.atan2(idy, idx)
    iscale = math.hypot(idx, idy)
    if traj.periodic:
        image = torus_trace((ix, iy), itheta, max_crossings=4 * len(traj.letters) + 8)
        if not image.periodic:
            raise AssertionError("image of a periodic torus orbit failed to close up")
        return image.period_word
    if not traj.times:
        return ""
    t_end = traj.times[-1] * iscale + STEP_MIN
    image = torus_trace((ix, iy), itheta, max_crossings=10 ** 9, t_max=t_end)
    return image.letters
