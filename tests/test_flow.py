import itertools
import math
import random
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgon import derivation, flow
from oddgon.derivation import (
    PLAN_CROSSINGS,
    _scan_sampled_transitions,
    _sector_sample_plan,
    build_augmented_diagram,
    cyclic_normal_form,
    ksl_cyclic,
)
from oddgon.flow import (
    CornerHit,
    Crossing,
    Trajectory,
    carried_primed,
    crossing_events,
    derive_geometric,
    edge_permutation,
    normalize_direction,
    rotation_isometry,
    trace,
    trace_from_edge,
    trajectory_json,
)
from oddgon.geometry import (
    CORNER_DELTA,
    EPS,
    STEP_MIN,
    Segment,
    line_crossings,
    line_spans,
    point_in_polygon,
    ray_segment_hit,
    segment_row,
    unit,
    vadd,
    vsub,
)
from oddgon.surface import AUXILIARY, LOWER, ORIGINAL, PRIMED, UPPER, build_surface, letter_for_index

from conftest import window_agrees


def test_period_four_orbit(pentagon):
    traj = trace_from_edge(pentagon, 2, 0.55, math.pi / 10)
    assert traj.periodic
    assert traj.period == 4
    assert cyclic_normal_form(traj.period_word) == cyclic_normal_form("BECE")


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_periodic_trace_holds_one_period(n):
    """A periodic trajectory is one period: its letters are its period word,
    and its geometric derivation indexes every primed hit in range(period)."""
    s, rng, periodic = build_surface(n), random.Random(n), 0
    for _ in range(12):
        theta = 0.5 * s.sector + rng.randrange(2 * n) * s.sector  # completely periodic, any sector
        try:
            traj = trace_from_edge(s, rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), theta, max_crossings=400)
        except CornerHit:
            continue
        if not traj.periodic:
            continue
        periodic += 1
        assert len(traj.crossings) == traj.period
        assert traj.period_word == traj.letters
        assert all(type(i) is int and 0 <= i < traj.period for i, _ in derive_geometric(s, traj).primed_hits)
    assert periodic >= 6


def test_start_on_edge_emits_first_crossing(pentagon):
    traj = trace_from_edge(pentagon, 2, 0.55, math.pi / 10)
    first = traj.crossings[0]
    assert first.letter == "B"
    # a sector direction leaves the upper S2 into the lower polygon, at the start point
    assert first.polygon == LOWER
    on_upper = vadd(first.point, pentagon.offset(LOWER, 2))
    assert math.dist(on_upper, pentagon.edge_seg(UPPER, 2).point_at(0.55)) < 1e-12


def test_crossings_alternate_polygons(pentagon):
    rng = random.Random(3)
    for _ in range(20):
        theta = rng.uniform(0.02, math.pi - 0.02)
        try:
            traj = trace_from_edge(pentagon, rng.randrange(1, 6), rng.uniform(0.1, 0.9), theta, max_crossings=50)
        except CornerHit:
            continue
        for a, b in zip(traj.crossings, traj.crossings[1:]):
            assert a.polygon != b.polygon


def test_periodic_orbits_have_even_period(pentagon):
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        theta = math.pi / 10  # symmetric direction, rich in periodic orbits
        try:
            traj = trace_from_edge(pentagon, rng.randrange(1, 6), rng.uniform(0.05, 0.95), theta, max_crossings=200)
        except CornerHit:
            continue
        if traj.periodic:
            found += 1
            assert traj.period % 2 == 0
    assert found > 10


def test_segments_stay_inside_their_chart(pentagon):
    traj = trace_from_edge(pentagon, 3, 0.37, 0.9, max_crossings=40)
    for i in range(len(traj.crossings) - 1):
        polygon, a, b = traj.segment(i, pentagon)
        poly = pentagon.vertices(polygon)
        assert point_in_polygon(a, poly, eps=1e-9)
        assert point_in_polygon(b, poly, eps=1e-9)
        # the segment is parallel to the flow direction
        d = vsub(b, a)
        u = unit(traj.theta)
        assert abs(d[0] * u[1] - d[1] * u[0]) < 1e-9


def test_corner_hit_raises(pentagon):
    p = pentagon.edge_seg(UPPER, 2).point_at(0.5)
    target = pentagon.vertices(UPPER)[3]
    d = vsub(target, p)
    theta = math.atan2(d[1], d[0])
    with pytest.raises(CornerHit) as exc:
        trace_from_edge(pentagon, 2, 0.5, theta)
    assert exc.value.crossings_done >= 0


def _reference_trace(s, k0, u0, theta, max_crossings):
    """Brute-force tracer over edges rebuilt from the vertices.

    Returns the crossings as (index, polygon, point) and how the trace ended:
    None, ("periodic", period) or ("corner", polygon, point).
    """
    n, d = s.n, unit(theta)
    verts = {UPPER: s.upper, LOWER: s.lower}

    def seg(polygon, k):
        vs = verts[polygon]
        return Segment(vs[k - 1], vs[k % n])

    def offset(k):
        return vsub(seg(UPPER, k).midpoint(), seg(LOWER, k).midpoint())

    p = seg(UPPER, k0).point_at(u0)
    e = seg(UPPER, k0).direction()
    outward = (e[1], -e[0])
    at_corner = min(math.dist(p, seg(UPPER, k0).p0), math.dist(p, seg(UPPER, k0).p1)) < CORNER_DELTA
    polygon = UPPER
    if d[0] * outward[0] + d[1] * outward[1] > 0.0:
        polygon, p = LOWER, vsub(p, offset(k0))
    if at_corner:  # a start at an end of its edge
        return [], ("corner", polygon, p)
    crossings = [(k0, polygon, p)]
    entry = k0
    while len(crossings) < max_crossings:
        hits = []
        for k in range(1, n + 1):
            hit = ray_segment_hit(p, d, seg(polygon, k)) if k != entry else None
            if hit is not None and hit.t > STEP_MIN:
                hits.append((hit.t, k, hit.point))
        if not hits:
            return crossings, ("corner", polygon, p)
        _, k, point = min(hits, key=lambda h: h[0])  # the first edge wins a tie
        edge = seg(polygon, k)
        if min(math.dist(point, edge.p0), math.dist(point, edge.p1)) < CORNER_DELTA:
            return crossings, ("corner", polygon, point)
        if polygon == UPPER:
            polygon, p = LOWER, vsub(point, offset(k))
        else:
            polygon, p = UPPER, vadd(point, offset(k))
        crossings.append((k, polygon, p))
        entry = k
        first, last = crossings[0], crossings[-1]
        if last[:2] == first[:2] and math.dist(last[2], first[2]) < EPS:
            crossings.pop()
            return crossings, ("periodic", len(crossings))
    return crossings, None


# A corner hit's exit point: `trace` reads it off the chain row its line's s
# falls in, the reference off the first edge it hits, and at a vertex these
# may be the two edges that meet there, whose exit points agree to a few ulps
# of coordinates up to 8 (largest seen 3.1e-15).
POINT_TOL = 1e-14


def _check_against_reference(s, k, u, theta, length):
    """Trace from (k, u) in direction theta and require `_reference_trace`'s
    outcome: every crossing, period, corner decision and `crossings_done`
    equal, and a corner hit's point within POINT_TOL. Returns the reference's
    (crossings, ending)."""
    want, end = _reference_trace(s, k, u, theta, length)
    try:
        traj = trace_from_edge(s, k, u, theta, max_crossings=length)
    except CornerHit as hit:
        assert end is not None and end[:2] == ("corner", hit.polygon), (k, u, theta, end)
        assert math.dist(end[2], hit.point) < POINT_TOL, (k, u, theta, end[2], hit.point)
        assert hit.crossings_done == len(want), (k, u, theta)
        return want, end
    assert [(c.index, c.polygon, c.point) for c in traj.crossings] == want, (k, u, theta)
    assert end == (("periodic", traj.period) if traj.periodic else None), (k, u, theta)
    return want, end


def _exact_replay(s, k0, u0, theta, exits, digits):
    """The ray from S_k0 at u0 in direction unit(theta), replayed at `digits`
    digits through the given exit edges on the float polygons, whose vertices,
    offsets and direction are read exactly: crossing 0's point and each entry
    point after it."""
    with mpmath.workdps(digits):
        mpf = mpmath.mpf
        dx, dy = map(mpf, unit(theta))
        x, y = map(mpf, s.edge_seg(UPPER, k0).point_at(u0))
        polygon = s.entering_polygon(k0, theta)
        if polygon == LOWER:
            x, y = x + mpf(s.offset(UPPER, k0)[0]), y + mpf(s.offset(UPPER, k0)[1])
        points = [(x, y)]
        for k in exits:
            (ax, ay), (bx, by) = (map(mpf, p) for p in (s.edge_seg(polygon, k).p0, s.edge_seg(polygon, k).p1))
            ex, ey = bx - ax, by - ay
            u = ((ax - x) * dy - (ay - y) * dx) / (dx * ey - dy * ex)
            ox, oy = map(mpf, s.offset(polygon, k))
            x, y = ax + ex * u + ox, ay + ey * u + oy
            polygon = LOWER if polygon == UPPER else UPPER
            points.append((x, y))
        return points


def _distance_to(points, exact):
    """The largest distance from a float point to its exact replay point."""
    with mpmath.workdps(30):
        return max(float(mpmath.hypot(x - ex, y - ey)) for (x, y), (ex, ey) in zip(points, exact))


def _test_direction(s, rng, i, k, u):
    """Direction of input i: random, near an edge direction, or aimed at a vertex of the upper polygon."""
    if i % 3 == 0:
        return rng.uniform(0.0, 2.0 * math.pi)
    if i % 3 == 1:
        return rng.randrange(2 * s.n) * math.pi / s.n + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(3.0, 12.0)
    v = vsub(s.upper[rng.randrange(s.n)], s.edge_seg(UPPER, k).point_at(u))
    return math.atan2(v[1], v[0])


def _near_vertex_inputs(s, rng):
    """Starts within 1e-6..1e-13 of a vertex; a start within CORNER_DELTA of one is a corner hit."""
    inputs = []
    for i, j in enumerate(range(6, 14)):
        for u in (10.0**-j, 1.0 - 10.0**-j):
            k = rng.randrange(1, s.n + 1)
            inputs.append((k, u, _test_direction(s, rng, i, k, u)))
    return inputs


@pytest.mark.parametrize("n", [5, 9, 15, 25])
def test_trace_equals_brute_force_reference(n):
    s = build_surface(n)
    for polygon in (UPPER, LOWER):
        vs = s.vertices(polygon)
        for k in range(1, n + 1):
            assert s.edge_seg(polygon, k) == Segment(vs[k - 1], vs[k % n])
    for k in range(1, n + 1):
        up, lo = Segment(s.upper[k - 1], s.upper[k % n]), Segment(s.lower[k - 1], s.lower[k % n])
        assert s.offset(LOWER, k) == vsub(up.midpoint(), lo.midpoint())

    rng = random.Random(700 + n)
    inputs = []
    for i in range(48):
        k, u = rng.randrange(1, n + 1), rng.uniform(0.02, 0.98)
        inputs.append((k, u, _test_direction(s, rng, i, k, u)))
    inputs += _near_vertex_inputs(s, rng)
    # starts next to a vertex, aimed along an edge direction: the tracer may
    # end a step's scan early only once its entry point is well inside an edge
    for j in (16, 13, 10, 7):
        for u in (10.0**-j, 1.0 - 10.0**-j):
            theta = rng.randrange(2 * n) * math.pi / n + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(12.0, 17.0)
            inputs.append((rng.randrange(1, n + 1), u, theta))
    cases = [(k, u, theta, 150) for k, u, theta in inputs]
    for _ in range(3):  # as long as a long-derive trace
        cases.append((rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi), 3000))
    # starts aimed at a vertex of either chart, exactly or 1e-16 or 1e-13 rad
    # off: the first exit lies within rounding of the vertex, where the two
    # rows that share it can both be hit
    for polygon in (UPPER, LOWER):
        for delta in (0.0, 1e-16, -1e-16, 1e-13, -1e-13):
            k, u = rng.randrange(1, n + 1), rng.uniform(0.02, 0.98)
            p = s.edge_seg(UPPER, k).point_at(u)
            if polygon == LOWER:
                p = vadd(p, s.offset(UPPER, k))
            aim = vsub(s.vertices(polygon)[rng.randrange(n)], p)
            cases.append((k, u, math.atan2(aim[1], aim[0]) + delta, 150))
    ends = [_check_against_reference(s, k, u, theta, length)[1] for k, u, theta, length in cases]
    assert any(end and end[0] == "corner" for end in ends)


@pytest.mark.parametrize("n", [5, 25])
@pytest.mark.parametrize("polygon", [UPPER, LOWER])
def test_corner_test_on_s_keeps_every_corner_decision(n, polygon):
    # first exits aimed at edge parameters on both sides of CORNER_DELTA, at
    # CORNER_DELTA itself, and 0.5e-6 and 2e-6 in, from each end of the exit
    # edge, decided as the reference decides them: the tracer compares s with
    # CORNER_DELTA * denom from each end of the exit row, and within
    # CORNER_TIE of that measures the exit's distance from the vertex
    s = build_surface(n)
    rng = random.Random(1500 + n)
    for k in range(1, n + 1):
        u = rng.uniform(0.2, 0.8)
        p = s.edge_seg(UPPER, k).point_at(u)
        if polygon == LOWER:
            p = vadd(p, s.offset(UPPER, k))
        exit_edge = s.edge_seg(polygon, 1 + (k - 1 + n // 2) % n)
        for delta in (0.5 * CORNER_DELTA, CORNER_DELTA, 2.0 * CORNER_DELTA, 0.5e6 * CORNER_DELTA, 2e6 * CORNER_DELTA):
            for v in (delta, 1.0 - delta):
                aim = vsub(exit_edge.point_at(v), p)
                theta = math.atan2(aim[1], aim[0])
                want, end = _check_against_reference(s, k, u, theta, 30)
                assert want[0][1] == polygon
                first_exit_corner = end is not None and end[0] == "corner" and len(want) == 1
                # half CORNER_DELTA from a vertex is a corner, twice as far is not
                if delta < CORNER_DELTA:
                    assert first_exit_corner, (k, u, v)
                elif delta > CORNER_DELTA:
                    assert not first_exit_corner, (k, u, v)


@pytest.mark.parametrize("n", [5, 9, 15, 25])
def test_trace_stays_as_close_to_a_50_digit_replay_as_the_reference(n):
    # two 3000-crossing traces per n, one in a random direction and one near
    # j pi/n, each replayed through its own exit edges at 50 digits from the
    # same float start: the walk on s, which works each exit out from the
    # row's vertex with the reference's arithmetic, drifts no farther from
    # the replay than the reference's points do, and stays within EPS of it
    s = build_surface(n)
    rng = random.Random(2300 + n)
    for near_boundary in (False, True):
        while True:
            k, u = rng.randrange(1, n + 1), rng.uniform(0.05, 0.95)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            if near_boundary:
                theta = rng.randrange(2 * n) * math.pi / n + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(3.0, 9.0)
            try:
                traj = trace_from_edge(s, k, u, theta, max_crossings=3000)
            except CornerHit:
                continue
            if not traj.periodic:
                break
        want, end = _reference_trace(s, k, u, theta, 3000)
        assert end is None and [(c.index, c.polygon) for c in traj.crossings] == [(i, q) for i, q, _ in want]
        exact = _exact_replay(s, k, u, theta, [c.index for c in traj.crossings[1:]], 50)
        walk = _distance_to([c.point for c in traj.crossings], exact)
        reference = _distance_to([p for *_, p in want], exact)
        assert walk < EPS and walk <= reference, (k, u, theta, walk, reference)


def test_crossing_is_an_immutable_named_tuple(pentagon):
    c = trace_from_edge(pentagon, 2, 0.55, math.pi / 10).crossings[1]
    assert Crossing._fields == ("index", "letter", "polygon", "point")
    assert tuple(c) == (c.index, c.letter, c.polygon, c.point)
    with pytest.raises(AttributeError):
        c.index = 1
    with pytest.raises(AttributeError):
        c.point = (0.0, 0.0)


def test_trace_rejects_bad_inputs(pentagon):
    with pytest.raises(ValueError):
        trace_from_edge(pentagon, 2, 0.0, 0.1)
    with pytest.raises(ValueError):
        trace_from_edge(pentagon, 2, 1.0, 0.1)
    p = pentagon.edge_seg(UPPER, 2).point_at(0.5)
    for k in (0, 6, -1):  # trace owns the start-edge check
        with pytest.raises(ValueError, match=f"edge index {k} out of range for n=5"):
            trace_from_edge(pentagon, k, 0.5, 0.1)
        with pytest.raises(ValueError, match=f"edge index {k} out of range for n=5"):
            trace(pentagon, (UPPER, p), 0.3, start_edge=k)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta"):
            trace_from_edge(pentagon, 2, 0.5, theta)
    for max_crossings in (0, -3):
        with pytest.raises(ValueError, match="max_crossings"):
            trace_from_edge(pentagon, 2, 0.5, 0.1, max_crossings=max_crossings)
    assert len(trace_from_edge(pentagon, 2, 0.5, 0.1, max_crossings=1).crossings) == 1


def test_rotation_isometry_is_an_isometry(pentagon):
    rng = random.Random(5)
    for steps in range(10):
        iso = rotation_isometry(pentagon, steps)
        pts = [(rng.uniform(-1, 2), rng.uniform(0, 1.5)) for _ in range(4)]
        for a in pts:
            for b in pts:
                pa, qa = iso(UPPER, a)
                pb, qb = iso(UPPER, b)
                assert pa == pb
                assert abs(math.dist(qa, qb) - math.dist(a, b)) < 1e-12
        # polygon parity: odd steps swap the two copies
        polygon, _ = iso(UPPER, pentagon.apex())
        assert (polygon == LOWER) == (steps % 2 == 1)


def test_rotation_isometry_maps_surface_to_itself(pentagon):
    for steps in range(10):
        iso = rotation_isometry(pentagon, steps)
        for polygon in (UPPER, LOWER):
            for v in pentagon.vertices(polygon):
                q_polygon, q = iso(polygon, v)
                vs = pentagon.vertices(q_polygon)
                assert min(math.dist(q, w) for w in vs) < 1e-9


@pytest.mark.parametrize("n", [5, 25])
def test_carried_primed_is_built_once_per_rotation(n, monkeypatch):
    # the surface keeps one set of carried primed pieces per steps mod 2n,
    # built on first use, each piece a fresh rotation_isometry image of its
    # standard piece, segment for segment; deriving in any direction then
    # moves no piece again and keeps the pieces' rows
    s = build_surface(n)
    isometry, built = flow.rotation_isometry, []

    def counted(surface, steps):
        built.append(steps)
        return isometry(surface, steps)

    monkeypatch.setattr(flow, "rotation_isometry", counted)
    for steps in range(-2 * n, 4 * n):
        carried = carried_primed(s, steps)
        assert carried_primed(s, steps + 2 * n) is carried
        move, want = isometry(s, steps), {UPPER: [], LOWER: []}
        for polygon in (UPPER, LOWER):
            for piece in s.primed_for(polygon):
                target, p0 = move(polygon, piece.seg.p0)
                _, p1 = move(polygon, piece.seg.p1)
                want[target].append((piece.label, PRIMED, piece.index, Segment(p0, p1)))
        for polygon, pieces in carried.items():
            assert [(e.label, e.kind, e.index, e.seg) for e in pieces] == want[polygon]
            assert all(e.polygon == polygon for e in pieces)
    assert sorted(built) == list(range(2 * n))
    rows = {j: {p: [e.row for e in pieces] for p, pieces in carried.items()} for j, carried in s.carried.items()}
    rng = random.Random(3100 + n)
    for _ in range(6):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        try:
            derive_geometric(s, trace_from_edge(s, rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), theta, 200))
        except CornerHit:
            continue
    assert len(built) == 2 * n
    for j, carried in s.carried.items():
        assert all(e.row is row for p, pieces in carried.items() for e, row in zip(pieces, rows[j][p]))


def _matched_edge_permutation(s, steps):
    """Reference: the edge whose midpoint rotation_isometry carries each upper S_k's midpoint onto."""
    iso = rotation_isometry(s, steps)
    perm = {}
    for k in range(1, s.n + 1):
        polygon, q = iso(UPPER, s.edge_seg(UPPER, k).midpoint())
        matches = [k2 for k2 in range(1, s.n + 1) if math.dist(q, s.edge_seg(polygon, k2).midpoint()) < 1e-6]
        assert len(matches) == 1, (steps, k, matches)
        perm[k] = matches[0]
    return perm


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_edge_permutation_matches_arithmetic(n):
    # the closed form sigma(k)-1 = (k-1) - j(n+1)/2 mod n is the isometry's edge matching
    s = build_surface(n)
    for j in range(-2 * n, 2 * n):
        reference = _matched_edge_permutation(s, j)
        assert sorted(reference.values()) == list(range(1, n + 1))
        assert edge_permutation(n, j) == reference, j


def test_normalize_direction_lands_in_sector(pentagon):
    rng = random.Random(7)
    for _ in range(60):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        norm = normalize_direction(pentagon, theta)
        assert 0.0 <= norm.theta < pentagon.sector + 1e-12
        # the rotation accounts for the angle difference exactly
        diff = (theta - norm.theta) % (2.0 * math.pi)
        assert abs(diff - (norm.steps * pentagon.sector) % (2.0 * math.pi)) < 1e-9


@pytest.mark.parametrize("n", [5, 9, 25])
def test_normalize_direction_keeps_steps_below_2n(n, monkeypatch):
    # theta % 2pi rounds up to 2pi for tiny negative theta; steps must still
    # come out reduced, and the derived letters must not depend on that
    s = build_surface(n)
    thetas = [-1e-300, -5e-324, math.nextafter(2.0 * math.pi, 0.0)]
    for k in range(-2 * n, 2 * n + 1):
        b = k * math.pi / n
        thetas += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
    derived = []
    for theta in thetas:
        norm = normalize_direction(s, theta)
        assert 0 <= norm.steps < 2 * n, theta
        assert 0.0 <= norm.theta < s.sector, theta
        try:
            traj = trace_from_edge(s, 2, 0.55, theta, max_crossings=60)
        except CornerHit:
            continue
        derived.append((traj, derive_geometric(s, traj).letters))
    assert len(derived) > len(thetas) // 2

    def unreduced(surface, theta):  # the same rotation, reported as steps + 2n
        norm = normalize_direction(surface, theta)
        steps = norm.steps + 2 * n
        perm = edge_permutation(n, steps)
        letter_map = {letter_for_index(k): letter_for_index(v) for k, v in perm.items()}
        return flow.NormalizedDirection(theta=norm.theta, steps=steps, letter_map=letter_map)

    monkeypatch.setattr(flow, "normalize_direction", unreduced)
    for traj, letters in derived:
        assert derive_geometric(s, traj).letters == letters, traj.theta


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_directions_within_rounding_of_zero_derive_one_cyclic_word(n):
    # a direction within rounding of 0 mod 2pi may normalize to sector 0 or
    # to sector 2n - 1; the orbit is the same horizontal periodic one either
    # way, so its derived word may start elsewhere but is the same cyclic
    # word. S1 is horizontal: a ray along it is a corner hit at every theta
    s = build_surface(n)
    for k in range(1, n + 1):
        for u in (0.13, 0.55, 0.81):
            words = set()
            for theta in (0.0, -1e-300, -1e-17, 2.0 * math.pi, -2.0 * math.pi):
                if k == 1:
                    with pytest.raises(CornerHit):
                        trace_from_edge(s, k, u, theta, max_crossings=4 * n)
                    continue
                traj = trace_from_edge(s, k, u, theta, max_crossings=4 * n)
                assert traj.periodic, (k, u, theta)
                derived = derive_geometric(s, traj)
                assert derived.cyclic
                words.add(cyclic_normal_form(derived.letters))
            assert len(words) == (k != 1), (k, u, words)


def test_normalize_in_sector_is_identity(pentagon):
    norm = normalize_direction(pentagon, math.pi / 10)
    assert norm.steps == 0
    assert norm.apply("ABCDE") == "ABCDE"
    assert abs(norm.theta - math.pi / 10) < 1e-15


def test_letter_map_roundtrip(pentagon):
    norm = normalize_direction(pentagon, 2.0)
    word = "ABECD"
    assert norm.invert(norm.apply(word)) == word
    assert sorted(norm.letter_map.values()) == sorted(norm.letter_map.keys())


def test_geometric_derivation_of_period_four(pentagon):
    traj = trace_from_edge(pentagon, 2, 0.55, math.pi / 10)
    result = derive_geometric(pentagon, traj)
    assert result.cyclic
    assert cyclic_normal_form(result.letters) == "BC"
    assert result.rotation_steps == 0


def test_geometric_derivation_of_period_eight(pentagon):
    # the period-8 neighbour of the BECE orbit derives to its sandwiched letters
    traj = trace_from_edge(pentagon, 2, 0.25, math.pi / 10, max_crossings=400)
    assert traj.periodic and traj.period == 8
    result = derive_geometric(pentagon, traj)
    assert cyclic_normal_form(result.letters) == cyclic_normal_form(
        ksl_cyclic(traj.period_word)
    )


def test_geometric_matches_rule_out_of_sector(pentagon):
    # same orbit family, direction pushed out of the fundamental sector
    theta = math.pi / 10 + 3 * math.pi / 5
    traj = trace_from_edge(pentagon, 2, 0.55, theta, max_crossings=200)
    result = derive_geometric(pentagon, traj)
    assert result.rotation_steps != 0
    if traj.periodic:
        want = ksl_cyclic(traj.period_word)
        assert cyclic_normal_form(result.letters) == cyclic_normal_form(want)


@pytest.mark.parametrize("n", [5, 7])
def test_window_derivation_agrees_with_rule(n):
    s = build_surface(n)
    rng = random.Random(100 + n)
    checked = 0
    while checked < 25:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        k = rng.randrange(1, n + 1)
        u = 0.05 + 0.9 * rng.random()
        try:
            traj = trace_from_edge(s, k, u, theta, max_crossings=80)
        except CornerHit:
            continue
        result = derive_geometric(s, traj)
        checked += 1
        if traj.periodic:
            assert cyclic_normal_form(result.letters) == cyclic_normal_form(
                ksl_cyclic(traj.period_word)
            )
        else:
            assert window_agrees(result.letters, traj.letters)


@pytest.mark.parametrize("n", [5, 9, 15])
def test_near_edge_directions_trace_and_derive(n):
    # within 1e-3..1e-7 of an edge direction, float error puts a self-hit on
    # the entry edge just above STEP_MIN; taking it would repeat a letter or
    # end the trace in a spurious CornerHit
    s = build_surface(n)
    rng = random.Random(900 + n)
    for _ in range(60):
        j = rng.randrange(2 * n)
        theta = j * math.pi / n + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(3.0, 7.0)
        k = rng.randrange(1, n + 1)
        u = rng.uniform(0.05, 0.95)
        try:
            traj = trace_from_edge(s, k, u, theta, max_crossings=60)
        except CornerHit:
            continue
        letters = traj.letters
        assert all(a != b for a, b in zip(letters, letters[1:])), (k, u, theta, letters)
        result = derive_geometric(s, traj)
        if traj.periodic:
            assert cyclic_normal_form(result.letters) == cyclic_normal_form(ksl_cyclic(traj.period_word))
        else:
            assert window_agrees(result.letters, letters), (k, u, theta)


def test_directions_next_to_a_sector_boundary_derive_by_the_rule():
    # 1e-8..1e-13 rad from j pi/n, primed pieces the trajectory crosses near
    # their ends lie within rounding of a chord's end; an EPS window there
    # dropped real crossings
    failed, derived = [], 0
    for n in range(5, 27, 2):
        s, rng = build_surface(n), random.Random(2100 + n)
        for _ in range(60):
            theta = rng.randrange(2 * n) * math.pi / n + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(8.0, 13.0)
            k, u = rng.randrange(1, n + 1), rng.uniform(0.05, 0.95)
            try:
                traj = trace_from_edge(s, k, u, theta, max_crossings=400)
            except CornerHit:
                continue
            got = derive_geometric(s, traj).letters
            if traj.periodic:
                ok = cyclic_normal_form(got) == cyclic_normal_form(ksl_cyclic(traj.period_word))
            else:
                ok = window_agrees(got, traj.letters)
            if not ok:
                failed.append((n, k, u, theta))
            derived += 1
    assert derived >= 600 and not failed, failed


def test_a_short_orbit_next_to_a_vertex_derives_by_the_rule():
    # starts 1e-10..1e-12.5 from a vertex, 1e-9..1e-12.5 rad from j pi/n:
    # many close after two crossings, each of their segments running along
    # an edge within rounding of the pieces that end at its vertices. They
    # only nearly close: the closing segment's own line lies more than SNAP
    # per crossing off crossing 0's, and it is read on its own line
    failed, periodic = [], 0
    for n in range(5, 27, 2):
        s, rng = build_surface(n), random.Random(4100 + n)
        for _ in range(40):
            k, e = rng.randrange(1, n + 1), 10.0 ** -rng.uniform(10.0, 12.5)
            u = e if rng.random() < 0.5 else 1.0 - e
            theta = rng.randrange(2 * n) * math.pi / n + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(9.0, 12.5)
            try:
                traj = trace_from_edge(s, k, u, theta, max_crossings=200)
            except CornerHit:
                continue
            if traj.periodic:
                periodic += 1
                if cyclic_normal_form(derive_geometric(s, traj).letters) != cyclic_normal_form(ksl_cyclic(traj.period_word)):
                    failed.append((n, k, u, theta))
    assert periodic >= 100 and not failed, failed


@pytest.mark.parametrize("n", [5, 9])
def test_rotated_trace_reproduces_permuted_letters(n):
    # tracer equivariance: tracing the isometry image of the start in the
    # normalized direction yields the permuted cutting sequence
    s = build_surface(n)
    rng = random.Random(40 + n)
    checked = 0
    while checked < 20:
        theta = rng.uniform(s.sector + 0.01, 2.0 * math.pi - 0.01)
        k = rng.randrange(1, n + 1)
        u = rng.uniform(0.05, 0.95)
        try:
            traj = trace_from_edge(s, k, u, theta, max_crossings=60)
        except CornerHit:
            continue
        norm = normalize_direction(s, theta)
        polygon, point = rotation_isometry(s, norm.steps)(UPPER, s.edge_seg(UPPER, k).point_at(u))
        k2 = edge_permutation(n, norm.steps)[k]
        rotated = trace(s, (polygon, point), norm.theta, max_crossings=len(traj.crossings), start_edge=k2)
        assert rotated.letters == norm.apply(traj.letters)
        checked += 1


def test_crossing_events_stream(pentagon):
    traj = trace_from_edge(pentagon, 3, 0.37, 0.9, max_crossings=40)
    edges = {p: pentagon.aux_for(p) + pentagon.primed_for(p) for p in (UPPER, LOWER)}
    cells = crossing_events(pentagon, traj, edges)
    # one cell per segment; an open trajectory's last crossing starts none
    assert not traj.periodic and len(cells) == len(traj.indices) - 1
    assert all(type(cell) is tuple for cell in cells)
    events = interleaved_events(traj, cells)
    assert "".join(name for kind, name in events if kind == ORIGINAL) == traj.letters
    assert {kind for kind, _ in events} == {ORIGINAL, AUXILIARY, PRIMED}
    # an auxiliary piece is named by its label; a primed piece by the letter
    # of the edge it is the image of
    aux_labels = {e.label for p in (UPPER, LOWER) for e in pentagon.aux_for(p)}
    assert all(name in aux_labels for kind, name in events if kind == AUXILIARY)
    assert all(name in "ABCDE" for kind, name in events if kind == PRIMED)


@pytest.mark.parametrize("theta", [0.2, 2.0, math.pi / 10])
def test_a_trajectory_rebuilt_from_its_fields_scans_and_derives_alike(theta):
    # a trajectory is its columns: one built from the fields of a traced one
    # gives the same event stream and the same derivation
    s = build_surface(7)
    traj = trace_from_edge(s, 3, 0.37, theta, max_crossings=200)
    rebuilt = Trajectory(
        traj.start_polygon,
        traj.start_point,
        traj.theta,
        traj.first_polygon,
        list(traj.indices),
        list(traj.xs),
        list(traj.ys),
        traj.start_edge,
        traj.periodic,
        traj.start_param,
    )
    assert rebuilt == traj
    edges = carried_primed(s, -normalize_direction(s, theta).steps)
    assert crossing_events(s, rebuilt, edges) == crossing_events(s, traj, edges)
    assert derive_geometric(s, rebuilt) == derive_geometric(s, traj)


def _reference_hits(a, d, pieces):
    """The per-piece scan the lookup on s replaces: ray_segment_hit, then strictly inside both."""
    hits = []
    for e in pieces:
        hit = ray_segment_hit(a, d, e.seg)
        if hit is not None and 0.0 < hit.t < 1.0 and 0.0 < hit.u < 1.0:
            hits.append((hit.t, e))
    return hits


def interleaved_events(traj, cells):
    """The flat (kind, name) stream of a trajectory: each crossing's (ORIGINAL, letter)
    token, then the cell of the segment it starts, if any."""
    events = []
    for k, cell in itertools.zip_longest(traj.indices, cells, fillvalue=()):
        events.append((ORIGINAL, letter_for_index(k)))
        events.extend(cell)
    return events


def _reference_events(surface, traj, edges):
    """The (kind, name) tokens of the per-piece scan, sorted by their hit times, which are then dropped."""
    events = [(float(i), ORIGINAL, c.letter) for i, c in enumerate(traj.crossings)]
    m = len(traj.crossings)
    for i in range(m if traj.periodic else m - 1):
        polygon, a, b = traj.segment(i, surface)
        for t, e in _reference_hits(a, vsub(b, a), edges[polygon]):
            events.append((i + t, e.kind, e.label.rstrip("'")))
    events.sort(key=lambda ev: ev[0])
    return [(kind, name) for _, kind, name in events]


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_crossing_events_equal_the_per_piece_reference(n):
    s = build_surface(n)
    aux_and_primed = {p: s.aux_for(p) + s.primed_for(p) for p in (UPPER, LOWER)}
    rng = random.Random(1100 + n)
    inputs = []
    for i in range(18):
        if i % 3 == 0:
            theta = rng.uniform(0.0, 2.0 * math.pi)
        elif i % 3 == 1:  # near an edge direction
            theta = rng.randrange(2 * n) * math.pi / n + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(3.0, 12.0)
        else:  # perpendicular to an edge: a periodic direction
            theta = (2 * rng.randrange(2 * n) + 1) * math.pi / (2 * n)
        inputs.append((rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), theta))
    inputs += _near_vertex_inputs(s, rng)  # vertex-aimed directions among them
    periodic = compared = 0
    for k, u, theta in inputs:
        try:
            traj = trace_from_edge(s, k, u, theta, max_crossings=120)
        except CornerHit:
            continue
        periodic += traj.periodic
        steps = normalize_direction(s, theta).steps
        for edges in (aux_and_primed, carried_primed(s, -steps), carried_primed(s, rng.randrange(1, 2 * n))):
            cells = crossing_events(s, traj, edges)
            assert len(cells) == len(traj.indices) - (not traj.periodic), (k, u, theta)
            assert interleaved_events(traj, cells) == _reference_events(s, traj, edges), (k, u, theta)
            compared += 1
    assert periodic >= 2 and compared >= 36
    # one trace as long as a long-derive trace, in a generic direction, on the
    # primed set derive_geometric carries onto its charts
    theta = rng.uniform(0.0, 2.0 * math.pi)
    traj = trace_from_edge(s, rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), theta, max_crossings=3000)
    assert len(traj.crossings) == 3000
    edges = carried_primed(s, -normalize_direction(s, theta).steps)
    assert interleaved_events(traj, crossing_events(s, traj, edges)) == _reference_events(s, traj, edges)


class _ColumnsOnly(Trajectory):
    """A trajectory whose `Crossing` view may not be read."""

    @property
    def crossings(self):
        raise AssertionError("the Crossing view was read")


def _columns_only(traj):
    return _ColumnsOnly(
        traj.start_polygon, traj.start_point, traj.theta, traj.first_polygon, traj.indices, traj.xs, traj.ys,
        traj.start_edge, traj.periodic, traj.start_param,
    )


def _no_record(*fields):
    raise AssertionError("a Crossing was built")


@pytest.mark.parametrize("n", [5, 9, 15])
def test_tracing_scanning_and_deriving_build_no_crossing_record(n, monkeypatch):
    # trace, crossing_events, derive_geometric, segment, letters and period
    # read the columns: with no Crossing to build and a view that raises,
    # each gives what the Crossing view of the same trace gives
    s = build_surface(n)
    aux_and_primed = {p: s.aux_for(p) + s.primed_for(p) for p in (UPPER, LOWER)}
    rng = random.Random(2500 + n)
    inputs = [(rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(8)]
    # perpendicular to an edge: periodic orbits, whose closing segment the scan carries back
    inputs += [(k, rng.uniform(0.05, 0.95), (2 * rng.randrange(2 * n) + 1) * math.pi / (2 * n)) for k in range(1, n + 1)]
    traced = []
    for k, u, theta in inputs:
        try:
            traced.append((k, u, theta, trace_from_edge(s, k, u, theta, max_crossings=300)))
        except CornerHit:
            continue
    assert sum(traj.periodic for *_, traj in traced) >= 3 and sum(not traj.periodic for *_, traj in traced) >= 3
    wants = []
    for k, u, theta, traj in traced:
        crossings = traj.crossings
        carried = carried_primed(s, -normalize_direction(s, theta).steps)
        segments = [
            (a.polygon, a.point, vadd(b.point, s.offset(b.polygon, b.index)))
            for a, b in zip(crossings, crossings[1:] + crossings[:1] * traj.periodic)
        ]
        letters = "".join(c.letter for c in crossings)
        wants.append(
            (
                _reference_events(s, traj, aux_and_primed),
                _reference_events(s, traj, carried),
                derive_geometric(s, traj),
                segments,
                letters,
                len(crossings) if traj.periodic else None,
                letters if traj.periodic else None,
            )
        )
    monkeypatch.setattr(flow, "Crossing", _no_record)
    for (k, u, theta, traj), want in zip(traced, wants):
        guarded = _columns_only(trace_from_edge(s, k, u, theta, max_crossings=300))
        carried = carried_primed(s, -normalize_direction(s, theta).steps)
        got = (
            interleaved_events(guarded, crossing_events(s, guarded, aux_and_primed)),
            interleaved_events(guarded, crossing_events(s, guarded, carried)),
            derive_geometric(s, guarded),
            [guarded.segment(i, s) for i in range(len(guarded.indices) - (not guarded.periodic))],
            guarded.letters,
            guarded.period,
            guarded.period_word,
        )
        assert got == want, (k, u, theta)


def test_the_sampled_scan_builds_no_crossing_record(pentagon, monkeypatch):
    aux_of = build_augmented_diagram(pentagon)[1]
    want = _scan_sampled_transitions(pentagon, aux_of)
    monkeypatch.setattr(flow, "Crossing", _no_record)
    monkeypatch.setattr(
        derivation, "trace_from_edge", lambda *args, **kwargs: _columns_only(trace_from_edge(*args, **kwargs))
    )
    assert _scan_sampled_transitions(pentagon, aux_of) == want


_ODD_NS = range(5, 27, 2)


@pytest.mark.parametrize("n", _ODD_NS)
def test_every_gluing_leads_into_the_other_polygon(n):
    # the columns keep no polygon: crossing i enters the polygon crossing 0
    # enters when i is even and the other one when i is odd, because every
    # exit chain leads into the other polygon
    s = build_surface(n)
    rng = random.Random(2700 + n)
    thetas = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(12)] + [j * math.pi / n for j in range(2 * n)]
    for theta in thetas:
        for polygon, (_, rows, entered) in flow._chains(s, unit(theta)).items():
            assert rows and entered == (LOWER if polygon == UPPER else UPPER), (theta, polygon)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_ODD_NS),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.booleans(),
)
def test_traces_alternate_polygon_and_close_after_an_even_period(n, edge, u, theta, periodic_direction):
    s = build_surface(n)
    k = 1 + edge % n
    if periodic_direction:  # perpendicular to an edge: every orbit closes
        theta = (2 * (edge % (2 * n)) + 1) * math.pi / (2 * n)
    try:
        traj = trace_from_edge(s, k, u, theta, max_crossings=400)
    except CornerHit:
        return
    polygons = [c.polygon for c in traj.crossings]
    assert polygons[0] == s.entering_polygon(k, theta)
    assert all(a != b for a, b in zip(polygons, polygons[1:]))
    assert [c.index for c in traj.crossings] == traj.indices
    if traj.periodic:
        assert traj.period % 2 == 0


@pytest.mark.parametrize("n", [5, 25])
def test_the_event_scan_works_out_each_cell_once(n, monkeypatch):
    # over the diagram build's sample plan, one crossing_events call asks
    # line_crossings at most once per cell of its piece-end tables, however
    # many segments read the cell; every segment in a cell gets that one
    # tuple, and its tokens are bare (kind, name) pairs
    s = build_surface(n)
    edges = {p: s.aux_for(p) + s.primed_for(p) for p in (UPPER, LOWER)}
    calls = []
    scan = flow.line_crossings

    def recorded(d, at, spans):
        calls.append((id(spans), at))
        return scan(d, at, spans)

    monkeypatch.setattr(flow, "line_crossings", recorded)
    segments = cells = 0
    for k, u, theta in _sector_sample_plan(s):
        try:
            traj = trace_from_edge(s, k, u, theta, max_crossings=PLAN_CROSSINGS)
        except CornerHit:
            continue
        calls.clear()
        read = crossing_events(s, traj, edges)
        assert len(set(calls)) == len(calls), (k, u, theta)
        assert len({id(cell) for cell in read if cell}) <= len(calls), (k, u, theta)
        tokens = [token for cell in read for token in cell]
        assert all(type(token) is tuple and list(map(type, token)) == [str, str] for token in tokens), (k, u, theta)
        assert len(read) == len(traj.indices) - 1 + traj.periodic, (k, u, theta)
        segments += len(read)
        cells += len(calls)
    assert 0 < cells < segments


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_exit_chains_pick_every_exit_and_piece_tables_prune(n, monkeypatch):
    s = build_surface(n)
    rng = random.Random(1300 + n)
    # each polygon's chain holds the edges facing d in the order of s, and
    # their spans meet end to start from the lowest vertex in s to the highest
    for _ in range(24):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        d = unit(theta)
        chains = flow._chains(s, d)
        for polygon, (bounds, rows, entered) in chains.items():
            assert entered == (LOWER if polygon == UPPER else UPPER)
            for denom, ax, ay, ex, ey, ox, oy, k in rows:
                assert (ax, ay, ex, ey) == s.exit_rows[polygon][k - 1][:4]
                assert denom == d[0] * ey - d[1] * ex
                assert (ox, oy) == s.offset(polygon, k)
            starts = [d[0] * ay - d[1] * ax for _, ax, ay, *_ in rows]
            assert starts == sorted(starts) and len(set(starts)) == len(starts)
            assert bounds == [-math.inf] + starts[1:] + [math.inf]
            for (_, ax, ay, ex, ey, *_), nxt in zip(rows, rows[1:]):
                assert (ax + ex, ay + ey) == pytest.approx(nxt[1:3], abs=1e-12)
            vertex_s = [d[0] * vy - d[1] * vx for vx, vy in s.vertices(polygon)]
            assert starts[0] == min(vertex_s)
            assert starts[-1] + rows[-1][0] == pytest.approx(max(vertex_s), abs=1e-12)
            facing = {k for ax, ay, ex, ey, guard, k in s.exit_rows[polygon] if d[0] * ey - d[1] * ex >= guard}
            assert {row[7] for row in rows} == facing
            # from each edge a ray of this direction enters by, at the ends,
            # the EPS overhang past them and points between, the tracer leaves
            # by the edge the full scan accepts first: every edge the scan
            # accepts from a point on the edge is in the chain, and from the
            # overhang, past a vertex, every facing edge it accepts is. A start
            # within CORNER_DELTA of an end of its edge is a corner hit. A line
            # that misses the polygon (from the overhang) has no exit: a corner
            # hit at the end vertex of the chain it passes
            for entry in range(1, n + 1):
                samples = (-EPS, 0.0, 1e-13, rng.random(), 1.0 - 1e-13, 1.0, 1.0 + EPS)
                if s.entering_polygon(entry, theta) != polygon:
                    continue  # the direction leaves this polygon by that edge
                side = s.edge_seg(UPPER, entry)
                for u in samples:
                    start = side.point_at(u)
                    p = start if polygon == UPPER else vadd(start, s.offset(UPPER, entry))
                    hits = {k: ray_segment_hit(p, d, s.edge_seg(polygon, k)) for k in range(1, n + 1) if k != entry}
                    accepted = {k: hit for k, hit in hits.items() if hit is not None and hit.t > STEP_MIN}
                    if 0.0 <= u <= 1.0:
                        assert set(accepted) <= facing, (entry, u, theta)
                    at_corner = min(math.dist(start, side.p0), math.dist(start, side.p1)) < CORNER_DELTA
                    want = ("corner", polygon, p)
                    if not at_corner and not accepted.keys() & facing:
                        s_p = d[0] * p[1] - d[1] * p[0]
                        assert not starts[0] <= s_p <= starts[-1] + rows[-1][0], (entry, u, theta)
                        _, ax, ay, ex, ey, *_ = rows[-1]
                        want = ("corner", polygon, rows[0][1:3] if s_p < starts[0] else (ax + ex, ay + ey))
                    if accepted.keys() & facing and not at_corner:
                        _, k = min((hit.t, k) for k, hit in accepted.items() if k in facing)
                        edge, point = s.edge_seg(polygon, k), accepted[k].point
                        want = ("corner", polygon, point)
                        if min(math.dist(point, edge.p0), math.dist(point, edge.p1)) >= CORNER_DELTA:
                            want = (k, vadd(point, s.offset(polygon, k)))
                    try:
                        c = trace(s, (UPPER, start), theta, 2, start_edge=entry).crossings[1]
                        got = (c.index, c.point)
                    except CornerHit as corner:
                        got = ("corner", corner.polygon, corner.point)
                    if want[0] == "corner":
                        assert got[:2] == want[:2], (entry, u, theta)
                        assert math.dist(got[2], want[2]) < POINT_TOL, (entry, u, theta)
                    else:
                        assert got == want, (entry, u, theta)

    # rays aimed at a vertex exit within rounding of it, where two chain rows
    # meet; with every cell of the event scan emptied, the scan finds no
    # piece while the tracer, which reads no cell, traces the same crossings
    edges = {p: s.aux_for(p) + s.primed_for(p) for p in (UPPER, LOWER)}
    traced = []
    for _ in range(24):
        k, u, theta = rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)
        try:
            traj = trace_from_edge(s, k, u, theta, 100)
        except CornerHit:
            continue
        traced.append((k, u, theta, traj))
    assert len(traced) >= 12
    for v in s.upper:
        k, u = rng.randrange(1, n + 1), rng.uniform(0.05, 0.95)
        aim = vsub(v, s.edge_seg(UPPER, k).point_at(u))
        for delta in (0.0, 1e-16, -1e-13):
            _check_against_reference(s, k, u, math.atan2(aim[1], aim[0]) + delta, 10)
    assert any(any(crossing_events(s, traj, edges)) for *_, traj in traced)
    monkeypatch.setattr(flow, "line_crossings", lambda d, s, spans: [])
    for k, u, theta, traj in traced:
        assert trace_from_edge(s, k, u, theta, 100).crossings == traj.crossings
        assert not any(crossing_events(s, traj, edges))


def test_a_line_through_a_piece_end_reads_the_cell_above():
    # along d = (1, 0), s = y: both vertical pieces span s in [0, 1), whichever
    # way they run, and the horizontal one is parallel to d within the guard
    pieces = [("C", (0.3, 0.5), (0.7, 0.5)), ("B", (0.75, 1.0), (0.75, 0.0)), ("A", (0.25, 0.0), (0.25, 1.0))]
    rows = [segment_row(Segment(p0, p1), (PRIMED, name)) for name, p0, p1 in pieces]

    def names(d, s):
        return "".join(name for *_, (_, name) in line_crossings(d, s, line_spans(d, rows)))

    # the spans keep the rows' order and drop the parallel one
    assert [row[5][1] for *_, row in line_spans((1.0, 0.0), rows)] == ["B", "A"]
    assert names((1.0, 0.0), 0.0) == "AB"  # a lower end: the cell above crosses both
    assert names((1.0, 0.0), 0.5) == "AB"  # in line order, C skipped
    assert names((1.0, 0.0), math.nextafter(1.0, 0.0)) == "AB"
    assert names((1.0, 0.0), 1.0) == ""  # an upper end: the cell above crosses neither
    assert names((1.0, 0.0), math.nextafter(0.0, -1.0)) == ""
    assert names((-1.0, 0.0), -0.5) == "BA"  # the other way along the same line


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_a_crossing_where_the_primed_halves_meet_counts_once(n):
    # a primed edge's upper and lower pieces meet at the midpoint of its edge,
    # so an orbit started there crosses the primed edge at crossing 0, and the
    # closing segment ends on that point: the derived word is the rule's, that
    # letter read once per period. Perpendicular to an edge, at (j + 1/2) pi/n,
    # every orbit closes; from every edge in every such direction, written
    # both ways, the closing segment's own line lies up to 2.6e-13 off
    # crossing 0's at n = 25
    s = build_surface(n)
    thetas = {(j + 0.5) * math.pi / n for j in range(2 * n)} | {(2 * j + 1) * 0.5 * s.sector for j in range(2 * n)}
    checked = 0
    for k in range(1, n + 1):
        for theta in sorted(thetas):
            try:
                traj = trace_from_edge(s, k, 0.5, theta, max_crossings=400)
            except CornerHit:
                continue  # a direction through a vertex: the midpoint faces one
            assert traj.periodic, (k, theta)
            derived = derive_geometric(s, traj)
            assert cyclic_normal_form(derived.letters) == cyclic_normal_form(ksl_cyclic(traj.period_word)), (k, theta)
            assert all(i in range(traj.period) for i, _ in derived.primed_hits), (k, theta)
            checked += 1
    assert checked >= 1.5 * n * n


def _eager_primed_hits(surface, traj):
    """The hits as the derivation stored them before they became a view: per
    segment i, crossing i's normalized letter if it is a node letter, then
    the names of segment i's cell."""
    norm = normalize_direction(surface, traj.theta)
    cells = crossing_events(surface, traj, carried_primed(surface, -norm.steps))
    hits = []
    for i, k in enumerate(traj.indices):
        letter = norm.letter_map[letter_for_index(k)]
        if letter in surface.node_letters:
            hits.append((i, letter))
        if i < len(cells):  # an open trajectory's last crossing starts no segment
            hits.extend((i, name) for _, name in cells[i])
    return tuple(hits)


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_primed_hits_view_equals_the_eager_hits(n):
    # open traces in random directions, periodic ones perpendicular to an
    # edge, orbits through an edge midpoint and starts next to a vertex
    s, rng = build_surface(n), random.Random(3300 + n)
    inputs = [(rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(6)]
    inputs += [(k, rng.uniform(0.05, 0.95), (2 * rng.randrange(2 * n) + 1) * math.pi / (2 * n)) for k in (1, n)]
    inputs += [(k, 0.5, (rng.randrange(2 * n) + 0.5) * math.pi / n) for k in (1, 2, n)]
    inputs += _near_vertex_inputs(s, rng)
    kinds = set()
    for k, u, theta in inputs:
        try:
            traj = trace_from_edge(s, k, u, theta, max_crossings=300)
        except CornerHit:
            continue
        derived = derive_geometric(s, traj)
        hits = derived.primed_hits
        assert hits == _eager_primed_hits(s, traj), (k, u, theta)
        assert derived.primed_hits == hits
        assert derived.letters == normalize_direction(s, theta).invert("".join(name for _, name in hits))
        kinds.add((traj.periodic, u == 0.5))
    assert kinds == {(False, False), (True, False), (True, True)}


def test_a_derivation_keeps_under_16_bytes_a_crossing():
    # the word is joined from the names as they are read and the hits are a
    # view, so a derivation keeps its letters and one cell reference a
    # segment; the rest of its peak is the scan's copies of the columns
    s, m = build_surface(9), 20_000
    traj = trace_from_edge(s, 3, 0.37, 0.7, max_crossings=m)
    assert len(traj.indices) == m and not traj.periodic
    derive_geometric(s, trace_from_edge(s, 3, 0.37, 0.7, max_crossings=10))  # carries this rotation's primed pieces
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        derived = derive_geometric(s, traj)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (kept - base) / m < 16 and (peak - base) / m < 40, ((kept - base) / m, (peak - base) / m)


def test_trajectory_json_shape(pentagon):
    traj = trace_from_edge(pentagon, 2, 0.55, math.pi / 10)
    data = trajectory_json(traj)
    assert data["periodic"] is True
    assert data["period"] == 4
    assert data["letters"] == list("BECE")
    assert data["start"]["polygon"] == UPPER
    assert data["start"]["edge"] == "S2"
    assert data["theta"] == pytest.approx(math.pi / 10)


def test_letters_property_joins_crossings(pentagon):
    traj = trace_from_edge(pentagon, 2, 0.55, math.pi / 10, max_crossings=12)
    assert traj.letters == "".join(c.letter for c in traj.crossings)
    assert all(c.letter == letter_for_index(c.index) for c in traj.crossings)
