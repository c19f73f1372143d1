import json
import math

import pytest

from oddgon import highprec
from oddgon.geometry import EPS, point_in_polygon, polygon_area, vadd, vlerp
from oddgon.shear import cylinder_width, identity_sum, side_vertex
from oddgon.surface import (
    LOWER,
    UPPER,
    build_surface,
    flip_shear_matrix,
    index_for_letter,
    letter_for_index,
    shear_matrix,
    surface_json,
)

ODD_NS = [5, 7, 9, 11, 13]


@pytest.mark.parametrize("n", [3, 4, 6, 8, -5, 27])
def test_rejects_bad_n(n):
    # edges are lettered A..Z, so 25 is the largest odd n
    with pytest.raises(ValueError, match="from 5 to 25"):
        build_surface(n)


@pytest.mark.parametrize("n", ODD_NS)
def test_upper_polygon_shape(n):
    s = build_surface(n)
    vs = s.vertices(UPPER)
    assert len(vs) == n
    assert vs[0] == (0.0, 0.0)
    assert math.dist(vs[1], (1.0, 0.0)) < 1e-15
    # all sides unit length, counterclockwise
    for i in range(n):
        assert abs(math.dist(vs[i], vs[(i + 1) % n]) - 1.0) < 1e-12
    assert polygon_area(vs) > 0


@pytest.mark.parametrize("n", ODD_NS)
def test_lower_is_half_turn_image(n):
    s = build_surface(n)
    up, lo = s.vertices(UPPER), s.vertices(LOWER)
    assert polygon_area(lo) > 0  # half-turn preserves orientation
    assert math.dist(s.center, vlerp(up[n - 1], up[0], 0.5)) < 1e-12
    for v in up:
        img = s.half_turn(v)
        assert min(math.dist(img, w) for w in lo) < 1e-12
        assert math.dist(s.half_turn(img), v) < 1e-12  # involution


@pytest.mark.parametrize("n", ODD_NS)
def test_edge_directions_and_offsets(n):
    s = build_surface(n)
    for k in range(1, n + 1):
        seg = s.edge_seg(UPPER, k)
        d = seg.direction()
        want = (k - 1) * s.alpha
        assert abs(math.atan2(d[1], d[0]) % (2 * math.pi) - want % (2 * math.pi)) < 1e-9
        # identified lower edge is the parallel translate by -t_k
        t = s.offset(LOWER, k)
        lower_seg = s.edge_seg(LOWER, k)
        assert math.dist(vadd(lower_seg.midpoint(), t), seg.midpoint()) < 1e-12


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_the_two_charts_offsets_are_exact_negatives(n):
    s = build_surface(n)
    for k in range(1, n + 1):
        (ux, uy), (lx, ly) = s.offset(UPPER, k), s.offset(LOWER, k)
        assert (ux, uy) == (-lx, -ly)
        assert math.copysign(1.0, ux) == -math.copysign(1.0, lx)
        assert math.copysign(1.0, uy) == -math.copysign(1.0, ly)


def test_pentagon_entering_polygons(pentagon):
    want = {1: UPPER, 2: LOWER, 3: LOWER, 4: UPPER, 5: UPPER}
    got = {k: pentagon.entering_polygon(k, pentagon.sector / 2) for k in range(1, 6)}
    assert got == want


def test_crossing_an_edge_lands_where_identification_says(pentagon):
    # a point on the upper S_k representative equals its lower twin plus t_k,
    # with the parameter reversed
    for k in range(1, 6):
        t = pentagon.offset(LOWER, k)
        for u in (0.2, 0.5, 0.8):
            p_up = pentagon.edge_seg(UPPER, k).point_at(u)
            p_lo = pentagon.edge_seg(LOWER, k).point_at(1.0 - u)
            assert math.dist(vadd(p_lo, t), p_up) < 1e-12


def test_letters_and_indices():
    assert letter_for_index(1) == "A"
    assert letter_for_index(5) == "E"
    assert index_for_letter("C") == 3
    assert index_for_letter("S3") == 3
    assert index_for_letter("3") == 3
    with pytest.raises(ValueError):
        index_for_letter("S0x")


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda s: letter_for_index(0), "letter range"),
        (lambda s: letter_for_index(27), "letter range"),
        (lambda s: s.right_point(-1), "level out of range"),
        (lambda s: s.right_point(s.m + 1), "level out of range"),
        (lambda s: s.left_point(-1), "level out of range"),
        (lambda s: s.left_point(s.m + 1), "level out of range"),
        (lambda s: s.band_polygons(0), "cylinder index out of range"),
        (lambda s: s.band_polygons(s.m + 1), "cylinder index out of range"),
        (lambda s: identity_sum(s.alpha, 0), "positive integer"),
        (lambda s: cylinder_width(s, 1, at=0.0), "strictly between 0 and 1"),
        (lambda s: cylinder_width(s, 1, at=1.0), "strictly between 0 and 1"),
        (lambda s: cylinder_width(s, 1, at=-0.5), "strictly between 0 and 1"),
        (lambda s: cylinder_width(s, 1, at=float("nan")), "strictly between 0 and 1"),
        (lambda s: side_vertex(s, "middle", "left", 0), "unknown polygon"),
        (lambda s: side_vertex(s, "upper", "middle", 0), "unknown side"),
        (lambda s: highprec.vertex("middle", s.n, 1), "unknown point family"),
        (lambda s: highprec.sheared_x_closed_form("middle", s.n, 1), "unknown point family"),
        (lambda s: highprec.sheared_x_via_matrix("middle", s.n, 1), "unknown point family"),
    ],
)
def test_out_of_range_inputs_are_rejected(pentagon, call, match):
    with pytest.raises(ValueError, match=match):
        call(pentagon)


@pytest.mark.parametrize("n,want", [(5, (1, 4)), (7, (1, 5)), (9, (1, 6))])
def test_node_indices(n, want):
    assert build_surface(n).node_indices == want


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_node_letters_are_the_letters_of_the_node_indices(n):
    s = build_surface(n)
    assert s.letters == tuple(letter_for_index(k) for k in range(1, n + 1))
    assert s.node_letters == {s.letters[k - 1] for k in s.node_indices}


@pytest.mark.parametrize("n", [5, 7, 9])
def test_aux_edges_structure(n):
    s = build_surface(n)
    per_polygon = {UPPER: [], LOWER: []}
    for e in s.aux_edges:
        assert e.kind == "auxiliary"
        per_polygon[e.polygon].append(e)
    # n-3 diagonals in each copy, labels u1..u_{n-3} and l1..l_{n-3}
    assert len(per_polygon[UPPER]) == n - 3
    assert len(per_polygon[LOWER]) == n - 3
    assert sorted(e.label for e in per_polygon[UPPER]) == sorted(f"u{i}" for i in range(1, n - 2))
    assert sorted(e.label for e in per_polygon[LOWER]) == sorted(f"l{i}" for i in range(1, n - 2))
    # lower diagonals are the half-turn images of the upper ones
    lower_mids = {e.label[1:]: e.seg.midpoint() for e in per_polygon[LOWER]}
    for e in per_polygon[UPPER]:
        img = s.half_turn(e.seg.midpoint())
        assert math.dist(img, lower_mids[e.label[1:]]) < 1e-12


@pytest.mark.parametrize("n", [5, 7, 9])
def test_primed_edges(n):
    s = build_surface(n)
    primed = s.primed_edges
    # an upper and a lower piece for every index but the two node edges
    assert [(p.index, p.polygon) for p in primed] == [
        (k, polygon) for k in range(1, n + 1) if k not in s.node_indices for polygon in (UPPER, LOWER)
    ]
    assert s.primed_for(UPPER) + s.primed_for(LOWER) == sorted(primed, key=lambda p: p.polygon != UPPER)
    for p in primed:
        assert p.kind == "primed"
        assert p.label == letter_for_index(p.index) + "'"
        # primed direction is the flip-shear image of the original direction
        v = flip_shear_matrix(n).apply(s.edge_seg(UPPER, p.index).direction())
        d = p.seg.direction()
        assert abs(d[0] * v[1] - d[1] * v[0]) < 1e-9
    # surface_json still lists a node edge's primed pair: the original pair itself
    edges = surface_json(s)["edges"]
    for k in s.node_indices:
        pairs = [[(e["polygon"], e["p0"], e["p1"]) for e in edges if e["label"] == label] for label in (f"S{k}", f"S{k}'")]
        assert pairs[0] == pairs[1] and len(pairs[0]) == 2


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_primed_pieces_lie_in_their_band_pieces(n):
    # the band of S_k is the one whose level interval holds the height of
    # S_k's midpoint; the lower piece, translated across the identification,
    # continues the upper one from that midpoint into the translated lower band
    s = build_surface(n)
    levels = s.levels()
    for upper, lower in zip(s.primed_edges[::2], s.primed_edges[1::2]):
        k = upper.index
        y = s.edge_seg(UPPER, k).midpoint()[1]
        (c,) = [c for c in range(1, s.m + 1) if levels[c - 1] < y < levels[c]]
        up_band, lo_band = s.band_polygons(c)
        t = s.offset(LOWER, k)
        glued = lower.seg.translated(t)
        assert (upper.polygon, lower.polygon, lower.index) == (UPPER, LOWER, k)
        assert math.dist(glued.p0, upper.seg.p0) < 1e-12
        assert point_in_polygon(upper.seg.midpoint(), up_band, eps=-EPS)
        assert point_in_polygon(glued.midpoint(), [vadd(p, t) for p in lo_band], eps=-EPS)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_shear_matrices(n):
    cot = 1.0 / math.tan(math.pi / n)
    m = shear_matrix(n)
    assert (m.a, m.b, m.c, m.d) == (1.0, 2.0 * cot, 0.0, 1.0)
    v = flip_shear_matrix(n)
    assert (v.a, v.b, v.c, v.d) == (-1.0, 2.0 * cot, 0.0, 1.0)
    # flip-shear is an involution
    for p in [(1.0, 0.0), (0.0, 1.0), (0.3, -2.0)]:
        assert math.dist(v.apply(v.apply(p)), p) < 1e-12


def test_surface_json_is_deterministic(pentagon):
    a = json.dumps(surface_json(pentagon), sort_keys=True)
    b = json.dumps(surface_json(build_surface(5)), sort_keys=True)
    assert a == b
    data = surface_json(pentagon)
    assert data["n"] == 5
    assert set(data["polygons"]) == {"upper", "lower"}
