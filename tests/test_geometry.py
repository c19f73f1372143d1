import math

from hypothesis import given
from hypothesis import strategies as st

from oddgon.geometry import (
    Segment,
    clip_polygon_halfplane,
    point_in_polygon,
    polygon_area,
    polygon_centroid,
    ray_segment_hit,
    rotation,
    round_sig,
)

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def test_rotation_basics():
    r = rotation(math.pi / 2)
    x, y = r.apply((1.0, 0.0))
    assert abs(x) < 1e-15 and abs(y - 1.0) < 1e-15


@given(angles, angles)
def test_rotation_composes(a, b):
    ra, rb, rab = rotation(a), rotation(b), rotation(a + b)
    for p in [(1.0, 0.0), (0.3, -2.0)]:
        assert math.dist(ra.apply(rb.apply(p)), rab.apply(p)) < 1e-9


def test_segment_params():
    s = Segment((0.0, 0.0), (2.0, 0.0))
    assert s.point_at(0.25) == (0.5, 0.0)
    assert s.midpoint() == (1.0, 0.0)


def test_ray_segment_hit():
    seg = Segment((1.0, -1.0), (1.0, 1.0))
    hit = ray_segment_hit((0.0, 0.0), (1.0, 0.0), seg)
    assert hit is not None
    assert abs(hit.t - 1.0) < 1e-12
    assert abs(hit.u - 0.5) < 1e-12
    # the solve is a line solve: callers filter on t, so behind-the-origin reports t < 0
    back = ray_segment_hit((0.0, 0.0), (-1.0, 0.0), seg)
    assert back is not None and back.t == -1.0
    # parallel ray misses
    assert ray_segment_hit((0.0, 0.0), (0.0, 1.0), seg) is None
    # out-of-range u misses
    assert ray_segment_hit((0.0, 5.0), (1.0, 0.0), seg) is None


def test_polygon_area_and_centroid():
    assert abs(polygon_area(SQUARE) - 1.0) < 1e-15
    cx, cy = polygon_centroid(SQUARE)
    assert abs(cx - 0.5) < 1e-15 and abs(cy - 0.5) < 1e-15


def test_point_in_polygon_eps_sign():
    assert point_in_polygon((0.5, 0.5), SQUARE)
    assert point_in_polygon((0.0, 0.5), SQUARE)  # boundary counts by default
    assert not point_in_polygon((0.0, 0.5), SQUARE, eps=-1e-9)  # strict interior
    assert not point_in_polygon((1.5, 0.5), SQUARE)


def test_clip_halfplane():
    upper = clip_polygon_halfplane(SQUARE, (0.0, 1.0), 0.5)
    assert abs(polygon_area(upper) - 0.5) < 1e-12
    assert clip_polygon_halfplane(SQUARE, (0.0, 1.0), 2.0) == []
    whole = clip_polygon_halfplane(SQUARE, (0.0, 1.0), -1.0)
    assert abs(polygon_area(whole) - 1.0) < 1e-12


def test_round_sig():
    assert round_sig(0.0) == 0.0
    assert round_sig(123.456789, 3) == 123.0
    assert round_sig(-1.23456e-7, 3) == -1.23e-7
