"""Cylinders, trig identities, the vertex guide and reassembly.

The double odd n-gon decomposes into (n-1)/2 horizontal cylinders, all of
modulus 2cot(pi/n), so the parabolic shear M_n acts as one full Dehn twist
per cylinder. The vertex guide, a tuple of `GuidePoint`s, reaches the
sheared side vertices by a geometric "snaking" chain of polygon gluings;
verify_reassembly compares each with `shear_matrix(n).apply(v)`. The
cosine-polynomial closed form of the sheared x-coordinates lives in
`highprec`, where the tests check it against the matrix route.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import EPS, PARALLEL, Vec, vadd
from .surface import LOWER, UPPER, Surface, shear_matrix

LEFT = "left"
RIGHT = "right"


# ---- trig identities ------------------------------------------------------


def telescoping_identity(theta: float, k: int) -> tuple[float, float]:
    """(lhs, rhs) of cot(theta/2) sin(k theta) = 1 + 2 sum cos(i theta) + cos(k theta)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 0.0 < theta < math.pi or abs(math.sin(theta / 2.0)) < PARALLEL:
        raise ValueError("theta must lie in (0, pi), away from cot poles")
    lhs = math.sin(k * theta) * math.cos(theta / 2.0) / math.sin(theta / 2.0)
    rhs = 1.0 + 2.0 * sum(math.cos(i * theta) for i in range(1, k)) + math.cos(k * theta)
    return lhs, rhs


def identity_sum(alpha: float, k: int) -> tuple[float, float]:
    """(lhs, rhs) of sum_{i<=k} cot(a/2) sin(i a) = k + sum_{i<=k} (2(k-i)+1) cos(i a)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 0.0 < alpha < math.pi or abs(math.sin(alpha / 2.0)) < PARALLEL:
        raise ValueError("alpha must lie in (0, pi), away from cot poles")
    cot_half = math.cos(alpha / 2.0) / math.sin(alpha / 2.0)
    lhs = sum(cot_half * math.sin(i * alpha) for i in range(1, k + 1))
    rhs = k + sum((2.0 * (k - i) + 1.0) * math.cos(i * alpha) for i in range(1, k + 1))
    return lhs, rhs


# ---- cylinders ------------------------------------------------------------


class Cylinder(NamedTuple):
    index: int
    width: float
    height: float
    modulus: float
    y_interval: tuple[float, float]


def _slice_width(poly: list[Vec], y: float) -> float:
    """Length of the horizontal chord of a convex polygon at height y."""
    xs: list[float] = []
    m = len(poly)
    for i in range(m):
        (x0, y0), (x1, y1) = poly[i], poly[(i + 1) % m]
        if (y0 - y) * (y1 - y) < 0.0:
            t = (y - y0) / (y1 - y0)
            xs.append(x0 + t * (x1 - x0))
    if len(xs) < 2:
        return 0.0
    return max(xs) - min(xs)


def cylinder_width(surface: Surface, c: int, at: float = 0.5) -> float:
    """Geometric circumference of cylinder c, sliced at relative height 0 < `at` < 1."""
    if not 0.0 < at < 1.0:
        raise ValueError(f"relative height {at} must lie strictly between 0 and 1")
    y0, y1 = surface.levels()[c - 1], surface.levels()[c]
    y = y0 + at * (y1 - y0)
    up, lo = surface.band_polygons(c)
    # a leaf at height y continues in the lower band at the translated height
    # (band bottoms glue to band bottoms), not at the half-turn reflection
    y_lo = y + 2.0 * surface.center[1] - (y0 + y1)
    return _slice_width(up, y) + _slice_width(lo, y_lo)


def decompose_cylinders(surface: Surface) -> list[Cylinder]:
    out = []
    levels = surface.levels()
    for c in range(1, surface.m + 1):
        width = cylinder_width(surface, c)
        height = levels[c] - levels[c - 1]
        out.append(
            Cylinder(
                index=c,
                width=width,
                height=height,
                modulus=width / height,
                y_interval=(levels[c - 1], levels[c]),
            )
        )
    return out


# ---- side vertices -------------------------------------------------------


def side_vertex(surface: Surface, polygon: str, side: str, k: int) -> Vec:
    """The unsheared level-k vertex on the given side of the given polygon.

    The lower polygon is the half turn of the upper, which swaps the sides.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"unknown side {side!r}")
    if polygon == UPPER:
        return surface.right_point(k) if side == RIGHT else surface.left_point(k)
    if polygon == LOWER:
        return surface.half_turn(surface.left_point(k) if side == RIGHT else surface.right_point(k))
    raise ValueError(f"unknown polygon {polygon!r}")


# ---- vertex generator guide ------------------------------------------------


class GuidePoint(NamedTuple):
    polygon: str  # upper | lower
    side: str  # left | right
    level: int
    x: float
    y: float


def build_vertex_guide(surface: Surface) -> tuple[GuidePoint, ...]:
    """Guide x-positions from the geometric gluing chain, not the closed forms.

    Starting from the base copy, repeatedly glue a half-turned copy along the
    right-side edge S_k and then a straight copy along the mirror edge
    S_{n+2-k}; each double step lands a copy at a purely horizontal offset
    whose level-(k-1) bar marks the guide. The chain for the lower polygon
    runs the same way starting from the lower copy (its level-1 bar lies on
    the x-axis and is fixed). The lower level-0 row comes from the first
    half-turned copy glued in the upper chain.
    """
    n = surface.n
    points: list[GuidePoint] = []

    def emit(polygon: str, level: int, offset: Vec) -> None:
        if abs(offset[1]) > EPS:
            raise AssertionError(f"chain offset not horizontal: {offset}")
        # at level m both sides are the apex: a zero-length bar
        for side in (LEFT, RIGHT):
            p = side_vertex(surface, polygon, side, level)
            points.append(GuidePoint(polygon=polygon, side=side, level=level, x=p[0] + offset[0], y=p[1]))

    # upper chain
    emit(UPPER, 0, (0.0, 0.0))
    offset = (0.0, 0.0)
    for k in range(2, surface.m + 2):
        lower_offset = vadd(offset, surface.offset(LOWER, k))
        if k == 2:
            # S_1 edge of the first glued lower copy: the lower level-0 row
            emit(LOWER, 0, lower_offset)
        offset = vadd(lower_offset, surface.offset(UPPER, n + 2 - k))
        emit(UPPER, k - 1, offset)

    # lower chain
    emit(LOWER, 1, (0.0, 0.0))
    offset = (0.0, 0.0)
    for k in range(3, surface.m + 2):
        upper_offset = vadd(offset, surface.offset(UPPER, k))
        offset = vadd(upper_offset, surface.offset(LOWER, n + 2 - k))
        emit(LOWER, k - 1, offset)

    return tuple(points)


# ---- reassembly check ------------------------------------------------------


class ReassemblyReport(NamedTuple):
    max_residual: float
    passed: bool
    worst: tuple[str, str, int]
    y_preserved: bool


def verify_reassembly(surface: Surface, tol: float = 1e-8) -> ReassemblyReport:
    """Compare every guide x-position against the sheared original vertex."""
    guide = build_vertex_guide(surface)
    M = shear_matrix(surface.n)
    worst = ("", "", -1)
    max_residual = 0.0
    y_ok = True
    for gp in guide:
        v = side_vertex(surface, gp.polygon, gp.side, gp.level)
        image = M.apply(v)
        r = abs(gp.x - image[0])
        if r > max_residual:
            max_residual = r
            worst = (gp.polygon, gp.side, gp.level)
        if gp.y != image[1]:  # shear row (0 1) must keep y bit-identical
            y_ok = False
    return ReassemblyReport(
        max_residual=max_residual,
        passed=max_residual < tol and y_ok,
        worst=worst,
        y_preserved=y_ok,
    )
