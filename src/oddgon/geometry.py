"""Small exact-ish planar geometry kit: 2-vectors, segments, 2x2 matrices.

Everything works on plain float tuples; `Mat2`, `Segment` and `Hit` are
NamedTuples, compared by their fields. The block below is the package's
tolerance policy: every comparison that decides on, inside or at a corner
reads one of its names. A caller passes one, `point_in_polygon`'s eps:
EPS, its default, up to the boundary, or -EPS (`derivation._arrow_chords`)
for the strict interior. The values are absolute; every polygon has unit
sides, whatever n.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

Vec = tuple[float, float]

# ---- tolerance policy --------------------------------------------------------
# Every piece scan (trajectory crossing events, chord labels) asks
# `line_crossings` which pieces a line crosses, and reads no t or u window:
# a chart segment is a full chord and no two pieces cross inside a chart, so
# a line crosses a piece exactly when its s = dx*y - dy*x lies strictly
# inside the piece's span of s, and an s equal to a piece end reads the cell
# above it (spans are half-open, [lo, hi)). The spans, and which pieces are
# parallel to the line within PARALLEL, depend on the direction alone:
# `line_spans` works them out once per direction. The tracer reads the edges
# by s too, with no window: it bisects its chain of exit rows (`flow._chains`).
# Segment parameters, containment, clipped areas, chord windows, guide
# snapping and the periodic return: closer than this counts as on.
EPS = 1e-9
# An exit this close to a polygon vertex (or torus lattice point) is a corner
# hit, and so is a start this close to an end of its start edge. Sides have
# unit length, so the tracer compares the line's s less the exit row's lo
# with CORNER_DELTA * denom from each end of the row's span [0, denom].
CORNER_DELTA = 1e-12
# Within this of CORNER_DELTA, where rounding in a vertex distance (a few
# ulps of coordinates up to 8) may decide either way, the tracer measures it.
CORNER_TIE = 1e-14
# The torus tracer's: a start this close to a lattice line lies on it, and a
# time this short is the start itself.
STEP_MIN = 1e-12
# A denominator this small is zero: parallel ray and segment, a cot pole.
PARALLEL = 1e-15
# A traced segment reads the cell of its s + SNAP: an s this close below a
# piece end reads the cell above it, as an s at the end does. A primed edge's
# two pieces meet at the midpoint of its edge, and the s of the two segments
# that meet at a crossing there differ by rounding (about 1e-15 at n = 25);
# read alike, that crossing counts once. SNAP is far below CORNER_DELTA, so
# elsewhere it moves only lines that pass a piece's vertex end closer than a
# corner hit's distance. A periodic orbit's closing segment within SNAP per
# crossing of crossing 0's line is read on it: the float surface moves a
# closed orbit off its start by under 1e-14 a crossing (2.6e-13 at n = 25).
SNAP = 1e-13


def vadd(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def vsub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def vscale(a: Vec, s: float) -> Vec:
    return (a[0] * s, a[1] * s)


def vlerp(a: Vec, b: Vec, t: float) -> Vec:
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def dot(a: Vec, b: Vec) -> float:
    return a[0] * b[0] + a[1] * b[1]


def cross(a: Vec, b: Vec) -> float:
    return a[0] * b[1] - a[1] * b[0]


def unit(theta: float) -> Vec:
    return (math.cos(theta), math.sin(theta))


class Mat2(NamedTuple):
    """Row-major 2x2 matrix."""

    a: float
    b: float
    c: float
    d: float

    def apply(self, v: Vec) -> Vec:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])



def rotation(theta: float) -> Mat2:
    c, s = math.cos(theta), math.sin(theta)
    return Mat2(c, -s, s, c)


class Segment(NamedTuple):
    p0: Vec
    p1: Vec

    def direction(self) -> Vec:
        return vsub(self.p1, self.p0)

    def midpoint(self) -> Vec:
        return vlerp(self.p0, self.p1, 0.5)

    def point_at(self, t: float) -> Vec:
        return vlerp(self.p0, self.p1, t)

    def translated(self, off: Vec) -> "Segment":
        return Segment(vadd(self.p0, off), vadd(self.p1, off))


class Hit(NamedTuple):
    """Intersection of a parametric line p+t*d with a segment (param u in [0,1])."""

    t: float
    u: float
    point: Vec


def ray_segment_hit(origin: Vec, d: Vec, seg: Segment) -> Optional[Hit]:
    """First-class ray/segment solve; returns None for parallel or out-of-range u.

    u is clamped-tested against [-EPS, 1+EPS] so near-endpoint hits are
    reported; callers decide whether an endpoint hit is a corner event.
    """
    # the arithmetic of cross(d, e), cross(w, e), cross(w, d) and vlerp,
    # written out on local floats; the loop of flow.trace works u and the
    # exit point out alike, so they are the same floats
    ax, ay = seg.p0
    ex, ey = seg.p1[0] - ax, seg.p1[1] - ay
    dx, dy = d
    denom = dx * ey - dy * ex
    if abs(denom) < PARALLEL * max(1.0, math.hypot(ex, ey)):
        return None
    wx, wy = ax - origin[0], ay - origin[1]
    t = (wx * ey - wy * ex) / denom
    u = (wx * dy - wy * dx) / denom
    if u < -EPS or u > 1.0 + EPS:
        return None
    return Hit(t=t, u=u, point=(ax + ex * u, ay + ey * u))


Row = tuple[float, float, float, float, float, object]


def segment_row(seg: Segment, tag) -> Row:
    """Flat scan row (ax, ay, ex, ey, guard, tag) of a segment.

    (ax, ay) is seg.p0, (ex, ey) its direction vector and guard
    ray_segment_hit's parallel bound PARALLEL * max(1, |e|).
    """
    ax, ay = seg.p0
    ex, ey = seg.p1[0] - ax, seg.p1[1] - ay
    return (ax, ay, ex, ey, PARALLEL * max(1.0, math.hypot(ex, ey)), tag)


Span = tuple[float, float, float, float, float, float, float, float, Row]


def line_spans(d: Vec, rows: Sequence[Row]) -> list[Span]:
    """The spans in s = dx*y - dy*x of the rows, for lines of direction d, in row order.

    Along a row s runs from s0 = dx*ay - dy*ax to s0 + denom, denom = dx*ey -
    dy*ex; its span (lo, hi, s0, denom, ax, ay, ex, ey, row) holds the ends
    lo <= hi of that run. Rows within the PARALLEL guard are dropped. Work
    out the spans once per direction and give them to `line_crossings` for
    every line of it.
    """
    dx, dy = d
    spans = []
    for row in rows:
        ax, ay, ex, ey, guard, _ = row
        denom = dx * ey - dy * ex
        if -guard < denom < guard:
            continue
        s0 = dx * ay - dy * ax
        s1 = s0 + denom
        lo, hi = (s0, s1) if denom > 0.0 else (s1, s0)
        spans.append((lo, hi, s0, denom, ax, ay, ex, ey, row))
    return spans


def line_crossings(d: Vec, s: float, spans: Sequence[Span]) -> list[Row]:
    """The rows a line of direction d and value s = dx*y - dy*x crosses, in order along d.

    `spans` are `line_spans(d, rows)`. The line crosses a row when s lies in
    its span, half-open as the tolerance policy above says, at the row's
    parameter u = (s - s0) / denom, and the crossings are sorted by their
    position along d; the sort is stable, so rows at one position keep their
    order.
    """
    dx, dy = d
    hits = []
    for lo, hi, s0, denom, ax, ay, ex, ey, row in spans:
        if lo <= s < hi:
            u = (s - s0) / denom
            hits.append((dx * (ax + ex * u) + dy * (ay + ey * u), row))
    hits.sort(key=itemgetter(0))
    return [row for _, row in hits]


def clip_polygon_halfplane(poly: Sequence[Vec], n: Vec, c: float) -> list[Vec]:
    """Sutherland-Hodgman clip of a convex polygon against dot(n, x) >= c."""
    out: list[Vec] = []
    m = len(poly)
    if m == 0:
        return out
    for i in range(m):
        p = poly[i]
        q = poly[(i + 1) % m]
        fp = dot(n, p) - c
        fq = dot(n, q) - c
        if fp >= 0.0:
            out.append(p)
        if (fp > 0.0 and fq < 0.0) or (fp < 0.0 and fq > 0.0):
            t = fp / (fp - fq)
            out.append(vlerp(p, q, t))
    return out


def polygon_area(poly: Sequence[Vec]) -> float:
    s = 0.0
    m = len(poly)
    for i in range(m):
        s += cross(poly[i], poly[(i + 1) % m])
    return 0.5 * s


def polygon_centroid(poly: Sequence[Vec]) -> Vec:
    """Area centroid of a simple polygon; its area must be nonzero."""
    a = polygon_area(poly)
    cx = cy = 0.0
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        w = cross(p, q)
        cx += (p[0] + q[0]) * w
        cy += (p[1] + q[1]) * w
    return (cx / (6.0 * a), cy / (6.0 * a))


def point_in_polygon(p: Vec, poly: Sequence[Vec], eps: float = EPS) -> bool:
    """Containment in a convex ccw polygon, boundary-inclusive up to eps.

    A negative eps (-EPS) asks for the strict interior.
    """
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        if cross(vsub(b, a), vsub(p, a)) < -eps:
            return False
    return True


def round_sig(x: float, digits: int = 12) -> float:
    """Round to `digits` significant decimal digits (JSON stability)."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0 if x == 0.0 else x
    return float(f"{x:.{digits}g}")
