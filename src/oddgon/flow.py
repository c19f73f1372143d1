"""Linear trajectories on the double n-gon: tracing, normalization, derivation.

The tracer walks a ray chart-to-chart; identifications are translations, so
the direction never changes. Direction normalization into [0, pi/n) is done
by an honest point map: rotations by even multiples of pi/n act about the
polygon centers, and the odd half-turn swaps the two polygons, so every
multiple of pi/n is realized by a piecewise isometry. Its edge permutation
has a closed form, sigma(k) - 1 = (k - 1) - steps * (n + 1)/2 (mod n): each
step turns edge directions by -pi/n = -(n + 1)/2 * 2pi/n + pi, and the pi is
the half turn that swaps the polygons, whose edges point opposite ways.
`tests/test_flow.py::test_edge_permutation_matches_arithmetic` pins it
against the midpoint matching of `rotation_isometry`.

A traced trajectory is a NamedTuple that `trace` builds once, when its walk
ends: three columns, each crossing's edge index and the two coordinates of
its entry point, plus the polygon crossing 0 enters. Every gluing joins the
two polygons, so crossing i enters that one when i is even and the other
when i is odd, and a letter is a function of its index. Its `Crossing`
records are a view, built on each read. It owns its segments
(`Trajectory.segment`, the one place a segment's end is carried back across
its gluing). Both tracers stop at the first return, so a periodic
trajectory is one period: `_period` and `_period_word`, which `Trajectory`
and `torus.TorusTrajectory` bind as properties, read it off the letters.
`crossing_events` is the one scan of a traced trajectory against edge
pieces: per segment, its cell, the tuple of untimed (kind, name) tokens of
the pieces it crosses, one object shared by every segment in the cell; the
original crossings are the trajectory's own `indices`. The geometric
derivation feeds it the primed edges carried onto the trajectory's charts,
kept by the surface per rotation, so a trajectory is traced once in any
direction. It joins its word from the names as it reads them and builds no
record per hit: it keeps the cells, and its `primed_hits` is a view, built
on each read. Every piece scan asks `geometry.line_crossings` which pieces a
line crosses; the event scan sorts the pieces' ends in s = dx*y - dy*x and
works out their spans (`geometry.line_spans`) once per polygon and
direction, and each segment does one bisect of its s and appends its cell,
worked out once per cell. The tracer walks on s alike, as an interval
exchange: s is constant along a chart segment, and a ray leaves a convex
polygon through the one edge facing its direction whose span of s holds its
own. So each step bisects its polygon's chain of facing edges (`_chains`,
worked out once per direction), compares s with the ends of that one row's
span for a corner, and moves the exit by the row's `Surface.offset`, which
shifts s by the offset's cross product with the direction. Both walk a
trajectory in one flat loop that builds no object per crossing: the tracer
appends an index and two floats to the columns, the scan reads them back.
Both read a segment's s from its entry point by the same expression.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain, cycle, islice, zip_longest
from typing import Callable, NamedTuple, Optional, Sequence

from .geometry import (
    CORNER_DELTA,
    CORNER_TIE,
    EPS,
    SNAP,
    Segment,
    Vec,
    line_crossings,
    line_spans,
    ray_segment_hit,  # perfbench/tracing.py wraps this name to count ray tests
    rotation,
    round_sig,
    unit,
    vadd,
    vsub,
)
from .surface import (
    LOWER,
    PRIMED,
    UPPER,
    Edge,
    Surface,
    letter_for_index,
    other_polygon,
)

# The most crossings one trace may be asked for: `trace` rejects more with a
# ValueError, and the CLI's `--crossings`, the torus tracer's included, with
# exit 2. It keeps a trace and its derivation, the torus's too, under the
# 1 GB address space that CI's README step runs under. Measured (CPython
# 3.11, 64-bit Linux, whole process `ru_maxrss`): an open n = 9 trace plus
# `derive_geometric` peaks at 115 MB at 10**6 crossings and 217 MB at
# 2 * 10**6, about 101 bytes a crossing, which alone would allow about
# 9 * 10**6; an open torus trace plus `torus_derive_geometric` keeps two
# columns, a time and a letter a crossing, and peaks at 87 MB at 10**6 and
# 160 MB at 2 * 10**6, about 73 bytes a crossing. The CLI writes its JSON as
# it is encoded: at 2 * 10**6 crossings `torus trace` peaks at 109 MB and
# `trace` at n = 9 at 201 MB. The cap was set when the torus kept a record
# per crossing (about 400 bytes, 757 MB at 2 * 10**6); raising it is left to
# a change that measures 10**7 crossings. `render` keeps about 1 KB a
# crossing and has its own lower cap, `render.MAX_DRAWN_CROSSINGS`.
MAX_CROSSINGS = 2 * 10**6


class CornerHit(Exception):
    """Raised when a ray passes within CORNER_DELTA of a polygon vertex.

    `theta`, `start_polygon` and `start_point` are the traced ray's, so the
    hit can be reproduced.
    """

    def __init__(self, polygon: str, point: Vec, crossings_done: int, theta: float, start_polygon: str, start_point: Vec):
        self.polygon = polygon
        self.point = point
        self.crossings_done = crossings_done
        self.theta = theta
        self.start_polygon = start_polygon
        self.start_point = start_point
        super().__init__(f"trajectory within corner tolerance at {point} in {polygon} after {crossings_done} crossings")


class Crossing(NamedTuple):
    index: int  # original edge index 1..n
    letter: str
    polygon: str  # polygon entered at this crossing
    point: Vec  # entry point, in the entered polygon's chart


def _period(traj) -> Optional[int]:
    """A `Trajectory`'s or a `torus.TorusTrajectory`'s number of letters if periodic, else None."""
    return len(traj.letters) if traj.periodic else None


def _period_word(traj) -> Optional[str]:
    """Its letters if periodic, else None."""
    return traj.letters if traj.periodic else None


class Trajectory(NamedTuple):
    """A traced trajectory: crossing i is edge pair `indices[i]`, entered at
    (`xs[i]`, `ys[i]`) in the chart of `first_polygon` when i is even and of
    the other polygon when i is odd (`polygon(i)`)."""

    start_polygon: str
    start_point: Vec
    theta: float
    first_polygon: str  # polygon entered at crossing 0
    indices: list[int]  # original edge index 1..n of each crossing
    xs: list[float]  # entry point of each crossing, in its polygon's chart
    ys: list[float]
    start_edge: int
    periodic: bool = False
    start_param: Optional[float] = None

    period = property(_period)
    period_word = property(_period_word)

    def polygon(self, i: int) -> str:
        """The polygon crossing i enters."""
        return self.first_polygon if i % 2 == 0 else other_polygon(self.first_polygon)

    @property
    def letters(self) -> str:
        return "".join(map(letter_for_index, self.indices))

    @property
    def crossings(self) -> list[Crossing]:
        """The crossings as `Crossing` records, built on each read; the library reads the columns."""
        return [
            Crossing(k, letter_for_index(k), self.polygon(i), (x, y))
            for i, (k, x, y) in enumerate(zip(self.indices, self.xs, self.ys))
        ]

    def segment(self, i: int, surface: Surface) -> tuple[str, Vec, Vec]:
        """Chart segment i, (polygon, from, to): from crossing i to crossing
        (i + 1) % len(indices), whose point is carried back across the
        identification it entered by. There are len(indices) - 1 segments,
        and one more, closing on crossing 0, for a periodic orbit."""
        j = (i + 1) % len(self.indices)
        end = vadd((self.xs[j], self.ys[j]), surface.offset(self.polygon(j), self.indices[j]))
        return self.polygon(i), (self.xs[i], self.ys[i]), end


def _chains(surface: Surface, d: Vec) -> dict[str, tuple[list[float], list[tuple], str]]:
    """Per polygon, its chain of the edges facing d, the bounds in s = dx*y -
    dy*x between them, and the polygon a ray leaving it enters.

    A row (denom, ax, ay, ex, ey, ox, oy, k) is S_k from (ax, ay)
    along (ex, ey), denom = dx*ey - dy*ex at least the parallel guard, with
    (ox, oy) = `surface.offset(polygon, k)`, which carries a point of S_k
    into the other chart. Along the row s rises from lo = dx*ay - dy*ax by
    denom. Rows are sorted by lo, and row i takes s from bounds[i] to
    bounds[i + 1], the lo of the next row; the first and last rows go on to
    -inf and inf.

    The facing edges of a convex polygon run from its lowest vertex in s to
    its highest, so their spans tile the polygon's: a ray leaves by the row
    whose span holds its s.
    """
    dx, dy = d
    chains = {}
    for polygon, rows in surface.exit_rows.items():
        chain = sorted(
            (dx * ay - dy * ax, (denom, ax, ay, ex, ey, *surface.offset(polygon, k), k))
            for ax, ay, ex, ey, guard, k in rows
            for denom in (dx * ey - dy * ex,)
            if denom >= guard
        )
        bounds = [-math.inf] + [lo for lo, _ in chain[1:]] + [math.inf]
        chains[polygon] = bounds, [row for _, row in chain], other_polygon(polygon)
    return chains


def _at_corner(side: Segment, x: float, y: float) -> bool:
    """Whether (x, y) lies within CORNER_DELTA of an end of `side`."""
    return min(math.dist((x, y), side.p0), math.dist((x, y), side.p1)) < CORNER_DELTA


def trace(
    surface: Surface,
    start: tuple[str, Vec],
    theta: float,
    max_crossings: int = 100,
    *,
    start_edge: int,
    start_param: Optional[float] = None,
) -> Trajectory:
    """Cutting sequence of a ray from `start`, a (polygon, chart point) on edge pair `start_edge`.

    That edge is emitted as crossing 0 and tracing continues into the
    polygon the direction flows into. A start within CORNER_DELTA of an end
    of its edge is a corner hit after 0 crossings, as an exit there is.

    Each step reads s = dx*y - dy*x at its entry point and bisects its
    polygon's chain for the exit row (`_chains`). The line's s less the
    row's lo runs from 0 to denom along the row: within CORNER_DELTA * denom
    of either end, the exit lies within CORNER_DELTA of a vertex of that unit
    side, a corner hit raised with the exit point held to the row. Within
    CORNER_TIE * denom of that threshold, rounding may decide it either way,
    and the exit's distance from the vertex decides instead.
    Otherwise the exit lies at u = (s - lo) / denom along the row, and the
    next entry point is that exit moved by the row's offset. Periodicity:
    first return to the start edge pair and polygon with s within EPS *
    denom of crossing 0's, that is within EPS along the edge.
    """
    if not 1 <= start_edge <= surface.n:
        raise ValueError(f"edge index {start_edge} out of range for n={surface.n}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be a finite direction in radians, got {theta}")
    if not 1 <= max_crossings <= MAX_CROSSINGS:
        raise ValueError(f"max_crossings must be from 1 to MAX_CROSSINGS = {MAX_CROSSINGS}, got {max_crossings}")
    d = unit(theta)
    dx, dy = d
    chains = _chains(surface, d)
    polygon = surface.entering_polygon(start_edge, theta)
    x, y = start[1]
    if start[0] != UPPER:  # onto the upper representative
        x, y = vadd((x, y), surface.offset(LOWER, start_edge))
    at_corner = _at_corner(surface.edge_segs[UPPER][start_edge - 1], x, y)
    if polygon == LOWER:
        x, y = vadd((x, y), surface.offset(UPPER, start_edge))
    if at_corner:
        raise CornerHit(polygon, (x, y), 0, theta, start[0], start[1])
    indices, xs, ys = [start_edge], [x], [y]

    # s - lo is read relative to the row's vertex, not as the difference of
    # s and lo: their rounding grows with the coordinates (up to 8 at n =
    # 25), and along an edge nearly parallel to d, u magnifies it by 1/denom
    first_polygon, s0 = polygon, dx * y - dy * x
    s, near, far = s0, CORNER_DELTA + CORNER_TIE, CORNER_DELTA - CORNER_TIE
    periodic = False
    add_index, add_x, add_y = indices.append, xs.append, ys.append
    for _ in range(max_crossings - 1):  # one crossing per step after crossing 0
        bounds, rows, entered = chains[polygon]
        denom, ax, ay, ex, ey, ox, oy, k = rows[bisect_right(bounds, s) - 1]
        v = (ax - x) * dy - (ay - y) * dx  # s - lo
        u = v / denom
        if (v < near * denom or denom - v < near * denom) and (
            min(v, denom - v) < far * denom or _at_corner(surface.edge_segs[polygon][k - 1], ax + ex * u, ay + ey * u)
        ):
            # at the vertex for a line past the row's end, or along a row so
            # nearly parallel to d that rounding puts u far past it
            u = min(max(u, 0.0), 1.0)
            raise CornerHit(polygon, (ax + ex * u, ay + ey * u), len(indices), theta, start[0], start[1])
        polygon, x, y = entered, ax + ex * u + ox, ay + ey * u + oy
        s = dx * y - dy * x
        if k == start_edge and polygon == first_polygon and abs(s - s0) < EPS * denom:
            periodic = True
            break
        add_index(k)
        add_x(x)
        add_y(y)
    return Trajectory(start[0], start[1], theta, first_polygon, indices, xs, ys, start_edge, periodic, start_param)


def trace_from_edge(
    surface: Surface,
    edge_index: int,
    param: float,
    theta: float,
    max_crossings: int = 100,
) -> Trajectory:
    """Trace from a point given by its parameter on the upper representative."""
    if not 0.0 < param < 1.0:
        raise ValueError("edge parameter must be strictly inside (0, 1)")
    p = surface.edge_seg(UPPER, edge_index).point_at(param)
    return trace(surface, (UPPER, p), theta, max_crossings=max_crossings, start_edge=edge_index, start_param=param)


# ---- direction normalization ----------------------------------------------


class NormalizedDirection(NamedTuple):
    theta: float
    steps: int  # rotation by -steps * pi/n was applied
    letter_map: dict[str, str]  # original letter -> normalized letter

    def apply(self, word: str) -> str:
        return word.translate(str.maketrans(self.letter_map))

    def invert(self, word: str) -> str:
        return word.translate(str.maketrans({v: k for k, v in self.letter_map.items()}))


def rotation_isometry(surface: Surface, steps: int) -> Callable[[str, Vec], tuple[str, Vec]]:
    """Point map of the surface isometry with derivative R(-steps * pi/n).

    Even steps rotate each polygon about its own center; an odd step adds the
    polygon-swapping half turn.
    """
    n = surface.n
    j = steps % (2 * n)
    odd = j % 2 == 1
    e = (j - n) % (2 * n) if odd else j
    R = rotation(-e * math.pi / n)
    centers = {
        UPPER: (
            sum(p[0] for p in surface.upper) / n,
            sum(p[1] for p in surface.upper) / n,
        ),
        LOWER: (
            sum(p[0] for p in surface.lower) / n,
            sum(p[1] for p in surface.lower) / n,
        ),
    }

    def apply(polygon: str, point: Vec) -> tuple[str, Vec]:
        O = centers[polygon]
        q = vadd(O, R.apply(vsub(point, O)))
        if odd:
            return other_polygon(polygon), surface.half_turn(q)
        return polygon, q

    return apply


def edge_permutation(n: int, steps: int) -> dict[int, int]:
    """Edge-index permutation induced by rotation_isometry(surface, steps) on the double n-gon.

    Closed form: sigma(k) - 1 = (k - 1) - steps * (n + 1)/2 (mod n); see the
    module docstring. `tests/test_flow.py::test_edge_permutation_matches_arithmetic`
    checks it against the isometry's midpoint matching.
    """
    return {k: 1 + (k - 1 - steps * (n + 1) // 2) % n for k in range(1, n + 1)}


def normalize_direction(surface: Surface, theta: float) -> NormalizedDirection:
    """Rotate theta into [0, pi/n) and report the induced letter permutation."""
    sector = surface.sector
    th = theta % (2.0 * math.pi)
    steps = int(math.floor(th / sector))
    th_norm = th - steps * sector
    if th_norm >= sector:  # guard the floating boundary
        steps += 1
        th_norm -= sector
    if th_norm < 0.0:
        th_norm = 0.0
    steps %= 2 * surface.n  # theta % 2pi may round up to 2pi itself
    letter_map = {surface.letters[k - 1]: surface.letters[v - 1] for k, v in edge_permutation(surface.n, steps).items()}
    return NormalizedDirection(theta=th_norm, steps=steps, letter_map=letter_map)


# ---- geometric derivation ---------------------------------------------------


class GeometricDerivation(NamedTuple):
    """A derived word, whether it is cyclic, the direction and rotation steps
    of its normalization, and what its `primed_hits` view reads: the
    trajectory's indices, its segments' cells (`crossing_events`), shared
    tuples, and each edge index's normalized node letter, None for others."""

    letters: str
    cyclic: bool
    normalized_theta: float
    rotation_steps: int
    indices: Sequence[int]
    cells: Sequence[tuple[tuple[str, str], ...]]
    node_of: Sequence[Optional[str]]

    @property
    def primed_hits(self) -> tuple[tuple[int, str], ...]:
        """(i, derived letter) per letter of the normalized word: crossing i's
        node letter or a primed hit of segment i. A view, built on each read;
        the derivation itself builds no record per hit."""
        hits = []
        add = hits.append
        for segment, (k, cell) in enumerate(zip_longest(self.indices, self.cells, fillvalue=())):
            name = self.node_of[k]
            if name is not None:
                add((segment, name))
            for _, name in cell:
                add((segment, name))
        return tuple(hits)


def crossing_events(
    surface: Surface, traj: Trajectory, edges: dict[str, Sequence[Edge]]
) -> list[tuple[tuple[str, str], ...]]:
    """The cells of a traced trajectory's segments, in order along it: one per segment.

    Segment i, `traj.segment(i, surface)` in `polygon = traj.polygon(i)`,
    gets the tuple of one (kind, name) token per piece `e` of
    `edges[polygon]` it crosses, in line order, tagged as `e.row` is: kind
    `e.kind` and name `e.label` stripped of its prime, so a primed piece is
    named by the letter it is the image of. The original crossings are not
    repeated here: segment i starts at crossing i, `traj.indices[i]`. An
    open trajectory has one segment fewer than crossings, its last crossing
    starting none; a periodic orbit's closing segment is included.

    Every segment is a full chord of its polygon, and no two pieces cross
    inside one, so which pieces a segment crosses, and in what order, is
    fixed between consecutive piece ends in s = dx*y - dy*x. Per polygon the
    piece ends are sorted, and the pieces' spans worked out (`line_spans`),
    once per trajectory; the ends include those of the pieces parallel to
    the line within PARALLEL, which `line_spans` drops. A segment
    does one bisect of its s + SNAP and gets its cell, the tags of
    `line_crossings` over those spans at the cell's midpoint, worked out
    once, when a segment first reads the cell; every segment in the cell
    gets that one tuple object. A segment's s is read at its entry point,
    crossing i's, off the trajectory's columns by the expression `trace`
    bisects its chain with,
    so both read the same float; segments alternate polygon, so the scan
    reads the two polygons' tables in turn and builds no `Crossing`. A
    periodic orbit's closing segment is read on the line of its end,
    crossing 0 carried back by `traj.segment`, if within SNAP per crossing
    of it, the float surface's rounding, so a piece ending at crossing 0
    counts once; an orbit that only nearly closes, on its own.
    """
    d = unit(traj.theta)
    dx, dy = d
    tables = {}
    for polygon, pieces in edges.items():
        rows, ends = [e.row for e in pieces], set()
        for ax, ay, ex, ey, _, _ in rows:
            s0 = dx * ay - dy * ax
            ends.update((s0, s0 + (dx * ey - dy * ex)))  # the span ends, parallel rows' included
        ends = sorted(ends)
        # cell i holds the s in [ends[i - 1], ends[i]), filled when a segment
        # first reads it; the first and last cross nothing
        tables[polygon] = line_spans(d, rows), ends, [()] + [None] * (len(ends) - 1) + [()]
    read: list[tuple[tuple[str, str], ...]] = []
    append = read.append
    m = len(traj.indices)
    # each segment's table and start, the columns read in place: an open
    # trajectory's last crossing starts no segment
    starts = islice(zip(cycle([tables[traj.polygon(0)], tables[traj.polygon(1)]]), traj.xs, traj.ys), m - 1)
    if traj.periodic:
        # the closing segment ends at crossing 0, carried into its chart: it
        # is read on that point's line if its own lies within SNAP a crossing
        _, (lx, ly), (qx, qy) = traj.segment(m - 1, surface)
        if abs((dx * qy - dy * qx) - (dx * ly - dy * lx)) <= m * SNAP:
            lx, ly = qx, qy
        starts = chain(starts, [(tables[traj.polygon(m - 1)], lx, ly)])
    for (spans, ends, cells), x, y in starts:
        i = bisect_right(ends, dx * y - dy * x + SNAP)
        cell = cells[i]
        if cell is None:
            cell = cells[i] = tuple(row[5] for row in line_crossings(d, 0.5 * (ends[i - 1] + ends[i]), spans))
        append(cell)
    return read


def carried_primed(surface: Surface, steps: int) -> dict[str, tuple[Edge, ...]]:
    """The standard primed pieces moved by rotation_isometry(surface, steps), per target
    polygon: images of upper pieces before lower ones, each in primed_for order.

    The isometry depends on steps mod 2n alone, so the surface keeps each
    set (`Surface.carried`), built on its first use, and the pieces keep
    their `Edge.row`: a derivation in a direction already derived in moves
    no piece and works out no row.
    """
    j = steps % (2 * surface.n)
    primed = surface.carried.get(j)
    if primed is None:
        move = rotation_isometry(surface, j)
        carried: dict[str, list[Edge]] = {UPPER: [], LOWER: []}
        for polygon in (UPPER, LOWER):
            for piece in surface.primed_for(polygon):
                target, p0 = move(polygon, piece.seg.p0)
                _, p1 = move(polygon, piece.seg.p1)
                carried[target].append(Edge(piece.label, PRIMED, target, piece.index, Segment(p0, p1)))
        primed = surface.carried[j] = {polygon: tuple(pieces) for polygon, pieces in carried.items()}
    return primed


def derive_geometric(surface: Surface, traj: Trajectory) -> GeometricDerivation:
    """Derived cutting sequence: the primed edges crossed by the trajectory.

    The standard primed pieces are carried onto the trajectory's charts by
    the inverse of the isometry that normalizes its direction (the identity
    in the sector); the two direction-fixed ones fire at the crossings whose
    normalized letter is a node letter. Each crossing gives its node letter,
    if any, then the names of the cell of the segment it starts
    (`crossing_events`), appended to one list of names and joined. The
    normalized word is mapped back through the inverse letter permutation.
    The result keeps the cells, the trajectory's indices and the node
    letters, and reads its `primed_hits` off them each time it is asked. Nothing
    is traced again, so CornerHit cannot arise here.
    """
    norm = normalize_direction(surface, traj.theta)
    # edge index -> the node letter it normalizes to, None for the others
    node_of = [None] + [
        name if name in surface.node_letters else None for name in map(norm.letter_map.get, surface.letters)
    ]
    names = []
    add = names.append
    cells = crossing_events(surface, traj, carried_primed(surface, -norm.steps))
    # an open trajectory's last crossing starts no segment: it reads no cell
    for k, cell in zip_longest(traj.indices, cells, fillvalue=()):
        name = node_of[k]
        if name is not None:
            add(name)
        for _, name in cell:
            add(name)
    return GeometricDerivation(
        norm.invert("".join(names)), traj.periodic, norm.theta, norm.steps, traj.indices, cells, node_of
    )


def trajectory_json(traj: Trajectory) -> dict:
    """JSON-ready dict of a trace: its start, direction and letters, which are one period when periodic."""
    start: dict = {
        "polygon": traj.start_polygon,
        "point": [round_sig(traj.start_point[0]), round_sig(traj.start_point[1])],
    }
    start["edge"] = f"S{traj.start_edge}"
    start["t"] = round_sig(traj.start_param) if traj.start_param is not None else None
    return {
        "start": start,
        "theta": round_sig(traj.theta),
        "letters": list(traj.letters),
        "periodic": traj.periodic,
        "period": traj.period,
    }
