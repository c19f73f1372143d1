"""Double regular odd n-gon translation surfaces.

The surface is two regular n-gons (n odd): an upper copy with bottom edge
from (0,0) to (1,0), and a lower copy obtained by a half turn about the
midpoint of the upper polygon's last edge. Opposite (parallel) edges are
identified by translation. A `Surface` owns its alphabet (`letters`), its
two direction-fixed ("node") edges (`node_indices`, `node_letters`) and the
signed translation of every gluing out of either chart (`offset`), and
every edge piece (`Edge`, a plain class) owns its flat scan row
(`Edge.row`), worked out when the piece is made. On top of the n original
edge pairs the model carries:

  * auxiliary diagonals (horizontal and pi/n-slanted chords, n-3 per
    polygon) that stratify each polygon into cylinder bands, and
  * primed edges: the images of the original edges under the orientation-
    reversing shear generator, realized as cylinder-parallelogram diagonals
    split into per-polygon pieces (none for the two node edges).
"""
from __future__ import annotations

import math
from functools import cached_property

from .geometry import (
    Mat2,
    Row,
    Segment,
    Vec,
    round_sig,
    segment_row,
    unit,
    vadd,
    vscale,
    vsub,
)

UPPER = "upper"
LOWER = "lower"

ORIGINAL = "original"
AUXILIARY = "auxiliary"
PRIMED = "primed"


def other_polygon(polygon: str) -> str:
    return LOWER if polygon == UPPER else UPPER


def letter_for_index(k: int) -> str:
    """Original edge letter: 1 -> 'A', 2 -> 'B', ..."""
    if not 1 <= k <= 26:
        raise ValueError(f"edge index {k} out of letter range")
    return chr(ord("A") + k - 1)


def check_n(n: int) -> None:
    if not 5 <= n <= 25 or n % 2 == 0:
        raise ValueError(f"n must be an odd integer from 5 to 25 (edges are lettered A..Z), got {n}")


def index_for_letter(label: str) -> int:
    """Accepts 'C', 'S3' or '3'."""
    s = label.strip()
    if s.upper().startswith("S") and s[1:].isdigit():
        return int(s[1:])
    if s.isdigit():
        return int(s)
    if len(s) == 1 and s.isalpha():
        return ord(s.upper()) - ord("A") + 1
    raise ValueError(f"cannot parse edge label {label!r}")


class Edge:
    """An edge piece of kind original, auxiliary or primed, in polygon upper or
    lower. `row`, stored once, is its `segment_row` tagged (kind, label without
    its prime): a primed piece is named by the letter it is the image of."""

    def __init__(self, label: str, kind: str, polygon: str, index: int, seg: Segment):
        self.label, self.kind, self.polygon, self.index, self.seg = label, kind, polygon, index, seg
        self.row: Row = segment_row(seg, (kind, label.rstrip("'")))


def shear_matrix(n: int) -> Mat2:
    """Parabolic multi-twist: one full Dehn twist in every horizontal cylinder."""
    return Mat2(1.0, 2.0 / math.tan(math.pi / n), 0.0, 1.0)


def flip_shear_matrix(n: int) -> Mat2:
    """Orientation-reversing generator: flip x, then shear.

    Self-inverse; fixes the directions 0 and pi/n and swaps the sector
    (0, pi/n) with (pi/n, pi).
    """
    return Mat2(-1.0, 2.0 / math.tan(math.pi / n), 0.0, 1.0)


class Surface:
    """Geometric model of one double odd n-gon, with derived edge systems."""

    def __init__(self, n: int):
        check_n(n)
        self.n = n
        self.alpha = 2.0 * math.pi / n
        self.sector = math.pi / n
        self.m = (n - 1) // 2
        # letters[k - 1] names S_k; the node edges S_1, S_{(n+3)/2} keep their direction under the flip-shear
        self.letters: tuple[str, ...] = tuple(letter_for_index(k) for k in range(1, n + 1))
        self.node_indices: tuple[int, int] = (1, (n + 3) // 2)
        self.node_letters: frozenset[str] = frozenset(self.letters[k - 1] for k in self.node_indices)

        # Upper polygon, ccw; edge S_k runs from vertex k-1 to vertex k and
        # points in direction (k-1)*alpha.
        verts: list[Vec] = [(0.0, 0.0)]
        for k in range(1, n):
            verts.append(vadd(verts[-1], unit((k - 1) * self.alpha)))
        # Tuples: the edge tables below are built from them once.
        self.upper: tuple[Vec, ...] = tuple(verts)
        # Half-turn center: midpoint of S_n (from vertex n-1 to vertex 0).
        self.center: Vec = vscale(vadd(verts[n - 1], verts[0]), 0.5)
        self.lower: tuple[Vec, ...] = tuple(self.half_turn(p) for p in verts)

        # Per-polygon edge tables, read by the tracer at every step.
        # edge_segs[polygon][k - 1] is S_k; _offsets[polygon][k - 1] is
        # `offset(polygon, k)`; exit_rows[polygon] holds S_k's `segment_row`, tagged k.
        self.edge_segs: dict[str, tuple[Segment, ...]] = {
            polygon: tuple(Segment(vs[k - 1], vs[k % n]) for k in range(1, n + 1))
            for polygon, vs in ((UPPER, self.upper), (LOWER, self.lower))
        }
        pairs = zip(self.edge_segs[UPPER], self.edge_segs[LOWER])
        to_upper = tuple(vsub(up.midpoint(), lo.midpoint()) for up, lo in pairs)
        self._offsets: dict[str, tuple[Vec, ...]] = {LOWER: to_upper, UPPER: tuple((-x, -y) for x, y in to_upper)}
        self.exit_rows: dict[str, tuple[Row, ...]] = {
            polygon: tuple(segment_row(seg, k) for k, seg in enumerate(segs, start=1))
            for polygon, segs in self.edge_segs.items()
        }
        # steps mod 2n -> `flow.carried_primed(self, steps)`, each entry built on its first use
        self.carried: dict[int, dict[str, tuple[Edge, ...]]] = {}

    # ---- basic geometry -------------------------------------------------

    def half_turn(self, p: Vec) -> Vec:
        return (2.0 * self.center[0] - p[0], 2.0 * self.center[1] - p[1])

    def vertices(self, polygon: str) -> tuple[Vec, ...]:
        return self.upper if polygon == UPPER else self.lower

    def edge_seg(self, polygon: str, k: int) -> Segment:
        return self.edge_segs[polygon][(k - 1) % self.n]

    def offset(self, polygon: str, k: int) -> Vec:
        """The translation that carries a point of S_k out of `polygon`'s chart
        into the other one; the two polygons' offsets are exact negatives."""
        return self._offsets[polygon][(k - 1) % self.n]

    def entering_polygon(self, k: int, theta: float) -> str:
        """Polygon entered when edge pair k is crossed in direction theta."""
        d = unit(theta)
        e = self.edge_seg(UPPER, k).direction()
        outward = (e[1], -e[0])  # ccw polygon: outward normal of the upper copy
        exits_upper = d[0] * outward[0] + d[1] * outward[1] > 0.0
        return LOWER if exits_upper else UPPER

    # ---- side points and levels ----------------------------------------

    def right_point(self, j: int) -> Vec:
        """j-th vertex up the right side of the upper polygon (0 = (1,0))."""
        if not 0 <= j <= self.m:
            raise ValueError("level out of range")
        return self.upper[1 + j]

    def left_point(self, j: int) -> Vec:
        """j-th vertex up the left side of the upper polygon (0 = (0,0))."""
        if not 0 <= j <= self.m:
            raise ValueError("level out of range")
        return self.upper[(self.n - j) % self.n]

    def apex(self) -> Vec:
        return self.upper[self.m + 1]

    def levels(self) -> list[float]:
        """Heights y_0=0 < y_1 < ... < y_m of the upper polygon's vertex rows."""
        return [self.right_point(j)[1] for j in range(self.m + 1)]

    def band_polygons(self, c: int) -> tuple[list[Vec], list[Vec]]:
        """Cylinder band c (1..m) as (upper piece, lower piece), both ccw.

        The upper piece is the slab of the upper polygon between levels c-1
        and c; the top band degenerates to the apex triangle.
        """
        if not 1 <= c <= self.m:
            raise ValueError("cylinder index out of range")
        if c == self.m:
            up = [self.left_point(c - 1), self.right_point(c - 1), self.apex()]
        else:
            up = [
                self.left_point(c - 1),
                self.right_point(c - 1),
                self.right_point(c),
                self.left_point(c),
            ]
        lo = [self.half_turn(p) for p in up]  # rotation by pi keeps ccw order
        return up, lo

    # ---- auxiliary edges -------------------------------------------------

    @cached_property
    def aux_edges(self) -> list[Edge]:
        """All 2(n-3) auxiliary diagonals; per polygon, index i in 1..n-3.

        Odd i = 2j+1: slanted chord (direction pi/n) from left level j to
        right level j+1. Even i = 2j: horizontal chord at level j.
        """
        out: list[Edge] = []
        for polygon in (UPPER, LOWER):
            for i in range(1, self.n - 2):
                if i % 2 == 1:
                    j = (i - 1) // 2
                    seg = Segment(self.left_point(j), self.right_point(j + 1))
                else:
                    j = i // 2
                    seg = Segment(self.left_point(j), self.right_point(j))
                if polygon == LOWER:
                    seg = Segment(self.half_turn(seg.p0), self.half_turn(seg.p1))
                label = ("u" if polygon == UPPER else "l") + str(i)
                out.append(Edge(label=label, kind=AUXILIARY, polygon=polygon, index=i, seg=seg))
        return out

    def aux_for(self, polygon: str) -> list[Edge]:
        return [e for e in self.aux_edges if e.polygon == polygon]

    # ---- primed edges ----------------------------------------------------

    @cached_property
    def primed_edges(self) -> list[Edge]:
        """The 2(n-2) primed pieces, by index, each upper then lower. A node
        edge has none: its primed edge is the original pair itself, crossed
        exactly when that pair is."""
        return [piece for k in range(1, self.n + 1) if k not in self.node_indices for piece in self._primed_edge(k)]

    def _primed_edge(self, k: int) -> tuple[Edge, Edge]:
        # The primed edge is the flip-shear image v of the side vector, centered
        # on the midpoint of S_k (the center of the band parallelogram glued
        # along the upper S_k). For a side of direction a, v has outward
        # component 2 sin(a) sin(a - pi/n) / sin(pi/n) > 0 off the node edges,
        # so the half towards -v lies in the upper polygon and the half towards
        # +v crosses S_k into the lower one, carried back by the identification.
        label = self.letters[k - 1] + "'"
        side = self.edge_seg(UPPER, k)
        mid = side.midpoint()
        half = vscale(flip_shear_matrix(self.n).apply(side.direction()), 0.5)
        lower = Segment(mid, vadd(mid, half)).translated(self.offset(UPPER, k))
        return (
            Edge(label=label, kind=PRIMED, polygon=UPPER, index=k, seg=Segment(mid, vsub(mid, half))),
            Edge(label=label, kind=PRIMED, polygon=LOWER, index=k, seg=lower),
        )

    def primed_for(self, polygon: str) -> list[Edge]:
        return [piece for piece in self.primed_edges if piece.polygon == polygon]


def build_surface(n: int) -> Surface:
    return Surface(n)


# ---- serialization -------------------------------------------------------


def _point_json(p: Vec) -> list[float]:
    return [round_sig(p[0]), round_sig(p[1])]


def _edge_json(label: str, polygon: str, kind: str, seg: Segment) -> dict:
    return {"label": label, "polygon": polygon, "kind": kind, "p0": _point_json(seg.p0), "p1": _point_json(seg.p1)}


def surface_json(surface: Surface) -> dict:
    """JSON-ready dict: polygons, edges (all kinds), identifications."""
    n = surface.n
    edges = [_edge_json(f"S{k}", p, ORIGINAL, surface.edge_seg(p, k)) for p in (UPPER, LOWER) for k in range(1, n + 1)]
    edges += [_edge_json(e.label, e.polygon, AUXILIARY, e.seg) for e in surface.aux_edges]
    primed = {(e.index, e.polygon): e.seg for e in surface.primed_edges}
    edges += [
        _edge_json(f"S{k}'", p, PRIMED, surface.edge_seg(p, k) if k in surface.node_indices else primed[k, p])
        for k in range(1, n + 1)
        for p in (UPPER, LOWER)
    ]
    return {
        "n": n,
        "polygons": {
            "upper": [_point_json(p) for p in surface.upper],
            "lower": [_point_json(p) for p in surface.lower],
        },
        "edges": edges,
        "identifications": [[f"upper:S{k}", f"lower:S{k}"] for k in range(1, n + 1)],
    }
