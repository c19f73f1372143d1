"""Static SVG rendering: polygon charts, trajectories, and guide dots."""
from __future__ import annotations

from typing import Optional

from .flow import Trajectory
from .shear import GuidePoint
from .surface import LOWER, UPPER, Surface

# Every figure is WIDTH pixels wide with a MARGIN-pixel border; its height follows the drawing.
WIDTH, MARGIN = 720, 24.0


def _fmt(v: float) -> str:
    s = f"{v:.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


class _Canvas:
    """Collects drawing elements, then maps math coords to SVG pixel space."""

    def __init__(self):
        self.elements: list[tuple] = []
        self.xs: list[float] = []
        self.ys: list[float] = []

    def _track(self, pts):
        for x, y in pts:
            self.xs.append(x)
            self.ys.append(y)

    def polygon(self, pts, fill: str, stroke: str = "#333333"):
        self._track(pts)
        self.elements.append(("polygon", pts, fill, stroke))

    def line(self, a, b, stroke: str, width: float = 1.5, dashed: bool = False):
        self._track([a, b])
        self.elements.append(("line", a, b, stroke, width, dashed))

    def dot(self, p, fill: str, r: float = 3.0):
        self._track([p])
        self.elements.append(("dot", p, fill, r))

    def render(self) -> str:
        x0, x1 = min(self.xs), max(self.xs)
        y0, y1 = min(self.ys), max(self.ys)
        span_x = max(x1 - x0, 1e-9)
        span_y = max(y1 - y0, 1e-9)
        scale = (WIDTH - 2 * MARGIN) / span_x
        height = int(span_y * scale + 2 * MARGIN)

        def tx(p):
            return (MARGIN + (p[0] - x0) * scale, MARGIN + (y1 - p[1]) * scale)

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
            f'viewBox="0 0 {WIDTH} {height}">'
        ]
        for el in self.elements:
            if el[0] == "polygon":
                _, pts, fill, stroke = el
                coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in map(tx, pts))
                out.append(f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" stroke-width="1"/>')
            elif el[0] == "line":
                _, a, b, stroke, w, dashed = el
                ax, ay = tx(a)
                bx, by = tx(b)
                dash = ' stroke-dasharray="5,4"' if dashed else ""
                out.append(
                    f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                    f'stroke="{stroke}" stroke-width="{w}"{dash}/>'
                )
            elif el[0] == "dot":
                _, p, fill, r = el
                px, py = tx(p)
                out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{r}" fill="{fill}"/>')
        out.append("</svg>")
        return "\n".join(out)


def render_surface_svg(
    surface: Surface,
    trajectory: Optional[Trajectory] = None,
    guide: Optional[tuple[GuidePoint, ...]] = None,
    show_aux: bool = False,
    show_primed: bool = False,
) -> str:
    """The two polygon charts (lower shaded) with optional overlays."""
    cv = _Canvas()
    cv.polygon(surface.vertices(LOWER), fill="#d7dfee")
    cv.polygon(surface.vertices(UPPER), fill="#f7f7f4")
    if show_aux:
        for e in surface.aux_edges:
            cv.line(e.seg.p0, e.seg.p1, stroke="#7f8c8d", width=1.0, dashed=True)
    if show_primed:
        for e in surface.primed_edges:
            cv.line(e.seg.p0, e.seg.p1, stroke="#27ae60", width=1.2, dashed=True)
    if trajectory is not None:
        for i in range(len(trajectory.indices) - (not trajectory.periodic)):
            _, a, b = trajectory.segment(i, surface)
            cv.line(a, b, stroke="#c0392b", width=1.6)
        for point in zip(trajectory.xs, trajectory.ys):
            cv.dot(point, fill="#c0392b", r=2.0)
    if guide is not None:
        for gp in guide:
            cv.dot((gp.x, gp.y), fill="#2c3e50", r=2.5)
    return cv.render()


def render_guide_svg(guide: tuple[GuidePoint, ...]) -> str:
    """Guide dots on their level lines, the target picture of the shear."""
    cv = _Canvas()
    ys = sorted({gp.y for gp in guide})
    xs = [gp.x for gp in guide]
    lo, hi = min(xs), max(xs)
    pad = 0.05 * (hi - lo + 1.0)
    for y in ys:
        cv.line((lo - pad, y), (hi + pad, y), stroke="#bbbbbb", width=0.8, dashed=True)
    for gp in guide:
        color = "#2c3e50" if gp.polygon == UPPER else "#8e44ad"
        cv.dot((gp.x, gp.y), fill=color, r=3.0)
    return cv.render()
