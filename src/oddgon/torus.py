"""Square-torus baseline: tracing, the between-two-As rule, and un-shearing.

The unit square torus with A = horizontal edges (lines y in Z) and B =
vertical edges (lines x in Z) is the sanity case: its derivation rule
("between every two A's, remove a B") is NOT the sandwich rule, and the tests
pin that contrast. The shear here is M = (1 1; 0 1); derivation applies the
inverse (1 -1; 0 1) to the whole line and re-reads the cutting sequence.
The tracer, like `flow.trace`, ends a periodic orbit at its first return.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Optional

from .flow import CornerHit, CuttingSequence
from .geometry import CORNER_DELTA, EPS, PARALLEL, STEP_MIN

HORIZONTAL, VERTICAL = "A", "B"


class TorusCrossing(NamedTuple):
    t: float
    letter: str
    point: tuple[float, float]


class TorusTrajectory(CuttingSequence):
    def __init__(self, start: tuple[float, float], theta: float, crossings: list[TorusCrossing], periodic: bool = False):
        self.start, self.theta, self.crossings, self.periodic = start, theta, crossings, periodic

    @property
    def letters(self) -> str:
        return "".join(c.letter for c in self.crossings)


def _line_crossings(p0: float, d: float) -> Iterator[float]:
    """Times t > 0, in increasing order, at which p0 + t*d crosses an integer."""
    if abs(d) < PARALLEL:
        return iter(())
    step = 1 if d > 0 else -1
    k = math.floor(p0) + 1 if d > 0 else math.ceil(p0) - 1
    if abs(p0 - round(p0)) < STEP_MIN:
        k = round(p0) + step
    return ((j - p0) / d for j in itertools.count(k, step))


def _lattice_crossings(x0: float, y0: float, dx: float, dy: float) -> Iterator[tuple[float, str]]:
    """(t, letter) of each lattice line the line crosses, in time order with an
    A before a B at the same time; a start on a lattice line is crossed at t = 0."""
    # distances to the nearest lattice line are abs(x - round(x)) throughout
    if abs(y0 - round(y0)) < STEP_MIN:
        yield 0.0, HORIZONTAL
    elif abs(x0 - round(x0)) < STEP_MIN:
        yield 0.0, VERTICAL
    horizontal, vertical = _line_crossings(y0, dy), _line_crossings(x0, dx)
    ta, tb = next(horizontal, math.inf), next(vertical, math.inf)
    while True:
        if ta <= tb:
            yield ta, HORIZONTAL
            ta = next(horizontal, math.inf)
        else:
            yield tb, VERTICAL
            tb = next(vertical, math.inf)


def torus_trace(
    start: tuple[float, float],
    theta: float,
    max_crossings: int = 100,
    t_max: Optional[float] = None,
) -> TorusTrajectory:
    """Cutting sequence of the line start + t*(cos theta, sin theta).

    A start on a lattice line emits that crossing at t = 0. The walk stops
    after `max_crossings`, past `t_max`, or at the first return; CornerHit
    when a crossing before that passes within CORNER_DELTA of a lattice point.
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
    # each crossing is checked for a corner; the first return to crossing 0's
    # letter and point modulo the lattice ends one period
    crossings: list[TorusCrossing] = []
    for t, letter in itertools.islice(_lattice_crossings(x0, y0, dx, dy), max_crossings):
        if t_max is not None and t > t_max:
            break
        px, py = x0 + t * dx, y0 + t * dy
        other = px if letter == HORIZONTAL else py
        if abs(other - round(other)) < CORNER_DELTA:
            raise CornerHit("torus", (px, py), len(crossings), theta, "torus", start)
        if not crossings:
            letter0, fx, fy = letter, px, py
        elif letter == letter0:
            rx, ry = px - fx, py - fy
            if abs(rx - round(rx)) < EPS and abs(ry - round(ry)) < EPS:
                return TorusTrajectory((x0, y0), theta, crossings, periodic=True)
        crossings.append(TorusCrossing(t, letter, (px, py)))
    return TorusTrajectory((x0, y0), theta, crossings)


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
        image = torus_trace((ix, iy), itheta, max_crossings=4 * len(traj.crossings) + 8)
        if not image.periodic:
            raise AssertionError("image of a periodic torus orbit failed to close up")
        return image.period_word
    if not traj.crossings:
        return ""
    t_end = traj.crossings[-1].t * iscale + STEP_MIN
    image = torus_trace((ix, iy), itheta, max_crossings=10 ** 9, t_max=t_end)
    return image.letters
