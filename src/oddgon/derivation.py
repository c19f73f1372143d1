"""Cutting-sequence derivation: the sandwich rule and the diagram pipeline.

Two independent routes produce derived sequences:

* `ksl_window` / `ksl_cyclic` apply the combinatorial rule directly: keep
  exactly the letters whose predecessor and successor agree.
* `derive_via_diagrams` walks a word through the four-stage transition
  diagrams (arrows -> augmented -> dual -> primed) built geometrically from
  the surface, reading the derived word off the primed labels. The build
  reads the primed labels off the trajectories of one fixed, deterministic
  sample plan (`_sector_sample_plan`), so it takes no seed.

`closed_form_tables` states what the build must find, from n alone: the
arrows diagram is a path with the two node letters at its ends, each inner
step crosses one auxiliary diagonal, and a dual transition passes one inner
letter, entering by one of its two steps and leaving by one. The primed
diagram is the sandwich rule: on a path, a letter's two neighbours agree
exactly when the walk turns back at it, and that is when the transition
over it carries its primed copy. The build raises unless the geometry
gives exactly these tables; `build_augmented_diagram` checks the labels as
it clips them, so the arrows and augmented stages are checked too.
`arrows_path(n)` is that path as letters, and `fits(word, n)` says whether
a word walks it: every adjacent pair is an arrow.

The build splits what its samples cross into dual transitions (from one
auxiliary crossing or direction-fixed letter to the next) with one reader,
`_dual_step`, stepped once per segment: a segment is an original letter and
then the (kind, name) tokens of its cell (`flow.crossing_events`), met
before the next one.
A step is a pure function of the reader's state and the segment's tokens.
The sampled scan numbers each state once per build and keeps each step it
takes for the whole build in one memo, from (state number, edge index,
cell tokens) to the next state's number, so no state is hashed per
crossing. Equal keys mean equal states and tokens, so a kept step gives
what taking it again would; the first time a key occurs the step is taken
in full and its transitions recorded, so every check of the build fires on
the same input as it would reading every token, and none twice on one
input.

A diagram walk needs no reader. The arrows diagram is a path whose inner
steps each cross one auxiliary diagonal, so a letter x between neighbours
a and b is passed by exactly one dual transition, from the dual node on
step a-x to the one on step x-b (`_transition_over`, the key
`closed_form_tables` builds), and `derive_via_diagrams` reads a word's
letter triples once each and keeps no state.

`sandwich_equivalence_check` compares the two routes on every arrows walk
of `WALK_LEN` = 3 letters, read as windows, and on every closed walk of 2
and `WALK_LEN` + 1 letters, read as cyclic words. It reads no seed: each
derived letter is decided by its letter and its two neighbours, in the
diagram route by its one lookup per letter, and those walks hold every
3-letter walk as a window and as a cyclic window, so agreement on them is
agreement on every word and every cyclic word the arrows diagram accepts,
and the check decides the theorem for its n rather than sampling it.
Diagrams, arrows and the `DiagramPipeline` are NamedTuples; an
`EquivalenceReport`, which fills as the check runs, is a plain class.
"""
from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple, Optional

from .flow import CornerHit, crossing_events, trace_from_edge
from .geometry import (
    EPS,
    Vec,
    clip_polygon_halfplane,
    line_crossings,
    line_spans,
    point_in_polygon,
    polygon_area,
    polygon_centroid,
    ray_segment_hit,  # perfbench/tracing.py wraps this name to count ray tests
    vlerp,
)
from .surface import AUXILIARY, LOWER, ORIGINAL, PRIMED, UPPER, Surface, check_n, letter_for_index

import math


# ---- the combinatorial rule -------------------------------------------------


def ksl_window(word: str) -> str:
    """Keep the sandwiched letters of a finite window.

    A letter is sandwiched when its neighbors agree; the first and last
    letters have no verdict and are dropped.
    """
    return "".join(
        word[i] for i in range(1, len(word) - 1) if word[i - 1] == word[i + 1]
    )


def ksl_cyclic(word: str) -> str:
    """Keep the sandwiched letters of a cyclic word (neighbors wrap)."""
    L = len(word)
    if L == 0:
        return ""
    return "".join(
        word[i] for i in range(L) if word[(i - 1) % L] == word[(i + 1) % L]
    )


def cyclic_normal_form(word: str) -> str:
    """Lexicographically least rotation, for cyclic-word comparison."""
    if not word:
        return ""
    return min(word[i:] + word[:i] for i in range(len(word)))


# ---- diagram data model -----------------------------------------------------


class Arrow(NamedTuple):
    source: str
    target: str
    label: Optional[str] = None


class TransitionDiagram(NamedTuple):
    stage: str
    nodes: tuple[str, ...]
    arrows: tuple[Arrow, ...]


class InvalidPath(ValueError):
    """A word is not realizable as a walk in the transition diagrams."""


def diagram_json(diagram: TransitionDiagram) -> dict:
    return {
        "stage": diagram.stage,
        "nodes": list(diagram.nodes),
        "arrows": [
            {"from": a.source, "to": a.target, "label": a.label}
            for a in diagram.arrows
        ],
    }


def diagram_dot(diagram: TransitionDiagram) -> str:
    lines = [f'digraph "{diagram.stage}" {{', "  rankdir=LR;"]
    for node in diagram.nodes:
        lines.append(f'  "{node}";')
    for a in diagram.arrows:
        attr = f' [label="{a.label}"]' if a.label else ""
        lines.append(f'  "{a.source}" -> "{a.target}"{attr};')
    lines.append("}")
    return "\n".join(lines)


# ---- stages 1 and 2: arrows and augmented ----------------------------------

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def _arrow_chords(surface: Surface, x: int, y: int) -> tuple[str, list[tuple[Vec, Vec]]]:
    """The polygon entered through edge x, and representative sector chords in
    it from edge x to edge y.

    u parameterizes the chart representative of edge x, v that of edge y;
    the chord direction must lie in [0, pi/n). The chords are those at the
    clipped (u, v) region's centroid and at the midpoints from it to its
    first four vertices; none if the region is empty or degenerate.
    """
    q = surface.entering_polygon(x, surface.sector / 2)
    ex = surface.edge_seg(q, x)
    ey = surface.edge_seg(q, y)

    def chord(u: float, v: float) -> tuple[Vec, Vec]:
        return ex.point_at(u), ey.point_at(v)

    dx = ex.direction()
    dy = ey.direction()
    # delta(u, v) = ey(v) - ex(u), affine in (u, v)
    base = (ey.p0[0] - ex.p0[0], ey.p0[1] - ex.p0[1])
    tan = math.tan(surface.sector)
    # constraint 1: delta_y >= 0   ->  -dx_y * u + dy_y * v >= -base_y
    region = clip_polygon_halfplane(UNIT_SQUARE, (-dx[1], dy[1]), -base[1])
    # constraint 2: tan * delta_x - delta_y >= 0
    n2 = (-tan * dx[0] + dx[1], tan * dy[0] - dy[1])
    c2 = -(tan * base[0] - base[1])
    region = clip_polygon_halfplane(region, n2, c2)
    if abs(polygon_area(region)) > EPS:
        # Reject regions that are degenerate everywhere: chords running along
        # an edge line or pointing exactly at the sector boundary. A linear
        # functional that is nonnegative on the region and positive anywhere
        # is positive at the centroid, so one interior representative decides.
        c = polygon_centroid(region)
        p1, p2 = chord(*c)
        d = (p2[0] - p1[0], p2[1] - p1[1])
        mid = (0.5 * (p1[0] + p2[0]), 0.5 * (p1[1] + p2[1]))
        if d[0] > EPS and tan * d[0] - d[1] > EPS and point_in_polygon(mid, surface.vertices(q), eps=-EPS):
            return q, [chord(*uv) for uv in [c] + [vlerp(c, vert, 0.5) for vert in region[:4]]]
    return q, []


def _aux_sequence_for_chord(surface: Surface, polygon: str, a, b) -> tuple[str, ...]:
    d = (b[0] - a[0], b[1] - a[1])
    rows = line_crossings(d, d[0] * a[1] - d[1] * a[0], line_spans(d, [e.row for e in surface.aux_for(polygon)]))
    return tuple(label for *_, (_, label) in rows)


def build_augmented_diagram(surface: Surface) -> tuple[TransitionDiagram, dict]:
    """The arrows diagram, each arrow labeled by the auxiliary edges crossed
    between consecutive hits of its two letters, and that labeling as
    aux_of[(x, y)].

    Each ordered letter pair is clipped once: x -> y is an arrow when
    `_arrow_chords` finds sector chords from edge x to edge y, and all of
    those chords must cross one auxiliary sequence. The clipped labels must
    equal `closed_form_tables(n)`'s aux_of. This is the one place they are
    compared, and every stage is built through it: the arrows diagram is
    this one unlabeled, and the pipeline builds on it.
    """
    letters = surface.letters
    aux_of: dict[tuple[str, str], tuple[str, ...]] = {}
    arrows = []
    for x in range(1, surface.n + 1):
        for y in range(1, surface.n + 1):
            q, chords = _arrow_chords(surface, x, y)
            if not chords:
                continue
            pair = (letters[x - 1], letters[y - 1])
            seqs = {_aux_sequence_for_chord(surface, q, a, b) for a, b in chords}
            if len(seqs) != 1:
                raise AssertionError(f"the {pair[0]}->{pair[1]} chords do not cross one auxiliary sequence: {seqs}")
            aux_of[pair] = seq = seqs.pop()
            arrows.append(Arrow(*pair, ",".join(seq) or None))
    closed_aux = closed_form_tables(surface.n)[0]
    if aux_of != closed_aux:
        raise AssertionError(
            f"clipped augmented labels differ from the closed form: {sorted(aux_of.items() ^ closed_aux.items())}"
        )
    return TransitionDiagram("augmented", letters, tuple(arrows)), aux_of


def _unlabeled(augmented: TransitionDiagram) -> TransitionDiagram:
    return TransitionDiagram("arrows", augmented.nodes, tuple(Arrow(a.source, a.target) for a in augmented.arrows))


def build_arrows_diagram(surface: Surface) -> TransitionDiagram:
    """Which ordered letter pairs occur consecutively for sector directions:
    the augmented diagram without its labels."""
    return _unlabeled(build_augmented_diagram(surface)[0])


# ---- stages 3 and 4: dual and primed ---------------------------------------


def arrows_path(n: int) -> str:
    """The arrows diagram's path 1 - 2 - n - 3 - (n-1) - ... - (n+3)/2, as letters.

    Path letter i is edge 1 for i = 0, then 2, 3, ... at odd i and n, n-1,
    ... at even i; its ends are the two node letters.
    """
    check_n(n)
    return "".join(letter_for_index((i + 3) // 2 if i % 2 else (n - i // 2) % n + 1) for i in range(n))


def fits(word: str, n: int) -> bool:
    """Whether `word` walks the arrows diagram of the n-gon.

    Each of its letters is one of the n-gon's, and each adjacent pair x, y
    an arrow: x != y and x + y = 2 or 3 mod n as edge indices.
    """
    check_n(n)
    index = {letter_for_index(k): k for k in range(1, n + 1)}
    if not index.keys() >= set(word):
        return False
    return all(x != y and (index[x] + index[y]) % n in (2, 3) for x, y in zip(word, word[1:]))


def closed_form_tables(
    n: int,
) -> tuple[dict[tuple[str, str], tuple[str, ...]], dict[tuple[str, str, str], str]]:
    """The augmented labels and the primed content of every dual transition, from n alone.

    The arrows diagram is the path `arrows_path(n)`, 1 - 2 - n - 3 -
    (n-1) - ... - (n+3)/2 of edge indices (x -> y iff x != y and x + y =
    2 or 3 mod n), with the node letters at its ends. Step j = 1..n-1
    joins path letters j-1 and j.
    An inner step, 2 <= j <= n-2, crosses auxiliary diagonal j-1: its lower
    copy walking away from A when j is even and its upper copy when j is
    odd, the other copy walking back. The two end steps cross none.

    Returns aux_of, as `build_augmented_diagram` does, and (from, to,
    originals) -> primed letters for the 4n - 8 dual transitions. Each
    passes one inner path letter, entering by one of its two steps and
    leaving by one, from and to the dual node on each step: its auxiliary
    name, or on an end step the node letter at its far end. Its primed
    content is that letter exactly when the walk turns back there.
    """
    path = arrows_path(n)
    aux_of: dict[tuple[str, str], tuple[str, ...]] = {}
    for j in range(1, n):
        away, back = ("l", "u") if j % 2 == 0 else ("u", "l")
        inner = 2 <= j <= n - 2
        aux_of[path[j - 1], path[j]] = (f"{away}{j - 1}",) if inner else ()
        aux_of[path[j], path[j - 1]] = (f"{back}{j - 1}",) if inner else ()
    transitions: dict[tuple[str, str, str], str] = {}
    for i in range(1, n - 1):
        letter, sides = path[i], (path[i - 1], path[i + 1])
        for a in sides:
            for b in sides:
                transitions[_transition_over(aux_of, a, letter, b)] = letter if a == b else ""
    return aux_of, transitions


def _transition_over(
    aux_of: dict[tuple[str, str], tuple[str, ...]], a: str, x: str, b: str
) -> tuple[str, str, str]:
    """The dual transition that passes inner letter x between its arrows
    neighbours a and b, as (from, to, originals): from the dual node on step
    a -> x to the one on step x -> b, each the step's auxiliary name or, on
    an end step, which crosses none, the node letter at its far end."""
    return (aux_of[a, x] or (a,))[0], (aux_of[x, b] or (b,))[0], x


# The dual-transition reader's state before its first segment: no dual node
# read yet, no original or primed letter since, no original letter for the
# augmented-label check and no auxiliary name after it.
_START: tuple = (None, "", "", None, ())


def _dual_step(
    state: tuple,
    letter: str,
    cell: tuple[tuple[str, str], ...],
    nodes: frozenset[str],
    aux_of: dict[tuple[str, str], tuple[str, ...]],
) -> tuple[tuple, tuple[tuple[Optional[str], str, str, str], ...]]:
    """One segment of the sampled scan's reader: its original `letter`, then its `cell`'s (kind, name) tokens.

    A dual node is an auxiliary token or an original one named by a node
    letter; a dual transition runs from one to the next. `state` is (node,
    originals, primeds, x, between): the last dual node read (None before
    the first), the original and primed letters read since it, and the last
    original letter with the auxiliary names read since it. Returns the
    state after the segment and the transitions the segment completes, each
    (from, to, originals, primeds) in reading order; the first one read has
    from None and holds what came before the first dual node. It raises
    AssertionError unless the auxiliary names between each two consecutive
    original letters x, y are the augmented label aux_of[(x, y)].

    The result depends on the arguments alone, so a reader may keep it and
    reuse it for an equal state and equal tokens.
    """
    node, originals, primeds, x, between = state
    done = []
    for kind, name in ((ORIGINAL, letter), *cell):
        if kind == PRIMED:
            primeds += name
            continue
        if kind == AUXILIARY:
            between += (name,)
        else:
            if x is not None and between != aux_of.get((x, name)):
                if (x, name) not in aux_of:
                    raise AssertionError(f"sampled letter pair {x}->{name} has no arrow")
                raise AssertionError(
                    f"sampled aux crossings {between} for {x}->{name} differ from "
                    f"region label {aux_of[(x, name)]}"
                )
            x, between = name, ()
        if kind == AUXILIARY or name in nodes:
            done.append((node, name, originals, primeds))
            node, originals, primeds = name, "", ""
        else:
            originals += name
    return (node, originals, primeds, x, between), tuple(done)


# The fixed sample plan of the diagram build: PLAN_SAMPLES traces of
# PLAN_CROSSINGS crossings each. Sample i starts on edge 1 + i mod n; its
# (u, theta) come from the R2 low-discrepancy sequence, the fractional parts
# of 0.5 + i/g and 0.5 + i/g**2, where g is the plastic number (the real root
# of g**3 = g + 1), scaled into u in [0.05, 0.95] and theta in
# sector * [0.06, 0.94].
PLAN_SAMPLES, PLAN_CROSSINGS = 80, 400
_PLASTIC = ((9 + math.sqrt(69)) / 18) ** (1 / 3) + ((9 - math.sqrt(69)) / 18) ** (1 / 3)


def _sector_sample_plan(surface: Surface):
    for i in range(PLAN_SAMPLES):
        u = 0.05 + 0.9 * ((0.5 + i / _PLASTIC) % 1.0)
        theta = surface.sector * (0.06 + 0.88 * ((0.5 + i / _PLASTIC**2) % 1.0))
        yield 1 + i % surface.n, u, theta


def _scan_sampled_transitions(
    surface: Surface, aux_of: dict[tuple[str, str], tuple[str, ...]]
) -> tuple[dict[tuple[str, str, str], str], dict[tuple[str, str, str], int]]:
    """Observed primed content per dual transition, from the traced sample plan.

    `_dual_step` reads each sample segment by segment: it checks that the
    auxiliary names between consecutive original letters equal the
    clipping-derived augmented labels, and the transitions it completes fill
    the table. A step depends on the reader's state, the edge index and the
    cell's tokens alone, so it is taken in full once per distinct (state,
    edge index, tokens) in the whole build, and one memo maps (the state's
    number, edge index, tokens) to the next state's number. A kept step
    gives the same state and transitions as taking it again would; its
    transitions were recorded and checked when it was first taken, in this
    sample or an earlier one, so every check fires on the input it would
    fire on reading every token, none runs twice on one input, and
    `first_seen` stays each transition's earliest sample.
    Also returns, per transition, the 1-based sample that first realized it.
    """
    edges = {p: surface.aux_for(p) + surface.primed_for(p) for p in (UPPER, LOWER)}
    nodes, letters = surface.node_letters, surface.letters
    observed: dict[tuple[str, str, str], str] = {}
    first_seen: dict[tuple[str, str, str], int] = {}
    # each state read gets a number once per build: the memo maps (state
    # number, edge index, cell tokens) to the next state's number
    states, number = [_START], {_START: 0}
    taken: dict[tuple, int] = {}
    for sample, (edge, u, theta) in enumerate(_sector_sample_plan(surface), 1):
        try:
            traj = trace_from_edge(surface, edge, u, theta, max_crossings=PLAN_CROSSINGS)
        except CornerHit:
            continue
        cells = crossing_events(surface, traj, edges)
        at = 0
        # an open trajectory's last crossing starts no segment: it reads no cell
        for k, cell in zip_longest(traj.indices, cells, fillvalue=()):
            to = taken.get((at, k, cell))
            if to is None:
                state, done = _dual_step(states[at], letters[k - 1], cell, nodes, aux_of)
                to = number.get(state)
                if to is None:
                    to = number[state] = len(states)
                    states.append(state)
                taken[at, k, cell] = to
                for d1, d2, originals, primeds in done:
                    if d1 is None:
                        continue
                    transition = (d1, d2, originals)
                    seen = observed.get(transition)
                    if seen is None:
                        observed[transition] = primeds
                        first_seen[transition] = sample
                    elif seen != primeds:
                        raise AssertionError(
                            f"primed content of dual transition {transition} is not well defined: "
                            f"{seen!r} vs {primeds!r}"
                        )
            at = to
    return observed, first_seen


class DiagramPipeline(NamedTuple):
    """The four transition diagrams plus the lookup tables used to walk them."""

    stages: dict[str, TransitionDiagram]
    aux_of: dict[tuple[str, str], tuple[str, ...]]
    transitions: dict[tuple[str, str, str], str]  # (from, to, originals) -> primed letters
    node_letters: frozenset[str]
    covered_at: int  # 1-based plan sample at which every predicted transition had been seen


def build_pipeline_diagrams(surface: Surface) -> DiagramPipeline:
    """Build arrows, augmented, dual, and primed diagrams for one surface.

    The arrows and their augmented labels are clipped from sector chords,
    and the dual transitions and their primed content are read off the
    traced trajectories of the fixed sample plan, all of which run. Each
    must equal `closed_form_tables(n)`: the clipped labels its aux_of
    (checked by `build_augmented_diagram`), the sampled transitions its
    transitions (every one predicted, every predicted one realized), and
    each transition's primed content its own.
    """
    augmented, aux_of = build_augmented_diagram(surface)  # raises unless its labels are the closed form's
    nodes = surface.node_letters
    predicted = closed_form_tables(surface.n)[1]
    observed, first_seen = _scan_sampled_transitions(surface, aux_of)

    extra = observed.keys() - predicted.keys()
    if extra:
        raise AssertionError(f"sampled dual transitions not predicted by the chain graph: {sorted(extra)}")
    missing = predicted.keys() - observed.keys()
    if missing:
        raise AssertionError(
            f"dual transitions never realized by the {PLAN_SAMPLES}-sample plan: {sorted(missing)}; "
            "the fixed sample plan is at fault: it must cover every supported n"
        )
    # (transition, sampled, predicted) for each transition primed otherwise than predicted
    wrong = sorted((key, observed[key], primeds) for key, primeds in predicted.items() if observed[key] != primeds)
    if wrong:
        raise AssertionError(f"sampled primed content differs from the closed form: {wrong}")

    aux_names = sorted({name for seq in aux_of.values() for name in seq})
    dual_nodes = tuple(sorted(nodes) + aux_names)
    dual_arrows = []
    primed_arrows = []
    for (d1, d2, originals) in sorted(predicted):
        primeds = observed[(d1, d2, originals)]
        dual_arrows.append(Arrow(d1, d2, originals or None))
        primed_arrows.append(Arrow(d1, d2, "".join(ch + "'" for ch in primeds) or None))

    stages = {
        "arrows": _unlabeled(augmented),
        "augmented": augmented,
        "dual": TransitionDiagram("dual", dual_nodes, tuple(dual_arrows)),
        "primed": TransitionDiagram("primed", dual_nodes, tuple(primed_arrows)),
    }
    return DiagramPipeline(
        stages=stages,
        aux_of=aux_of,
        transitions=observed,
        node_letters=nodes,
        covered_at=max(first_seen[key] for key in predicted),
    )


# ---- walking words through the diagrams ------------------------------------


def derive_via_diagrams(pipeline: DiagramPipeline, word: str, cyclic: bool = False) -> str:
    """Derived word of a diagram walk, read off the primed labels.

    Each letter with two neighbours derives on its own: a node letter, a
    dual node itself, to itself, and an inner letter x between a and b to
    the primed content of the one dual transition that passes it,
    `_transition_over(aux_of, a, x, b)`. `build_pipeline_diagrams` raises
    unless it realized every transition `closed_form_tables` predicts, and
    those are every such (a, x, b) of the path, so the lookup cannot miss.

    Window semantics match ksl_window: the first and last letters carry no
    verdict. A cyclic word's neighbours wrap, and it is read from its first
    letter if that is a node letter and from its second otherwise, so that
    its first letter's output comes last.
    """
    alphabet = pipeline.stages["arrows"].nodes
    walked = word + word[:1] if cyclic else word
    # two containments test the whole word; only a word that fails one is
    # walked letter by letter, to name its first bad letter or pair
    if not (set(walked).issubset(alphabet) and pipeline.aux_of.keys() >= set(zip(walked, walked[1:]))):
        for ch in walked:
            if ch not in alphabet:
                raise InvalidPath(f"letter {ch!r} is not in the alphabet {''.join(alphabet)}")
        for pair in zip(walked, walked[1:]):
            if pair not in pipeline.aux_of:
                raise InvalidPath(f"letter pair {pair[0]}->{pair[1]} is not an arrow")
    aux_of, transitions, nodes = pipeline.aux_of, pipeline.transitions, pipeline.node_letters
    if cyclic and word:
        if word[0] not in nodes:
            word = word[1:] + word[0]
        word = word[-1] + word + word[0]
    return "".join(
        x if x in nodes else transitions[_transition_over(aux_of, a, x, b)]
        for a, x, b in zip(word, word[1:], word[2:])
    )


# ---- equivalence of the two routes ------------------------------------------


class EquivalenceReport:
    def __init__(self):
        self.cycles_checked = self.windows_checked = 0
        self.failures: list[tuple[str, str, str]] = []

    @property
    def passed(self) -> bool:
        return not self.failures


def _walks(pipeline: DiagramPipeline, length: int) -> list[str]:
    """Every walk of the arrows diagram with `length` letters, in sorted order."""
    succ: dict[str, list[str]] = {}
    for x, y in sorted(pipeline.aux_of):
        succ.setdefault(x, []).append(y)
    walks = sorted(succ)
    for _ in range(length - 1):
        walks = [w + y for w in walks for y in succ[w[-1]]]
    return walks


# The equivalence check's fixed extent: every walk of WALK_LEN letters, read
# as a window, and every closed walk of 2 and WALK_LEN + 1 letters, read as a
# cyclic word; these decide every word (see sandwich_equivalence_check).
WALK_LEN = 3


def sandwich_equivalence_check(pipeline: DiagramPipeline) -> EquivalenceReport:
    """Compare diagram derivation with the sandwich rule on both word types.

    Windows: every arrows walk of WALK_LEN = 3 letters, 4n - 6 of them
    (`windows_checked`): each of the 4n - 8 dual transitions is the middle
    of one, and each node letter lies between two copies of its one
    neighbour. Three letters suffice: `derive_via_diagrams` derives each
    inner letter of a window from it and its two neighbours alone, as
    `ksl_window` does, and joins the results in order, so either route's
    output on a window is the concatenation of its 3-letter windows'
    outputs, and a shorter window derives to the empty word both ways.
    Agreement on every 3-letter walk is therefore agreement on every word
    the arrows diagram accepts, and the check reads no seed.

    Cyclic words: every closed walk w of 2 and WALK_LEN + 1 = 4 letters,
    one with w[-1] -> w[0] an arrow, once per cyclic normal form: 3n - 4
    of them (`cycles_checked`). Both routes derive a cyclic word, up to
    rotation, as the concatenation in cyclic order of its cyclic 3-letter
    windows' outputs, so a cyclic word is decided by its cyclic windows.
    The arrows diagram is a path, so a closed walk has even length, and
    every 3-letter walk xyz is a cyclic window of the closed walk xy when
    x = z and of xyzy when x != z. Agreement on the closed walks of 2 and 4
    letters is therefore agreement on every cyclic word the arrows diagram
    accepts.
    """
    report = EquivalenceReport()

    closed = {
        cyclic_normal_form(w)
        for length in (2, WALK_LEN + 1)
        for w in _walks(pipeline, length)
        if (w[-1], w[0]) in pipeline.aux_of
    }
    for w in sorted(closed):
        expected = cyclic_normal_form(ksl_cyclic(w))
        got = cyclic_normal_form(derive_via_diagrams(pipeline, w, cyclic=True))
        report.cycles_checked += 1
        if expected != got:
            report.failures.append((f"cyclic {w}", expected, got))

    for w in _walks(pipeline, WALK_LEN):
        expected = ksl_window(w)
        got = derive_via_diagrams(pipeline, w)
        report.windows_checked += 1
        if expected != got:
            report.failures.append((f"window {w}", expected, got))
    return report
