import gc
import math
import random
from itertools import product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgon import derivation
from oddgon.derivation import (
    PLAN_CROSSINGS,
    PLAN_SAMPLES,
    WALK_LEN,
    Arrow,
    DiagramPipeline,
    InvalidPath,
    _arrow_chords,
    _aux_sequence_for_chord,
    _segment_step,
    _scan_sampled_transitions,
    _sector_sample_plan,
    arrows_path,
    build_arrows_diagram,
    build_augmented_diagram,
    build_pipeline_diagrams,
    closed_form_tables,
    cyclic_normal_form,
    derive_via_diagrams,
    diagram_dot,
    diagram_json,
    fits,
    ksl_cyclic,
    ksl_window,
    sandwich_equivalence_check,
)
from oddgon.flow import CornerHit, crossing_events, edge_permutation, normalize_direction, trace_from_edge
from oddgon.geometry import EPS, ray_segment_hit
from oddgon.surface import (
    AUXILIARY,
    LOWER,
    ORIGINAL,
    PRIMED,
    UPPER,
    build_surface,
    index_for_letter,
    letter_for_index,
)
from test_flow import interleaved_events

words = st.text(alphabet="ABCDE", min_size=0, max_size=40)


# ---- the sandwich rule -------------------------------------------------------


def test_window_fixtures():
    assert ksl_window("ABCDCCCCBCBCDE") == "DCCBCB"
    assert ksl_window("ABA") == "B"
    assert ksl_window("ABC") == ""
    assert ksl_window("AA") == ""
    assert ksl_window("A") == ""
    assert ksl_window("") == ""


def test_cyclic_fixtures():
    assert ksl_cyclic("BECE") == "BC"
    assert ksl_cyclic("BC") == "BC"
    assert ksl_cyclic("ABC") == ""
    assert ksl_cyclic("AA") == "AA"
    assert ksl_cyclic("A") == "A"
    assert ksl_cyclic("") == ""


@given(words)
def test_window_result_is_subword(word):
    out = ksl_window(word)
    it = iter(word)
    assert all(ch in it for ch in out)


@given(words, st.integers(min_value=0, max_value=39))
def test_cyclic_commutes_with_rotation(word, r):
    if not word:
        return
    r %= len(word)
    rotated = word[r:] + word[:r]
    assert cyclic_normal_form(ksl_cyclic(rotated)) == cyclic_normal_form(ksl_cyclic(word))


@given(st.text(alphabet="AB", min_size=1, max_size=6))
def test_cyclic_keeps_constant_words(word):
    w = word[0] * len(word)
    assert ksl_cyclic(w) == w


@given(words)
def test_window_shorter_by_at_least_two(word):
    if len(word) >= 2:
        assert len(ksl_window(word)) <= len(word) - 2


def test_normal_form_is_rotation_invariant():
    assert cyclic_normal_form("ECEB") == cyclic_normal_form("BECE")
    assert cyclic_normal_form("") == ""
    assert cyclic_normal_form("BA") == "AB"


@given(st.text(alphabet="ABC", max_size=30), st.integers(min_value=1, max_value=4))
def test_normal_form_is_the_least_rotation(word, power):
    # against the quadratic min over every rotation, periodic words and the
    # empty word included
    word *= power
    assert cyclic_normal_form(word) == min((word[i:] + word[:i] for i in range(len(word))), default="")


# ---- diagram pipeline --------------------------------------------------------

PENTAGON_ARROWS = {
    ("A", "B"), ("B", "A"), ("B", "E"), ("C", "D"),
    ("C", "E"), ("D", "C"), ("E", "B"), ("E", "C"),
}

PENTAGON_AUX = {
    ("B", "E"): ("l1",),
    ("C", "E"): ("l2",),
    ("E", "B"): ("u1",),
    ("E", "C"): ("u2",),
}

PENTAGON_DUAL = {
    ("A", "A", "B"), ("A", "l1", "B"),
    ("D", "D", "C"), ("D", "l2", "C"),
    ("l1", "u1", "E"), ("l1", "u2", "E"),
    ("l2", "u1", "E"), ("l2", "u2", "E"),
    ("u1", "A", "B"), ("u1", "l1", "B"),
    ("u2", "D", "C"), ("u2", "l2", "C"),
}

PENTAGON_PRIMED = {
    ("A", "A"): "B'",
    ("A", "l1"): None,
    ("D", "D"): "C'",
    ("D", "l2"): None,
    ("l1", "u1"): "E'",
    ("l1", "u2"): None,
    ("l2", "u1"): None,
    ("l2", "u2"): "E'",
    ("u1", "A"): None,
    ("u1", "l1"): "B'",
    ("u2", "D"): None,
    ("u2", "l2"): "C'",
}


def test_pentagon_arrows(pentagon):
    diagram = build_arrows_diagram(pentagon)
    got = {(a.source, a.target) for a in diagram.arrows}
    assert got == PENTAGON_ARROWS
    assert ("A", "C") not in got
    assert ("A", "A") not in got  # no self-loop on the horizontal letter
    assert ("D", "D") not in got


def test_pentagon_arrow_reversal_symmetry(pentagon):
    # time reversal: X -> Y admissible iff Y -> X admissible
    got = {(a.source, a.target) for a in build_arrows_diagram(pentagon).arrows}
    assert got == {(b, a) for a, b in got}


@pytest.mark.parametrize("n,count", [(n, 2 * (n - 1)) for n in range(5, 27, 2)])
def test_arrow_counts(n, count):
    surface = build_surface(n)
    got = {(a.source, a.target) for a in build_arrows_diagram(surface).arrows}
    assert len(got) == count
    # time reversal: X -> Y admissible iff Y -> X admissible
    assert got == {(b, a) for a, b in got}
    # each of the 2(n-3) auxiliary diagonals labels exactly one arrow
    _, aux_of = build_augmented_diagram(surface)
    labels = [name for seq in aux_of.values() for name in seq]
    assert sorted(labels) == sorted(e.label for e in surface.aux_edges)
    assert len(labels) == 2 * (n - 3)


@pytest.mark.parametrize("n", [5, 9, 25])
def test_augmented_build_clips_each_letter_pair_once(n, monkeypatch):
    calls = []

    def counted(surface, x, y):
        calls.append((x, y))
        return _arrow_chords(surface, x, y)

    monkeypatch.setattr(derivation, "_arrow_chords", counted)
    build_augmented_diagram(build_surface(n))
    assert sorted(calls) == [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]


def test_arrows_diagram_is_the_augmented_one_unlabeled(pentagon):
    augmented, _ = build_augmented_diagram(pentagon)
    arrows = build_arrows_diagram(pentagon)
    assert arrows.nodes == augmented.nodes
    assert arrows.arrows == tuple(Arrow(a.source, a.target) for a in augmented.arrows)
    assert any(a.label for a in augmented.arrows)


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_aux_sequences_equal_the_per_piece_reference(n):
    # the per-piece scan the row scan replaced: ray_segment_hit, then the strict window
    surface = build_surface(n)
    chords = 0
    for arrow in build_arrows_diagram(surface).arrows:
        q, pairs = _arrow_chords(surface, index_for_letter(arrow.source), index_for_letter(arrow.target))
        for a, b in pairs:
            d = (b[0] - a[0], b[1] - a[1])
            hits = []
            for e in surface.aux_for(q):
                hit = ray_segment_hit(a, d, e.seg)
                if hit is not None and EPS < hit.t < 1.0 - EPS and EPS < hit.u < 1.0 - EPS:
                    hits.append((hit.t, e.label))
            assert _aux_sequence_for_chord(surface, q, a, b) == tuple(label for _, label in sorted(hits))
            chords += 1
    assert chords >= 2 * (n - 1)


def test_pentagon_augmented_labels(pipelines):
    pipe = pipelines[5]
    assert {k: v for k, v in pipe.aux_of.items() if v} == PENTAGON_AUX
    aug = pipe.stages["augmented"]
    labels = {(a.source, a.target): a.label for a in aug.arrows}
    assert labels[("B", "E")] == "l1"
    assert labels[("E", "C")] == "u2"
    assert labels[("A", "B")] is None


def test_pentagon_dual_diagram(pipelines):
    dual = pipelines[5].stages["dual"]
    assert dual.nodes == ("A", "D", "l1", "l2", "u1", "u2")
    got = {(a.source, a.target, a.label) for a in dual.arrows}
    assert got == PENTAGON_DUAL


def test_pentagon_primed_diagram(pipelines):
    primed = pipelines[5].stages["primed"]
    got = {(a.source, a.target): a.label for a in primed.arrows}
    assert got == PENTAGON_PRIMED


@pytest.mark.parametrize("n,dual_nodes,dual_arrows", [(5, 6, 12), (7, 10, 20), (9, 14, 28)])
def test_pipeline_sizes(pipelines, n, dual_nodes, dual_arrows):
    pipe = pipelines[n]
    assert len(pipe.stages["dual"].nodes) == dual_nodes
    assert len(pipe.stages["dual"].arrows) == dual_arrows
    assert len(pipe.stages["primed"].arrows) == dual_arrows


def test_node_letters_are_the_direction_fixed_edges(pipelines):
    assert set(pipelines[5].node_letters) == {"A", "D"}
    assert set(pipelines[7].node_letters) == {"A", "E"}
    assert set(pipelines[9].node_letters) == {"A", "F"}
    for n, pipe in pipelines.items():
        assert pipe.node_letters == build_surface(n).node_letters


# ---- reading dual transitions --------------------------------------------------


def _reference_dual_steps(stream, nodes, aux_of):
    """The per-token reader the per-segment step replaces: for each dual node of
    a flat (kind, name) stream at position i, (i, j, originals, primeds), j the
    next dual node's position (None after the last). A dual node is an
    auxiliary token or an original one named by a node letter. It checks the
    auxiliary names between consecutive original letters."""
    i = x = None
    originals, primeds, between = [], [], []
    for j, (kind, name) in enumerate(stream):
        if kind == PRIMED:
            primeds.append(name)
            continue
        if kind == AUXILIARY:
            between.append(name)
        else:
            if x is not None and tuple(between) != aux_of.get((x, name)):
                if (x, name) not in aux_of:
                    raise AssertionError(f"sampled letter pair {x}->{name} has no arrow")
                raise AssertionError(
                    f"sampled aux crossings {tuple(between)} for {x}->{name} differ from "
                    f"region label {aux_of[(x, name)]}"
                )
            x, between = name, []
        if kind == AUXILIARY or name in nodes:
            if i is not None:
                yield i, j, "".join(originals), "".join(primeds)
            i, originals, primeds = j, [], []
        else:
            originals.append(name)
    if i is not None:
        yield i, None, "".join(originals), "".join(primeds)


def _split(segments, nodes, aux_of):
    """`_reference_dual_steps` over a walk's (letter, cell) segments, its
    positions replaced by the names of the dual nodes there."""
    stream = [token for letter, cell in segments for token in ((ORIGINAL, letter), *cell)]
    return [
        (stream[i][1], None if j is None else stream[j][1], originals, primeds)
        for i, j, originals, primeds in _reference_dual_steps(stream, nodes, aux_of)
    ]


def test_dual_steps_splits_a_stream_at_dual_nodes():
    segments = [
        ("B", ()),  # before the first dual node: in no transition
        ("A", ((PRIMED, "B"),)),  # node letter
        ("B", ((PRIMED, "E"), (AUXILIARY, "l1"), (AUXILIARY, "u1"))),
        ("E", ((PRIMED, "C"),)),
        ("D", ()),  # node letter
        ("C", ((PRIMED, "D"),)),
    ]
    nodes = frozenset("AD")
    # the augmented labels of the letter pairs the segments read
    aux_of = {("B", "A"): (), ("A", "B"): (), ("B", "E"): ("l1", "u1"), ("E", "D"): (), ("D", "C"): ()}
    steps = [("A", "l1", "B", "BE"), ("l1", "u1", "", ""), ("u1", "D", "E", "C")]
    # the stretch before the first dual node is in no transition; the last
    # dual node comes last, with what follows it
    assert _split(segments, nodes, aux_of) == steps + [("D", None, "C", "D")]
    assert _split([("B", ((PRIMED, "C"),))], nodes, aux_of) == []
    # one segment completes every transition it holds a dual node of
    assert _split(segments[:3], nodes, aux_of) == steps[:2] + [("u1", None, "", "")]
    # the reader checks the auxiliary names between letters against the labels
    with pytest.raises(AssertionError, match=r"\('l1', 'u1'\) for B->E differ from region label \('l1',\)"):
        _split(segments, nodes, {**aux_of, ("B", "E"): ("l1",)})
    with pytest.raises(AssertionError, match="pair D->C has no arrow"):
        _split(segments, nodes, {k: v for k, v in aux_of.items() if k != ("D", "C")})


def test_a_segment_step_completes_the_transition_over_its_first_letter(pentagon):
    # A -> B -> E -> B on the pentagon's path A - B - E - C - D: a step reads
    # one segment's cell and completes the transition over the letter it
    # starts at, with the primed names on either side of that letter
    aux_of, nodes = closed_form_tables(5)[0], pentagon.node_letters
    state, done = _segment_step((None, "A", ""), "B", ((PRIMED, "B"),), nodes, aux_of)
    assert (state, done) == (("A", "B", "B"), None)  # no transition over a node letter
    state, done = _segment_step(state, "E", ((PRIMED, "E"), (AUXILIARY, "l1"), (PRIMED, "C")), nodes, aux_of)
    assert (state, done) == (("B", "E", "C"), (("A", "l1", "B"), "BE"))
    state, done = _segment_step(state, "B", ((AUXILIARY, "u1"),), nodes, aux_of)
    assert (state, done) == (("E", "B", ""), (("l1", "u1", "E"), "C"))
    # an end step's dual node is its node-letter end
    assert _segment_step(state, "A", ((PRIMED, "B"),), nodes, aux_of) == (("B", "A", ""), (("u1", "A", "B"), "B"))
    with pytest.raises(AssertionError, match=r"\(\) for B->E differ from region label \('l1',\)"):
        _segment_step(state, "E", (), nodes, aux_of)
    with pytest.raises(AssertionError, match="pair B->C has no arrow"):
        _segment_step(state, "C", (), nodes, aux_of)


def _reference_scan(surface, aux_of):
    """The sampled scan read token by token, every segment in full, over flat streams."""
    edges = {p: surface.aux_for(p) + surface.primed_for(p) for p in (UPPER, LOWER)}
    observed, first_seen = {}, {}
    for sample, (k, u, theta) in enumerate(_sector_sample_plan(surface), 1):
        try:
            traj = trace_from_edge(surface, k, u, theta, max_crossings=PLAN_CROSSINGS)
        except CornerHit:
            continue
        cells = crossing_events(surface, traj, edges)
        events = interleaved_events(traj, cells)
        if traj.periodic:
            # a periodic stream is read around once more, through crossing 1's token
            events += events[: len(cells[0]) + 2]
        for i, j, originals, primeds in _reference_dual_steps(events, surface.node_letters, aux_of):
            if j is None:
                continue
            key = (events[i][1], events[j][1], originals)
            seen = observed.setdefault(key, primeds)
            first_seen.setdefault(key, sample)
            assert seen == primeds, key
    return observed, first_seen


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_sampled_scan_equals_the_per_token_reference(pipelines, n):
    s = build_surface(n)
    observed, first_seen = _scan_sampled_transitions(s, pipelines[n].aux_of)
    assert observed == pipelines[n].transitions
    assert (observed, first_seen) == _reference_scan(s, pipelines[n].aux_of)


@pytest.mark.parametrize("n", [5, 25])
def test_the_sampled_scan_steps_once_per_distinct_segment(pipelines, n, monkeypatch):
    # the scan's step is kept for the whole build per (state, edge index,
    # cell tokens), so over the plan it never runs twice on one input, and
    # far fewer times than segments are read, with the same table
    s, pipe = build_surface(n), pipelines[n]  # built before the step is counted
    step, calls, read = derivation._segment_step, [], []

    def counted(state, b, cell, nodes, aux_of):
        calls.append((state, b, cell))
        return step(state, b, cell, nodes, aux_of)

    def traced(*args, **kwargs):
        traj = trace_from_edge(*args, **kwargs)
        read.append(len(traj.indices))  # every crossing is stepped, with its segment's cell
        return traj

    monkeypatch.setattr(derivation, "_segment_step", counted)
    monkeypatch.setattr(derivation, "trace_from_edge", traced)
    observed, _ = _scan_sampled_transitions(s, pipe.aux_of)
    assert observed == pipe.transitions
    assert len(set(calls)) == len(calls)
    assert 0 < 4 * len(calls) < sum(read)


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_a_periodic_sample_is_read_as_the_cyclic_word_it_is(pipelines, n, monkeypatch):
    # sample 1 of the plan, edge 1 at u = 0.5 and theta = pi/(2n), closes up
    # after a word from A that ends in B, and B -> A is read only by its
    # closing segment: read around once more, that segment completes the
    # transition over B from u1 to the node letter A
    s = build_surface(n)
    edge, u, theta = next(_sector_sample_plan(s))
    assert (edge, u, theta) == (1, 0.5, pytest.approx(math.pi / (2 * n)))
    traj = trace_from_edge(s, edge, u, theta, max_crossings=PLAN_CROSSINGS)
    assert traj.periodic and traj.letters[0] + traj.letters[-1] == "AB" and "BA" not in traj.letters
    monkeypatch.setattr(derivation, "PLAN_SAMPLES", 1)
    observed, first_seen = _scan_sampled_transitions(s, pipelines[n].aux_of)
    assert (observed[("u1", "A", "B")], first_seen[("u1", "A", "B")]) == ("", 1)


def test_sampled_scan_checks_the_augmented_labels(pentagon, monkeypatch):
    _, aux_of = build_augmented_diagram(pentagon)
    assert aux_of[("B", "E")] == ("l1",)
    blanked = dict(aux_of)
    blanked[("B", "E")] = ()
    monkeypatch.setattr(derivation, "PLAN_SAMPLES", 1)
    with pytest.raises(AssertionError, match="differ from region label"):
        _scan_sampled_transitions(pentagon, blanked)


def test_sampled_scan_checks_the_primed_content(pentagon, monkeypatch):
    # the last sample reads one primed hit under another name: one segment's
    # cell gets new tokens, so its step is taken in full, while the other
    # segments of that cell keep the unchanged tuple; every dual transition
    # it meets was realized earlier in the plan (covered_at is 5)
    scan, calls = derivation.crossing_events, []

    def renamed(surface, traj, edges):
        cells = scan(surface, traj, edges)
        calls.append(traj)
        if len(calls) == PLAN_SAMPLES:
            i = max(i for i, cell in enumerate(cells) if any(kind == PRIMED for kind, _ in cell))
            j = next(j for j, (kind, _) in enumerate(cells[i]) if kind == PRIMED)
            kind, name = cells[i][j]
            assert cells.count(cells[i]) > 1  # an earlier segment read the cell unchanged
            cells[i] = cells[i][:j] + ((kind, name.lower()),) + cells[i][j + 1 :]
        return cells

    monkeypatch.setattr(derivation, "crossing_events", renamed)
    _, aux_of = build_augmented_diagram(pentagon)
    with pytest.raises(AssertionError, match="is not well defined"):
        _scan_sampled_transitions(pentagon, aux_of)
    assert len(calls) == PLAN_SAMPLES


def test_pipeline_build_reports_unpredicted_transitions(pentagon, monkeypatch):
    closed_form = derivation.closed_form_tables

    def one_dropped(n):
        aux_of, transitions = closed_form(n)
        del transitions[min(transitions)]
        return aux_of, transitions

    monkeypatch.setattr(derivation, "closed_form_tables", one_dropped)
    with pytest.raises(AssertionError, match="not predicted by the chain graph"):
        build_pipeline_diagrams(pentagon)


def test_pipeline_build_checks_the_augmented_labels_against_the_closed_form(pentagon, monkeypatch):
    # B -> E crosses l1 and E -> B crosses u1; with the copies swapped on
    # B -> E alone, the clipped labels no longer fit the path, and each
    # stage's build raises, by the one check where the labels are clipped
    assert build_augmented_diagram(pentagon)[1][("B", "E")] == ("l1",)
    clipped = derivation._aux_sequence_for_chord

    def swapped(surface, polygon, a, b):
        return tuple("u1" if name == "l1" else name for name in clipped(surface, polygon, a, b))

    monkeypatch.setattr(derivation, "_aux_sequence_for_chord", swapped)
    for build in (build_arrows_diagram, build_augmented_diagram, build_pipeline_diagrams):
        with pytest.raises(AssertionError, match=r"clipped augmented labels differ from the closed form.*'u1'"):
            build(pentagon)


def test_pipeline_build_checks_the_primed_content_against_the_closed_form(pentagon, monkeypatch):
    closed_form = derivation.closed_form_tables

    def flipped(n):
        aux_of, transitions = closed_form(n)
        assert transitions[("A", "A", "B")] == "B"
        transitions[("A", "A", "B")] = ""
        return aux_of, transitions

    monkeypatch.setattr(derivation, "closed_form_tables", flipped)
    with pytest.raises(AssertionError, match=r"differs from the closed form: \[\(\('A', 'A', 'B'\), 'B', ''\)\]"):
        build_pipeline_diagrams(pentagon)


def test_pipeline_build_reports_unrealized_transitions(pentagon, monkeypatch):
    monkeypatch.setattr(derivation, "PLAN_SAMPLES", 1)
    with pytest.raises(AssertionError, match="never realized by the 1-sample plan.*sample plan is at fault"):
        build_pipeline_diagrams(pentagon)


def test_sampled_scan_skips_a_sample_that_hits_a_corner(pentagon, pipelines, monkeypatch):
    # edge 5, u = 0.5, theta = pi/10 runs into a vertex at its first crossing
    with pytest.raises(CornerHit):
        trace_from_edge(pentagon, 5, 0.5, math.pi / 10, max_crossings=PLAN_CROSSINGS)
    plan = derivation._sector_sample_plan

    def corner_first(surface):
        yield 5, 0.5, math.pi / 10
        yield from plan(surface)

    monkeypatch.setattr(derivation, "_sector_sample_plan", corner_first)
    pipe = build_pipeline_diagrams(pentagon)
    assert pipe.transitions == pipelines[5].transitions
    assert (pipelines[5].covered_at, pipe.covered_at) == (5, 6)


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_fixed_plan_covers_every_transition_in_half_the_plan(pipelines, n):
    # the build raises unless the whole plan realizes exactly the predicted
    # transitions; coverage within half of it leaves a margin (37 at n = 25)
    pipe = pipelines[n]
    assert pipe.covered_at <= PLAN_SAMPLES // 2


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_the_geometric_build_has_the_closed_form(pipelines, n):
    # the arrows diagram is the path x -> y, x != y, x + y = 2 or 3 (mod n);
    # it has 4n - 8 dual transitions, each over one original letter, whose
    # primed content is that letter exactly where the walk turns back: from
    # a node letter to itself, or between the two copies l j and u j of one
    # auxiliary diagonal; elsewhere it is empty
    aux_of, transitions = closed_form_tables(n)
    assert set(aux_of) == {
        (letter_for_index(x), letter_for_index(y))
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if x != y and (x + y) % n in (2, 3)
    }
    assert len(transitions) == 4 * n - 8
    nodes = build_surface(n).node_letters
    for (d1, d2, originals), primeds in transitions.items():
        assert len(originals) == 1 and originals not in nodes, (d1, d2, originals)
        if d1 in nodes or d2 in nodes:
            turns = d1 == d2
        else:
            turns = d1[1:] == d2[1:] and {d1[0], d2[0]} == {"l", "u"}
        assert primeds == (originals if turns else ""), (d1, d2, originals, primeds)
    # the geometric build raises unless it finds these tables; the session's
    # pipelines, which the half-plan coverage test shares, hold them
    assert (pipelines[n].aux_of, pipelines[n].transitions) == (aux_of, transitions)


def test_the_closed_form_is_the_pentagon_fixtures():
    aux_of, transitions = closed_form_tables(5)
    assert set(aux_of) == PENTAGON_ARROWS
    assert {k: v for k, v in aux_of.items() if v} == PENTAGON_AUX
    assert set(transitions) == PENTAGON_DUAL
    primed = {(d1, d2): primeds + "'" if primeds else None for (d1, d2, _), primeds in transitions.items()}
    assert primed == PENTAGON_PRIMED


@pytest.mark.parametrize("n", [4, 6, 27])
def test_the_closed_form_rejects_a_bad_n(n):
    with pytest.raises(ValueError, match="odd integer from 5 to 25"):
        closed_form_tables(n)


def test_building_and_checking_leaves_no_reference_cycle():
    # every object the build and the equivalence check make is freed by
    # reference counting: with the cyclic collector off, it finds nothing
    gc.collect()
    gc.disable()
    try:
        for n in (5, 9):
            pipe = build_pipeline_diagrams(build_surface(n))
            assert sandwich_equivalence_check(pipe).passed
        del pipe
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---- derivation through the diagrams ------------------------------------------


def test_derive_via_diagrams_matches_rule_on_fixtures(pipelines):
    pipe = pipelines[5]
    assert derive_via_diagrams(pipe, "BECE", cyclic=True) == "CB"
    assert derive_via_diagrams(pipe, "ABABA") == ksl_window("ABABA")
    assert derive_via_diagrams(pipe, "EBECE") == ksl_window("EBECE")


def test_derive_via_diagrams_rejects_inadmissible_words(pipelines):
    # the diagram route only accepts admissible walks; ABC is not one (B->C
    # is no arrow), so only the plain rule can send it to the empty word
    with pytest.raises(InvalidPath):
        derive_via_diagrams(pipelines[5], "ABC", cyclic=True)
    with pytest.raises(InvalidPath):
        derive_via_diagrams(pipelines[5], "AC")
    with pytest.raises(InvalidPath):
        derive_via_diagrams(pipelines[5], "AXB")


@pytest.mark.parametrize("word", ["Z", "e", "1", "BEZ", "F"])
def test_derive_via_diagrams_rejects_letters_outside_the_alphabet(pipelines, word):
    # the pentagon's alphabet is A..E; index_for_letter would take all of these
    bad = next(ch for ch in word if ch not in "ABCDE")
    with pytest.raises(InvalidPath, match=repr(bad)):
        derive_via_diagrams(pipelines[5], word)
    with pytest.raises(InvalidPath, match=repr(bad)):
        derive_via_diagrams(pipelines[5], word, cyclic=True)


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_equivalence_check_passes(pipelines, n):
    report = sandwich_equivalence_check(pipelines[n])
    assert report.passed, report.failures[:3]
    # the closed walks of 2 and WALK_LEN + 1 letters, one per cyclic normal
    # form: xy and xyxy per arrows step, and xyzy per inner letter y
    assert report.cycles_checked == 3 * n - 4
    # every arrows walk of WALK_LEN letters, each once: 4n - 6 of them
    assert report.windows_checked == 4 * n - 6
    letters = build_surface(n).letters
    assert report.windows_checked == sum(fits("".join(w), n) for w in product(letters, repeat=WALK_LEN))


@pytest.mark.parametrize("n", [5, 9, 15])
def test_the_walk_check_fails_on_every_flipped_transition(pipelines, n):
    # each of the 4n - 8 dual transitions is the middle of one WALK_LEN
    # walk, and that walk is a cyclic window of a closed walk of 2 or
    # WALK_LEN + 1 letters, so flipping its primed content (empty to its
    # letter, or its letter to empty) in a copy of the tables fails both
    # the window half and the cyclic half of the check
    pipe = pipelines[n]
    assert len(pipe.transitions) == 4 * n - 8
    for key, primeds in pipe.transitions.items():
        flipped = {**pipe.transitions, key: "" if primeds else key[2]}
        mutant = DiagramPipeline(pipe.stages, pipe.aux_of, flipped, pipe.node_letters, pipe.covered_at)
        report = sandwich_equivalence_check(mutant)
        assert any(label.startswith("window ") for label, _, _ in report.failures), key
        assert any(label.startswith("cyclic ") for label, _, _ in report.failures), key


def _walk_on_path(path: str, i: int, moves: list[bool]) -> str:
    """The walk from path letter i that steps right on True and left on
    False, but always inward from an end of the path."""
    word = path[i]
    for right in moves:
        i = i + 1 if i == 0 or (right and i < len(path) - 1) else i - 1
        word += path[i]
    return word


def arrows_walks(n: int, min_size: int, max_size: int):
    """Walks of the n-gon's arrows diagram with min_size to max_size letters, every one reachable."""
    path = arrows_path(n)
    walks = st.builds(
        _walk_on_path,
        st.just(path),
        st.integers(min_value=0, max_value=n - 1),
        st.lists(st.booleans(), min_size=max(min_size - 1, 0), max_size=max_size - 1),
    )
    return st.one_of(st.just(""), walks) if min_size == 0 else walks


def _closed(path: str, word: str) -> str:
    """`word`, a walk on `path`, walked on toward its first letter until its
    last letter is next to it: a closed walk, `word` itself if it is one."""
    at = {letter: i for i, letter in enumerate(path)}
    i, first = at[word[-1]], at[word[0]]
    while abs(i - first) != 1:
        i = i + 1 if i < first or i == 0 else i - 1
        word += path[i]
    return word


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("n", range(5, 27, 2))
@given(data=st.data())
def test_derivation_is_local_to_three_letter_windows(pipelines, n, data):
    # the locality argument behind WALK_LEN: both routes derive a walk as
    # the concatenation of what they derive from its 3-letter windows, so
    # agreement on every 3-letter walk is agreement on every walk
    word = data.draw(arrows_walks(n, 3, 60))
    windows = [word[i - 1 : i + 2] for i in range(1, len(word) - 1)]
    assert derive_via_diagrams(pipelines[n], word) == "".join(derive_via_diagrams(pipelines[n], w) for w in windows)
    assert ksl_window(word) == "".join(ksl_window(w) for w in windows)
    # and behind the cyclic half's closed walks of 2 and WALK_LEN + 1
    # letters: both derive a closed walk as the concatenation, in cyclic
    # order, of what they derive from its cyclic 3-letter windows. A drawn
    # walk of up to 36 letters closes in at most n - 2 more, so every
    # closed walk of 2 to 36 letters can be drawn
    word = _closed(arrows_path(n), data.draw(arrows_walks(n, 1, 36)))
    assert 2 <= len(word) <= 60 and len(word) % 2 == 0 and fits(word + word[0], n)
    windows = [word[i - 1] + word[i] + word[(i + 1) % len(word)] for i in range(len(word))]
    got = derive_via_diagrams(pipelines[n], word, cyclic=True)
    assert cyclic_normal_form(got) == cyclic_normal_form("".join(derive_via_diagrams(pipelines[n], w) for w in windows))
    assert cyclic_normal_form(ksl_cyclic(word)) == cyclic_normal_form("".join(ksl_window(w) for w in windows))


def _reference_walk(pipeline, word, cyclic=False):
    """The diagram walk read by `_reference_dual_steps`: each letter's token,
    then the auxiliary names of its arrow to the next, each token tagged with
    the index of the letter it is or follows, on a tripled copy of a cyclic
    word, keeping what leaves the dual nodes read in the middle copy. It
    names the first bad letter, then the first bad pair, as
    `derive_via_diagrams` does."""
    L = len(word)
    walked = word * 3 if cyclic else word
    lo, hi = (L, 2 * L) if cyclic else (0, L)
    alphabet = pipeline.stages["arrows"].nodes
    for ch in walked:
        if ch not in alphabet:
            raise InvalidPath(f"letter {ch!r} is not in the alphabet {''.join(alphabet)}")
    for pair in zip(walked, walked[1:]):
        if pair not in pipeline.aux_of:
            raise InvalidPath(f"letter pair {pair[0]}->{pair[1]} is not an arrow")
    stream, tag = [], []
    for i, (letter, after) in enumerate(zip_longest(walked, walked[1:])):
        tokens = [(ORIGINAL, letter)] + [(AUXILIARY, name) for name in (pipeline.aux_of[letter, after] if after else ())]
        stream += tokens
        tag += [i] * len(tokens)
    last, out = len(walked) - 1, []
    for i, j, originals, _ in _reference_dual_steps(stream, pipeline.node_letters, pipeline.aux_of):
        (kind, name), at = stream[i], tag[i]
        if not lo <= at < hi:
            continue
        if kind == ORIGINAL and 0 < at < last:
            out.append(name)
        assert j is not None or not cyclic, "tripled walk ended before its transitions"
        if j is not None:
            out.append(pipeline.transitions[(name, stream[j][1], originals)])
    return "".join(out)


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("n", range(5, 27, 2))
@given(data=st.data())
def test_derive_via_diagrams_equals_the_reference_walk(pipelines, n, data):
    # the per-letter lookup against the token reader on windows of 0 to 60
    # letters and closed walks of up to 60, with one letter replaced, by an
    # n-gon letter or one outside the alphabet, in about a fifth of them:
    # the same raw output, rotation included, or the same InvalidPath text
    cyclic = data.draw(st.booleans())
    word = data.draw(arrows_walks(n, 0, 36 if cyclic else 60))
    if cyclic and word:
        word = _closed(arrows_path(n), word)
    if word and data.draw(st.integers(min_value=0, max_value=4)) == 0:
        i = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
        word = word[:i] + data.draw(st.sampled_from(build_surface(n).letters + ("Z",))) + word[i + 1 :]

    def outcome(derive):
        try:
            return derive(pipelines[n], word, cyclic=cyclic)
        except InvalidPath as e:
            return f"InvalidPath: {e}"

    assert outcome(derive_via_diagrams) == outcome(_reference_walk), (word, cyclic)


def _sector_involution(n):
    """J as a letter map: edge k to sigma(1 + (1 - k) mod n). The mirror
    x -> 1 - x of the upper chart maps edge k to 2 - k (mod n) and theta to
    pi - theta, and sigma, the rotation by n - 1 sector steps, brings
    pi - theta in (pi - pi/n, pi] back to (0, pi/n]."""
    sigma = edge_permutation(n, n - 1)
    return {letter_for_index(k): letter_for_index(sigma[1 + (1 - k) % n]) for k in range(1, n + 1)}


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_the_sector_involution_reverses_the_path_and_keeps_the_closed_form(n):
    # J reverses the arrows path, so it maps the diagrams onto themselves:
    # step j to step n - j, whose auxiliary diagonal is n - 2 - i for i = j - 1
    J = _sector_involution(n)
    path = arrows_path(n)
    assert "".join(J[x] for x in path) == path[::-1]

    def dual(node):  # a node letter by J, an auxiliary name l i or u i by its index
        return J[node] if node in J else f"{node[0]}{n - 2 - int(node[1:])}"

    aux_of, transitions = closed_form_tables(n)
    assert {(J[x], J[y]): tuple(map(dual, seq)) for (x, y), seq in aux_of.items()} == aux_of
    mapped = {
        (dual(d1), dual(d2), "".join(J[x] for x in originals)): "".join(J[x] for x in primeds)
        for (d1, d2, originals), primeds in transitions.items()
    }
    assert mapped == transitions


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("n", range(5, 27, 2))
@given(data=st.data())
def test_diagram_derivation_commutes_with_the_sector_involution_and_reversal(pipelines, n, data):
    # on windows and, up to rotation, on closed walks
    J, pipe = _sector_involution(n), pipelines[n]
    window = data.draw(arrows_walks(n, 0, 60))
    closed = _closed(arrows_path(n), data.draw(arrows_walks(n, 1, 36)))
    for word, cyclic in ((window, False), (closed, True)):
        form = cyclic_normal_form if cyclic else str
        derived = derive_via_diagrams(pipe, word, cyclic=cyclic)
        mirrored = derive_via_diagrams(pipe, "".join(J[x] for x in word), cyclic=cyclic)
        assert form(mirrored) == form("".join(J[x] for x in derived)), (word, cyclic)
        assert form(derive_via_diagrams(pipe, word[::-1], cyclic=cyclic)) == form(derived[::-1]), (word, cyclic)


# ---- the arrows path and the words that fit it ------------------------------


def test_arrows_path_fixtures():
    assert arrows_path(5) == "ABECD"
    assert arrows_path(9) == "ABICHDGEF"
    assert fits("", 5) and fits("A", 5) and fits("ABEBECD", 5)
    assert not fits("AC", 5)  # no arrow
    assert not fits("AA", 5)  # 1 + 1 = 2 mod n, but x = y
    assert not fits("ABZ", 5)  # Z is no pentagon letter
    with pytest.raises(ValueError, match="odd integer from 5 to 25"):
        fits("AB", 4)
    with pytest.raises(ValueError, match="odd integer from 5 to 25"):
        arrows_path(27)


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_arrows_path_is_the_closed_form_path(n):
    path, s = arrows_path(n), build_surface(n)
    assert sorted(path) == list(s.letters)
    assert {path[0], path[-1]} == s.node_letters
    assert set(closed_form_tables(n)[0]) == {pair for a, b in zip(path, path[1:]) for pair in ((a, b), (b, a))}


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("n", [5, 9, 25])
@given(data=st.data())
def test_fits_is_what_the_diagram_walk_accepts(pipelines, n, data):
    # a walk with up to two letters replaced by any of the n-gon's, so that
    # words that fit and words that do not are both drawn
    letters = build_surface(n).letters
    word = list(data.draw(arrows_walks(n, 0, 12)))
    for _ in range(data.draw(st.integers(min_value=0, max_value=2)) if word else 0):
        word[data.draw(st.integers(min_value=0, max_value=len(word) - 1))] = data.draw(st.sampled_from(letters))
    word = "".join(word)
    for cyclic, walked in ((False, word), (True, word + word[:1])):
        try:
            derive_via_diagrams(pipelines[n], word, cyclic=cyclic)
        except InvalidPath:
            assert not fits(walked, n), (word, cyclic)
        else:
            assert fits(walked, n), (word, cyclic)


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_traced_words_fit_their_sector_diagram(n):
    # every length-2 factor of a traced word, and of a periodic word's wrap,
    # is an arrow of its sector's diagram once normalized into [0, pi/n)
    s, rng, traced = build_surface(n), random.Random(5100 + n), 0
    for _ in range(20):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        try:
            traj = trace_from_edge(s, rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), theta, max_crossings=300)
        except CornerHit:
            continue
        traced += 1
        word = normalize_direction(s, theta).apply(traj.letters)
        assert fits(word + word[0] if traj.periodic else word, n), (theta, word)
    assert traced >= 15


# ---- serialization -------------------------------------------------------------


def test_diagram_json_and_dot(pentagon):
    diagram = build_arrows_diagram(pentagon)
    data = diagram_json(diagram)
    assert data["stage"] == "arrows"
    assert set(data["nodes"]) == set("ABCDE")
    assert {(a["from"], a["to"]) for a in data["arrows"]} == PENTAGON_ARROWS
    dot = diagram_dot(diagram)
    assert dot.startswith("digraph")
    assert '"A" -> "B"' in dot


def test_labeled_dot_output(pipelines):
    dot = diagram_dot(pipelines[5].stages["primed"])
    assert "label=" in dot
    assert "B'" in dot


def test_arrow_is_hashable():
    assert Arrow("A", "B") == Arrow("A", "B")
    assert len({Arrow("A", "B"), Arrow("A", "B"), Arrow("B", "A")}) == 2
