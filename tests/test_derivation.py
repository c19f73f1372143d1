import gc
import math
import random
from itertools import product

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
    _START,
    _dual_step,
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
from oddgon.flow import CornerHit, crossing_events, normalize_direction, trace_from_edge
from oddgon.geometry import EPS, ray_segment_hit
from oddgon.surface import AUXILIARY, LOWER, PRIMED, UPPER, build_surface, index_for_letter, letter_for_index
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


def _read(segments, nodes, aux_of=None):
    """The state after a walk's (letter, cell) segments, and the transitions they complete."""
    state, done = _START, []
    for letter, cell in segments:
        state, steps = _dual_step(state, letter, cell, nodes, aux_of)
        done += steps
    return state, done


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
    steps = [("A", "l1", "B", "BE"), ("l1", "u1", "", ""), ("u1", "D", "E", "C")]
    state, done = _read(segments, nodes)
    # the stretch before the first dual node comes first, from no node
    assert done == [(None, "A", "B", "")] + steps
    assert state[:3] == ("D", "C", "D")  # the last node and what follows it
    assert _read([("B", ((PRIMED, "C"),))], nodes) == ((None, "B", "C", None, ()), [])
    # one segment completes every transition it holds a dual node of
    assert _dual_step(_read(segments[:2], nodes)[0], *segments[2], nodes)[1] == tuple(steps[:2])
    # given the augmented labels, the same step checks the auxiliary names between letters
    aux_of = {("B", "A"): (), ("A", "B"): (), ("B", "E"): ("l1", "u1"), ("E", "D"): (), ("D", "C"): ()}
    state, checked = _read(segments, nodes, aux_of)
    assert checked == done and state[:3] == ("D", "C", "D")
    with pytest.raises(AssertionError, match=r"\('l1', 'u1'\) for B->E differ from region label \('l1',\)"):
        _read(segments, nodes, {**aux_of, ("B", "E"): ("l1",)})
    with pytest.raises(AssertionError, match="pair D->C has no arrow"):
        _read(segments, nodes, {k: v for k, v in aux_of.items() if k != ("D", "C")})


def _reference_dual_steps(stream, nodes, aux_of=None):
    """The per-token reader the per-segment step replaces: for each dual node of
    a flat (kind, name) stream at position i, (i, j, originals, primeds), j the
    next dual node's position (None after the last); given aux_of, it checks
    the auxiliary names between consecutive original letters."""
    i = x = None
    originals, primeds, between = [], [], []
    for j, (kind, name) in enumerate(stream):
        if kind == PRIMED:
            primeds.append(name)
            continue
        if aux_of is not None:
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


def _reference_scan(surface, aux_of):
    """The sampled scan read token by token, every segment in full, over flat streams."""
    edges = {p: surface.aux_for(p) + surface.primed_for(p) for p in (UPPER, LOWER)}
    observed, first_seen = {}, {}
    for sample, (k, u, theta) in enumerate(_sector_sample_plan(surface), 1):
        try:
            traj = trace_from_edge(surface, k, u, theta, max_crossings=PLAN_CROSSINGS)
        except CornerHit:
            continue
        events = interleaved_events(traj, crossing_events(surface, traj, edges))
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
    # the reader's step is kept for the whole build per (state, edge index,
    # cell tokens), so over the plan it never runs twice on one input, and
    # far fewer times than segments are read, with the same table
    s, pipe = build_surface(n), pipelines[n]  # built before the step is counted
    step, calls, read = derivation._dual_step, [], []

    def counted(state, letter, cell, nodes, aux_of=None):
        calls.append((state, letter, cell))
        return step(state, letter, cell, nodes, aux_of)

    def traced(*args, **kwargs):
        traj = trace_from_edge(*args, **kwargs)
        read.append(len(traj.indices))  # every crossing is stepped, with its segment's cell
        return traj

    monkeypatch.setattr(derivation, "_dual_step", counted)
    monkeypatch.setattr(derivation, "trace_from_edge", traced)
    observed, _ = _scan_sampled_transitions(s, pipe.aux_of)
    assert observed == pipe.transitions
    assert len(set(calls)) == len(calls)
    assert 0 < 4 * len(calls) < sum(read)


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
    assert derive_via_diagrams(pipe, "BECE", cyclic=True) in ("BC", "CB")
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


def _unpruned_cyclic_walks(pipeline, max_len):
    """Every closed walk from every letter, through any letters, as normal forms."""
    succ = derivation._successors(pipeline.aux_of)
    words, paths = set(), list(succ)
    while paths:
        path = paths.pop()
        for y in succ.get(path[-1], ()):
            if y == path[0]:
                words.add(cyclic_normal_form(path))
            if len(path) < max_len:
                paths.append(path + y)
    return words


@pytest.mark.parametrize("n", range(5, 27, 2))
def test_cyclic_walks_equal_the_unpruned_enumeration(pipelines, n):
    # a walk from a letter goes on only through letters no less than it,
    # which finds every normal form, since one begins at its least letter
    words = derivation._cyclic_walks(pipelines[n], derivation.MAX_CYCLE_LEN)
    assert words == _unpruned_cyclic_walks(pipelines[n], derivation.MAX_CYCLE_LEN)
    assert all(cyclic_normal_form(w) == w for w in words)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_equivalence_check_passes(pipelines, n):
    cycles, walks = {5: (48, 14), 7: (82, 22), 9: (116, 30)}[n]
    report = sandwich_equivalence_check(pipelines[n])
    assert report.passed, report.failures[:3]
    assert report.cycles_checked == cycles
    # every arrows walk of WALK_LEN letters, each once: 4n - 6 of them
    assert report.windows_checked == walks == 4 * n - 6
    letters = build_surface(n).letters
    assert walks == sum(fits("".join(w), n) for w in product(letters, repeat=WALK_LEN))


@pytest.mark.parametrize("n", [5, 9, 15])
def test_the_walk_check_fails_on_every_flipped_transition(pipelines, n):
    # each of the 4n - 8 dual transitions is the middle of one WALK_LEN
    # walk, so flipping its primed content (empty to its letter, or its
    # letter to empty) in a copy of the tables fails the walk half of the check
    pipe = pipelines[n]
    assert len(pipe.transitions) == 4 * n - 8
    for key, primeds in pipe.transitions.items():
        flipped = {**pipe.transitions, key: "" if primeds else key[2]}
        mutant = DiagramPipeline(pipe.stages, pipe.aux_of, flipped, pipe.node_letters, pipe.covered_at)
        report = sandwich_equivalence_check(mutant)
        assert any(label.startswith("window ") for label, _, _ in report.failures), key


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
