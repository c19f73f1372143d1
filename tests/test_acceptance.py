"""Acceptance harness: one test and one printed pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion lines;
add -s to see the printed summaries for passing criteria too.
"""
import math
import random
import time
from collections import defaultdict

import pytest

from oddgon import highprec
from oddgon.derivation import (
    build_arrows_diagram,
    cyclic_normal_form,
    derive_via_diagrams,
    ksl_cyclic,
    ksl_window,
)
from oddgon.flow import CornerHit, derive_geometric, trace_from_edge
from oddgon.shear import decompose_cylinders, identity_sum, telescoping_identity, verify_reassembly
from oddgon.surface import build_surface
from oddgon.torus import torus_derive_geometric, torus_derive_rule, torus_trace

from conftest import window_agrees

SWEEP_NS = list(range(5, 23, 2))
DIAGRAM_NS = (5, 7, 9)


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{tail}")


def test_criterion_1_trig_identities():
    rng = random.Random(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.01, math.pi - 0.01)
        k = rng.randrange(1, 13)
        lhs, rhs = telescoping_identity(theta, k)
        worst = max(worst, abs(lhs - rhs))
        lhs, rhs = identity_sum(theta, k)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _line(1, "trig identities, 1000 random (theta, k)", ok, f"max |lhs-rhs| {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_cylinder_moduli():
    t0 = time.perf_counter()
    worst = 0.0
    for n in SWEEP_NS:
        want = float(highprec.shear_coefficient(n))
        cyls = decompose_cylinders(build_surface(n))
        assert len(cyls) == (n - 1) // 2
        for c in cyls:
            worst = max(worst, abs(c.modulus - want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _line(2, "cylinder moduli equal 2cot(pi/n), n in 5..21", ok, f"max dev {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_3_reassembly():
    t0 = time.perf_counter()
    worst = 0.0
    all_y = True
    for n in SWEEP_NS:
        rep = verify_reassembly(build_surface(n), tol=1e-8)
        worst = max(worst, rep.max_residual)
        all_y = all_y and rep.y_preserved
        assert rep.passed, f"n={n}: residual {rep.max_residual} at {rep.worst}"
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and all_y and elapsed < 1.0
    _line(3, "reassembly guide vs sheared vertices, n in 5..21", ok,
          f"max residual {worst:.2e}, y bit-identical {all_y}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert all_y
    assert elapsed < 1.0


def test_criterion_4_combinatorial_fixtures():
    got = (
        ksl_window("ABCDCCCCBCBCDE"),
        ksl_cyclic("BECE"),
        ksl_cyclic("BC"),
        ksl_cyclic("ABC"),
    )
    want = ("DCCBCB", "BC", "BC", "")
    ok = got == want
    _line(4, "worked fixtures of the sandwich rule", ok, f"{got}")
    assert got == want


def _closed_walks(arrows: set[tuple[str, str]], max_len: int) -> set[str]:
    """Every closed walk of length <= max_len, as a rooted word per rotation."""
    adj: dict[str, list[str]] = defaultdict(list)
    for a, b in sorted(arrows):
        adj[a].append(b)
    out: set[str] = set()

    def rec(start: str, word: str) -> None:
        last = word[-1]
        if start in adj[last]:
            out.add(word)
        if len(word) < max_len:
            for nxt in adj[last]:
                rec(start, word + nxt)

    for s in adj:
        rec(s, s)
    return {w for w in out if len(w) <= max_len}


def _random_walk(adj: dict[str, list[str]], rng: random.Random, length: int) -> str:
    node = rng.choice(sorted(adj))
    word = node
    while len(word) < length:
        node = rng.choice(adj[node])
        word += node
    return word


def test_criterion_5_diagram_equivalence(pipelines):
    t0 = time.perf_counter()
    mismatches = 0
    cycles = windows = 0
    for n in DIAGRAM_NS:
        pipe = pipelines[n]
        arrows = {(a.source, a.target) for a in build_arrows_diagram(build_surface(n)).arrows}
        for word in sorted(_closed_walks(arrows, 10)):
            cycles += 1
            got = cyclic_normal_form(derive_via_diagrams(pipe, word, cyclic=True))
            want = cyclic_normal_form(ksl_cyclic(word))
            if got != want:
                mismatches += 1
        adj: dict[str, list[str]] = defaultdict(list)
        for a, b in sorted(arrows):
            adj[a].append(b)
        rng = random.Random(50 + n)
        for _ in range(10_000):
            word = _random_walk(adj, rng, rng.randrange(3, 31))
            windows += 1
            if derive_via_diagrams(pipe, word) != ksl_window(word):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _line(5, "diagram derivation equals the rule, n in {5,7,9}", ok,
          f"{cycles} exhaustive cycles + {windows} random windows, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_6_geometric_vs_combinatorial(pipelines):
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in DIAGRAM_NS:
        s = build_surface(n)
        rng = random.Random(60 + n)
        done = 0
        while done < 200:
            theta = s.sector * rng.uniform(0.02, 0.98)
            k = rng.randrange(1, n + 1)
            u = rng.uniform(0.05, 0.95)
            try:
                traj = trace_from_edge(s, k, u, theta, max_crossings=70)
            except CornerHit:
                continue
            if len(traj.crossings) < 60:
                continue
            result = derive_geometric(s, traj)
            done += 1
            checked += 1
            if traj.periodic:
                agree = cyclic_normal_form(result.letters) == cyclic_normal_form(ksl_cyclic(traj.period_word))
            else:
                agree = window_agrees(result.letters, traj.letters)
            if not agree:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _line(6, "derived trajectory window equals rule of the window", ok,
          f"{checked} trajectories with >= 60 crossings, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_7_pentagon_facts(pentagon, pipelines):
    arrows = {(a.source, a.target) for a in build_arrows_diagram(pentagon).arrows}
    fact_arrows = ("A", "B") in arrows and ("A", "C") not in arrows

    rng = random.Random(7)
    alternation_ok = True
    even_ok = True
    periodic_seen = 0
    checked = 0
    while checked < 60:
        theta = rng.uniform(0.02, math.pi - 0.02)
        if rng.random() < 0.3:
            theta = math.pi / 10  # the completely periodic direction
        try:
            traj = trace_from_edge(pentagon, rng.randrange(1, 6), rng.uniform(0.05, 0.95), theta, max_crossings=120)
        except CornerHit:
            continue
        checked += 1
        for a, b in zip(traj.crossings, traj.crossings[1:]):
            if a.polygon == b.polygon:
                alternation_ok = False
        if traj.periodic:
            periodic_seen += 1
            if traj.period % 2 != 0:
                even_ok = False

    traj = trace_from_edge(pentagon, 2, 0.55, math.pi / 10)
    word = traj.period_word
    aux_of = pipelines[5].aux_of
    to_classic = {"l1": "g", "u2": "h", "l2": "f", "u1": "i"}
    augmented = "".join(
        word[i] + "".join(to_classic[a] for a in aux_of.get((word[i], word[(i + 1) % len(word)]), ()))
        for i in range(len(word))
    )
    # the orbit word may start at any rotation of BECE; compare cyclically in pairs
    aug_ok = cyclic_pairs(augmented) == cyclic_pairs("BgEhCfEi")

    ok = fact_arrows and alternation_ok and even_ok and periodic_seen > 0 and aug_ok
    _line(7, "pentagon diagram facts", ok,
          f"A->B and not A->C {fact_arrows}, alternation {alternation_ok}, "
          f"even periods {even_ok} ({periodic_seen} periodic), augmented word {augmented}")
    assert fact_arrows
    assert alternation_ok
    assert even_ok and periodic_seen > 0
    assert aug_ok


def cyclic_pairs(word: str) -> str:
    pairs = [word[i : i + 2] for i in range(0, len(word), 2)]
    return cyclic_normal_form("".join(min(pairs[i:] + pairs[:i] for i in range(len(pairs)))))


def test_criterion_8_torus_baseline():
    traj = torus_trace((0.25, 0.4), math.atan2(1.0, 3.0))
    assert traj.periodic
    assert cyclic_normal_form(traj.period_word) == cyclic_normal_form("ABBB")
    abbb_ok = cyclic_normal_form(torus_derive_geometric(traj)) == cyclic_normal_form("ABB")

    rng = random.Random(8)
    mismatches = 0
    checked = 0
    while checked < 200:
        theta = rng.uniform(0.02, math.pi / 4 - 0.02)
        start = (rng.random(), rng.random())
        try:
            orbit = torus_trace(start, theta, max_crossings=rng.randrange(6, 50))
            geo = torus_derive_geometric(orbit)
        except CornerHit:
            continue
        checked += 1
        if orbit.periodic:
            if cyclic_normal_form(geo) != cyclic_normal_form(torus_derive_rule(orbit.period_word, cyclic=True)):
                mismatches += 1
            continue
        rule = torus_derive_rule(orbit.letters)
        rp, gp = rule.split("A"), geo.split("A")
        agree = (
            len(gp) == len(rp)
            and [len(x) for x in gp[1:-1]] == [len(x) for x in rp[1:-1]]
            and len(gp[0]) in (len(rp[0]), len(rp[0]) - 1)
            and len(gp[-1]) in (len(rp[-1]), len(rp[-1]) - 1)
        )
        if not agree:
            mismatches += 1

    negative = ksl_cyclic("ABBB") != torus_derive_rule("ABBB", cyclic=True)
    ok = abbb_ok and mismatches == 0 and negative
    _line(8, "square-torus baseline", ok,
          f"ABBB -> ABB {abbb_ok}, {checked} random orbits with {mismatches} mismatches, "
          f"sandwich rule differs {negative}")
    assert abbb_ok
    assert mismatches == 0
    assert negative


KEEP_MIDDLE = ("GBG", "CGC", "FCF", "FDF", "CFC", "GCG")
DROP_MIDDLE = ("BGC", "GCF", "CFD", "DFC", "FCG", "CGB")


def test_criterion_9_heptagon_fragments(pipelines):
    pipe = pipelines[7]
    results = {}
    for frag in KEEP_MIDDLE + DROP_MIDDLE:
        rule = ksl_window(frag)
        via = derive_via_diagrams(pipe, frag)
        results[frag] = (rule, via)
    kept_ok = all(results[f] == (f[1], f[1]) for f in KEEP_MIDDLE)
    dropped_ok = all(results[f] == ("", "") for f in DROP_MIDDLE)
    ok = kept_ok and dropped_ok
    _line(9, "heptagon length-3 fragment table", ok,
          f"six kept-middle {kept_ok}, six dropped-middle {dropped_ok}")
    assert kept_ok, {f: results[f] for f in KEEP_MIDDLE}
    assert dropped_ok, {f: results[f] for f in DROP_MIDDLE}
