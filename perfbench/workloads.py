"""The two benchmark workloads: seeded inputs, one operation, its gate.

Every operation is split in two: `op` calls the program through the public
module attributes of ``oddgon`` (so traced runs see it through the wrappers)
and is the only part that is timed; `check` confirms the result by the second
route and raises `GateFailure` when the routes disagree.  A run's inputs are
one `random.Random(seed)` stream cycling through n = 5, 9, 15, so a seed fixes
every operation; a timed run takes as many as its seconds allow, a traced run
the first `window`.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from pathlib import Path

NS = (5, 9, 15)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# A CornerHit on an operation's first trace is a domain outcome, not a failure.
CORNER = "corner-hit"


class GateFailure(Exception):
    """The program's answer disagreed with the benchmark's second route."""


def interiors_agree(got: str, want: str) -> bool:
    """Windows agree after trimming at most one derived letter per end."""
    cores = {want[a : len(want) - b] for a in (0, 1) for b in (0, 1)}
    return any(got[c : len(got) - d] in cores for c in (0, 1) for d in (0, 1))


def draw_inputs(wl, seed: int):
    """The run's endless input stream, cycling through NS; the seed fixes it.

    Besides the random stream, `wl.draw(rng, n, phase)` gets a phase in
    [0, 1) that steps by the golden ratio from a random start for each n, so
    the phases of however many inputs a run takes cover [0, 1) evenly.
    """
    rng = random.Random(seed)
    start = {n: rng.random() for n in NS}
    for i in itertools.count():
        n = NS[i % len(NS)]
        yield wl.draw(rng, n, (start[n] + (i // len(NS)) * GOLDEN) % 1.0)


class VerifySweep:
    """`oddgon verify` with all five checks, run in-process through `cli.main`."""

    name = "verify-sweep"
    window = 3  # traced run: one verification per n
    checks = ("identities", "moduli", "reassembly", "equivalence", "torus")

    def __init__(self, run_dir: Path):
        self.out = run_dir / f"verify-{os.getpid()}.json"

    def setup(self, build) -> None:
        pass  # each verify builds its own surface and pipeline

    def draw(self, rng: random.Random, n: int, phase: float):
        return n, rng.randrange(1 << 31)

    def op(self, inp):
        from oddgon import cli

        n, seed = inp
        argv = ["verify", "--n", str(n), "--checks", ",".join(self.checks), "--seed", str(seed), "--out", str(self.out)]
        return cli.main(argv)

    def crossings(self, rc) -> int:
        return 0  # the operation's input is a seed, not a trajectory

    def check(self, inp, rc) -> None:
        with open(self.out) as fh:
            report = json.load(fh)
        os.unlink(self.out)
        results = report["checks"]
        failed = sorted(name for name, r in results.items() if not r["pass"])
        if rc != 0 or failed or sorted(results) != sorted(self.checks):
            raise GateFailure(f"verify n={inp[0]} seed={inp[1]}: exit {rc}, failed checks {failed}")


class LongDerive:
    """One 3000-crossing trajectory in a generic direction, then its derivation."""

    name = "long-derive"
    window = 9  # traced run: three trajectories per n
    max_crossings = 3000

    def __init__(self, run_dir: Path):
        self.surfaces: dict = {}

    def setup(self, build) -> None:
        """Surfaces for every n with both edge systems built; `build(fn, n)` runs fn(n)."""
        from oddgon import surface

        def one(n):
            s = surface.build_surface(n)
            s.aux_edges
            s.primed_edges
            return s

        self.surfaces = {n: build(one, n) for n in NS}

    def draw(self, rng: random.Random, n: int, phase: float):
        """Edge and point at random; the direction 2*pi*phase, uniform but spread evenly.

        An operation's cost depends mostly on its direction (whether
        derive_geometric must trace it again, how many primed edges it
        crosses), so even spreading keeps the per-n median from hanging on
        which directions a seed happens to draw.
        """
        return n, rng.randrange(1, n + 1), rng.uniform(0.05, 0.95), 2.0 * math.pi * phase

    def op(self, inp):
        from oddgon import flow

        n, k, u, theta = inp
        s = self.surfaces[n]
        try:
            traj = flow.trace_from_edge(s, k, u, theta, max_crossings=self.max_crossings)
        except flow.CornerHit:
            return CORNER
        return traj, flow.derive_geometric(s, traj)

    def crossings(self, result) -> int:
        return 0 if result is CORNER else len(result[0].crossings)

    def check(self, inp, result) -> None:
        from oddgon.derivation import cyclic_normal_form, ksl_cyclic, ksl_window

        if result is CORNER:
            return
        traj, derived = result
        if traj.periodic:
            ok = cyclic_normal_form(derived.letters) == cyclic_normal_form(ksl_cyclic(traj.period_word))
        else:
            ok = interiors_agree(derived.letters, ksl_window(traj.letters))
        if not ok:
            raise GateFailure(f"long-derive {inp}: derived word disagrees with the sandwich rule")


WORKLOADS = {w.name: w for w in (VerifySweep, LongDerive)}
