"""Benchmark for oddgon: one workload per run, timed or traced.

    python3 perfbench/run.py --workload long-derive --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and from nowhere else.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it are a readable summary.

A run's inputs are a stream drawn from ``--seed`` (workloads.py).
``--trace 0`` runs them in order, each once, with nothing wrapped, until
``--seconds`` are spent, and reports the end-to-end metrics.  ``--trace 1``
runs the workload's first few inputs once plain and once with every layer
wrapped (see tracing.py), and reports the per-layer metrics of the traced
operations plus the tracing overhead; the inputs are fixed by the seed, so
its counts repeat exactly.  Spans are written to ``.perfbench_run/`` in the
checkout.
"""
from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 21

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from workloads import CORNER, NS, WORKLOADS, draw_inputs  # noqa: E402


def import_oddgon():
    """Import oddgon from this checkout's src/, refusing any other copy."""
    if not (SRC / "oddgon" / "__init__.py").is_file():
        sys.exit(f"perfbench: no oddgon sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import oddgon

    if Path(oddgon.__file__).resolve().parent != (SRC / "oddgon").resolve():
        sys.exit(f"perfbench: imported oddgon from {oddgon.__file__}, not from {SRC}")
    return oddgon


def plain_build(fn, n):
    return fn(n)


def setup_probe(workload: str) -> None:
    """Child-process body: time import plus workload set-up, print seconds."""
    t0 = time.perf_counter()
    import_oddgon()
    WORKLOADS[workload](RUN_DIR).setup(plain_build)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str) -> float:
    """Set-up time of a fresh process, which imports oddgon and builds from scratch."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs operations, times each one, and applies the workload's gate."""

    def __init__(self, wl, tracer=None, sampler=None):
        self.wl = wl
        self.tracer = tracer
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.corner_hits = 0
        self.busy_s = 0.0

    def run_one(self, index: int, inp) -> Optional[tuple[float, object, list[float]]]:
        """(seconds the operation took, its result, kernel times sampled during it), or None if it failed."""
        self.attempted += 1
        try:
            kernel, cost = [], 0.0
            t0 = time.perf_counter()
            if self.tracer is not None:
                result = self.tracer.operation(index, f"op.n{inp[0]}", self.wl.op, inp)
            elif self.sampler is not None:
                result, kernel, cost = self.sampler.call(self.wl.op, inp)
            else:
                result = self.wl.op(inp)
            elapsed = time.perf_counter() - t0 - cost
            self.busy_s += elapsed
            if result is CORNER:
                self.corner_hits += 1
            else:
                self.wl.check(inp, result)
            return elapsed, result, kernel
        except Exception:  # every failure is counted, reported and survived
            self.failed += 1
            if self.failed <= 3:
                print(f"perfbench: operation {index} {inp!r} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None


def timed_run(wl, seed: int, seconds: float) -> tuple[int, int, dict]:
    """Run the seed's inputs in order, each once, until `seconds` are spent.

    Every n gets at least one input.  The SETUP_PROBES set-up probes are spread
    over the run, a few between operations, so that set-up time and operation
    time sample the same stretch of a machine whose speed drifts.  While each
    operation runs, the reference kernel is sampled every
    reference.INTERVAL_S (see reference.py); each n's mean operation time is
    scaled by reference.NOMINAL_S over the harmonic mean of the kernel times
    sampled during that n's operations, which weights each stretch of the
    operations by how much work the machine got done in it.
    """
    times: dict[int, list[float]] = {n: [] for n in NS}
    kernel: dict[int, list[float]] = {n: [] for n in NS}
    crossings = 0
    setup: list[float] = []
    start = time.perf_counter()
    with reference.Sampler() as sampler:
        runner = Runner(wl, sampler=sampler)
        for index, inp in enumerate(draw_inputs(wl, seed)):
            elapsed = time.perf_counter() - start
            if index >= len(NS) and elapsed >= seconds:
                break
            while len(setup) < SETUP_PROBES * min(1.0, elapsed / seconds):
                setup.append(measure_setup(wl.name))
            done = runner.run_one(index, inp)
            if done is not None:
                times[inp[0]].append(done[0])
                kernel[inp[0]].extend(done[2])
                crossings += wl.crossings(done[1])
        while len(setup) < SETUP_PROBES:
            setup.append(measure_setup(wl.name))
    wall = time.perf_counter() - start
    for n in NS:
        if not times[n]:
            sys.exit(f"perfbench: every {wl.name} operation at n={n} failed")
    metrics = {
        "ok_share": ((runner.attempted - runner.failed) / runner.attempted, "share"),
        "setup_s": (statistics.median(setup), "s"),
    }
    everywhere = [k for n in NS for k in kernel[n]] or [reference.seconds() for _ in range(9)]
    speed = {n: reference.NOMINAL_S / statistics.harmonic_mean(kernel[n] or everywhere) for n in NS}
    for n in NS:
        metrics[f"op_ms.n{n}"] = (1000.0 * statistics.fmean(times[n]) * speed[n], "ms")
    print(
        f"{wl.name}: {runner.attempted} operations ({', '.join(f'n={n}: {len(times[n])}' for n in NS)} timed) "
        f"in {wall:.2f} s, {runner.failed} failed, {runner.corner_hits} corner hits"
    )
    print(
        f"  reference kernel: {len(everywhere)} samples, harmonic mean {1000.0 * statistics.harmonic_mean(everywhere):.4g} ms; "
        f"speed factor {', '.join(f'n{n} {speed[n]:.4g}' for n in NS)}; "
        f"uncorrected mean op_ms {', '.join(f'n{n} {1000.0 * statistics.fmean(times[n]):.6g}' for n in NS)}"
    )
    if crossings:  # informational: input crossings traced and derived per second of operation time
        print(f"  input crossings per second {crossings / runner.busy_s:.6g}")
    return runner.attempted, runner.failed, metrics


def traced_run(wl, seed: int) -> tuple[int, int, dict]:
    """Each input once plain and once traced, back to back, so drift cancels."""
    from tracing import Tracer, layer_metrics

    inputs = list(itertools.islice(draw_inputs(wl, seed), wl.window))
    tracer = Tracer()
    plain = Runner(wl)
    traced = Runner(wl, tracer)
    tracer.install()
    try:
        tracer.op = -1  # set-up spans belong to no operation
        wl.setup(lambda fn, n: tracer.call("surface.build", fn, (n,), {}))
        tracer.op = None
    finally:
        tracer.uninstall()
    for index, inp in enumerate(inputs):
        plain.run_one(index, inp)
        tracer.install()
        try:
            traced.run_one(index, inp)
        finally:
            tracer.uninstall()

    RUN_DIR.mkdir(exist_ok=True)
    spans_path = RUN_DIR / f"spans-{wl.name}-{seed}.jsonl"
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, tracer.counts(), traced.busy_s)
    overhead = traced.busy_s - plain.busy_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / plain.busy_s, "share")
    print(
        f"{wl.name}: {len(inputs)} operations, {plain.busy_s:.3f} s plain, {traced.busy_s:.3f} s traced; "
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
    )
    return plain.attempted + traced.attempted, plain.failed + traced.failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import_oddgon()  # fails early, before any child is started, if src/ is missing
    RUN_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](RUN_DIR)
    wl.setup(plain_build)

    if args.trace:
        attempted, failed, raw = traced_run(wl, args.seed)
    else:
        attempted, failed, raw = timed_run(wl, args.seed, args.seconds)
        raw["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(raw.items())}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
