"""Spans and counters for the traced benchmark run.

Nothing here touches ``oddgon`` until ``Tracer.install`` is called, and
``Tracer.uninstall`` puts every original function back.  Wrappers replace the
name in the module that calls the function (``oddgon.cli`` for the verify
checks, ``oddgon.flow`` for the tracer's own calls), so the program's code is
unchanged and the timed run pays nothing.

A span is ``(id, name, start, end, parent, op, error, info)``: ``parent`` is
the enclosing span on the same thread, or the operation's root span when a
worker thread has none; ``error`` is the exception class name or ``None``;
``info`` is a small number read off the result (crossings traced, transitions
found, ...).  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    error: Optional[str]
    info: object

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        self._counts_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.op: Optional[int] = None
        self.root: Optional[int] = None

    # ---- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._counts_lock:
                self._thread_counts.append(counts)
        return counts

    def counts(self) -> Counter:
        total: Counter = Counter()
        for c in self._thread_counts:
            total.update(c)
        return total

    def call(self, name: str, fn: Callable, args, kwargs, info: Optional[Callable] = None, root: bool = False):
        stack = self._stack()
        parent = None if root else (stack[-1] if stack else self.root)
        sid = next(self._ids)
        if root:
            self.root = sid
        stack.append(sid)
        error = None
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            value = info(args, result) if info is not None and error is None else None
            self.spans.append(Span(sid, name, start, end, parent, self.op, error, value))

    def operation(self, op: int, name: str, fn: Callable, *args):
        """Run one benchmark operation as the root span of its own tree."""
        self.op = op
        try:
            return self.call(name, fn, args, {}, root=True)
        finally:
            self.root = self.op = None

    # ---- installing wrappers ------------------------------------------------

    def _replace(self, namespace: dict, attr: str, new) -> None:
        self._restore.append((namespace, attr, namespace[attr]))
        namespace[attr] = new

    def wrap(self, namespace: dict, attr: str, name: str, info: Optional[Callable] = None) -> None:
        """Record a span named `name` around every call of `namespace[attr]`."""
        fn = namespace[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        self._replace(namespace, attr, wrapper)

    def count(self, namespace: dict, attr: str, key: str) -> None:
        """Count calls of `namespace[attr]` under `key`, without a span."""
        fn = namespace[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counter()[key] += 1
            return fn(*args, **kwargs)

        self._replace(namespace, attr, wrapper)

    def install(self) -> None:
        """Wrap the public entry points of every layer the benchmark reports."""
        import oddgon.cli
        import oddgon.derivation
        import oddgon.flow
        import oddgon.highprec

        # a module's namespace is the dict its own functions look names up in
        cli = vars(oddgon.cli)
        derivation = vars(oddgon.derivation)
        flow = vars(oddgon.flow)
        highprec = vars(oddgon.highprec)

        def crossings(args, traj):
            return (len(traj.crossings), bool(traj.periodic))

        def derived(args, result):
            return (len(result.primed_hits), result.rotation_steps % (2 * args[0].n) != 0)

        self.count(flow, "ray_segment_hit", "geometry.ray_tests")
        self.count(derivation, "ray_segment_hit", "geometry.ray_tests")
        self.wrap(flow, "trace", "flow.trace", crossings)
        self.wrap(flow, "derive_geometric", "flow.derive", derived)
        self.wrap(flow, "normalize_direction", "flow.normalize")

        self.wrap(derivation, "trace_from_edge", "derivation.sample_trace")
        self.wrap(derivation, "build_arrows_diagram", "derivation.arrows")
        self.wrap(derivation, "build_augmented_diagram", "derivation.augmented")

        self.wrap(cli, "build_surface", "surface.build")
        self.wrap(cli, "build_pipeline_diagrams", "derivation.pipeline", lambda args, p: len(p.transitions))
        self.wrap(
            cli,
            "sandwich_equivalence_check",
            "derivation.equivalence",
            lambda args, rep: rep.cycles_checked + rep.windows_checked,
        )
        self.wrap(cli, "decompose_cylinders", "shear.moduli")
        self.wrap(cli, "verify_reassembly", "shear.reassembly")
        self.wrap(cli, "telescoping_identity", "shear.identities")
        self.wrap(cli, "identity_sum", "shear.identities")
        self.wrap(cli, "torus_trace", "torus.trace")
        self.wrap(cli, "torus_derive_geometric", "torus.derive")
        self.wrap(cli, "torus_derive_rule", "torus.derive")
        for fname in ("oracle_digits", "shear_coefficient"):
            self.wrap(highprec, fname, "highprec.oracle")
        # `_cmd_verify` looks each check up in this registry, so a span here
        # covers the whole check as the thread pool runs it
        for check in list(cli["_CHECKS"]):
            self.wrap(cli["_CHECKS"], check, "cli.check")

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, original = self._restore.pop()
            namespace[attr] = original

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


# ---- per-layer metrics from spans ----------------------------------------------


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counts: Counter, window_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) metrics of one traced window; `window_s` is its busy time."""
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.dur

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.dur for s in named(name))

    def self_time(s: Span) -> float:
        # children of a layer span run on its thread, one after another
        return s.dur - child_s.get(s.id, 0.0)

    traces = named("flow.trace")
    trace_s = sum(s.dur for s in traces)
    crossings = sum(s.info[0] for s in traces if s.info is not None)
    periodic = sum(1 for s in traces if s.info is not None and s.info[1])
    derives = named("flow.derive")
    derive_ids = {s.id for s in derives}
    derive_s = sum(s.dur for s in derives)
    retrace_s = sum(s.dur for s in traces if s.parent in derive_ids)
    normalize_s = total("flow.normalize")
    rotated = 0
    primed_hits = 0
    for s in derives:
        if s.info is not None:
            primed_hits += s.info[0]
            rotated += s.info[1]

    pipelines = named("derivation.pipeline")
    pipeline_ids = {s.id for s in pipelines}
    samples = [s for s in named("derivation.sample_trace") if s.parent in pipeline_ids]
    skipped = sum(1 for s in samples if s.error == "CornerHit")
    ray_tests = counts.get("geometry.ray_tests", 0)
    ops = [s for s in spans if s.parent is None and s.op is not None and s.op >= 0]
    ops_s = sum(s.dur for s in ops)
    checks_s = total("cli.check")

    return {
        "surface.build_s": (total("surface.build"), "s"),
        "geometry.ray_tests": (ray_tests, "count"),
        "geometry.ray_tests_per_crossing": (_share(ray_tests, crossings), "ratio"),
        "flow.trace_s": (trace_s, "s"),
        "flow.trace_calls": (len(traces), "count"),
        "flow.crossings": (crossings, "count"),
        "flow.crossings_per_s": (_share(crossings, trace_s), "1/s"),
        "flow.derive_s": (derive_s, "s"),
        "flow.derive_retrace_s": (retrace_s, "s"),
        "flow.normalize_s": (normalize_s, "s"),
        "flow.derive_self_s": (sum(self_time(s) for s in derives), "s"),
        "flow.primed_hits": (primed_hits, "count"),
        "flow.corner_hits": (sum(1 for s in traces if s.error == "CornerHit"), "count"),
        "flow.rotated_share": (_share(rotated, len(derives)), "share"),
        "flow.periodic_share": (_share(periodic, len(traces)), "share"),
        "derivation.pipeline_s": (sum(s.dur for s in pipelines), "s"),
        "derivation.arrows_s": (total("derivation.arrows"), "s"),
        "derivation.augmented_self_s": (sum(self_time(s) for s in named("derivation.augmented")), "s"),
        "derivation.scan_trace_s": (sum(s.dur for s in samples), "s"),
        "derivation.scan_self_s": (sum(self_time(s) for s in pipelines), "s"),
        "derivation.samples": (len(samples), "count"),
        "derivation.samples_skipped": (skipped, "count"),
        "derivation.samples_used_share": (_share(len(samples) - skipped, len(samples)), "share"),
        "derivation.transitions": (sum(s.info for s in pipelines if s.info is not None), "count"),
        "derivation.equivalence_s": (total("derivation.equivalence"), "s"),
        "derivation.words_checked": (sum(s.info for s in named("derivation.equivalence") if s.info is not None), "count"),
        "shear.moduli_s": (total("shear.moduli"), "s"),
        "shear.reassembly_s": (total("shear.reassembly"), "s"),
        "shear.identities_s": (total("shear.identities"), "s"),
        "highprec.oracle_s": (total("highprec.oracle"), "s"),
        "torus.trace_s": (total("torus.trace"), "s"),
        "torus.derive_s": (total("torus.derive"), "s"),
        "torus.orbits": (sum(1 for s in named("torus.trace") if s.error is None), "count"),
        "cli.verify_span_ratio": (_share(checks_s, ops_s) if checks_s else 0.0, "ratio"),
        "trace.window_s": (window_s, "s"),
    }

