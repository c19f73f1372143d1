"""The traced benchmark run wraps program names by string; keep them present.
The committed BENCH_*.json results must name what the benchmark measures."""
import importlib.util
import json
from pathlib import Path

import pytest

import oddgon.cli
import oddgon.derivation
import oddgon.flow

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    before = {
        "flow": dict(vars(oddgon.flow)),
        "derivation": dict(vars(oddgon.derivation)),
        "checks": dict(oddgon.cli._CHECKS),
    }
    tracer = _load_tracing().Tracer()
    tracer.install()  # raises KeyError when a wrapped name has gone
    try:
        assert oddgon.flow.trace is not before["flow"]["trace"]
        assert oddgon.derivation.ray_segment_hit is not before["derivation"]["ray_segment_hit"]
    finally:
        tracer.uninstall()
    assert oddgon.flow.trace is before["flow"]["trace"]
    assert oddgon.flow.normalize_direction is before["flow"]["normalize_direction"]
    assert oddgon.derivation.trace_from_edge is before["derivation"]["trace_from_edge"]
    assert oddgon.cli._CHECKS == before["checks"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_result_names_a_benchmark_metric(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = json.loads(path.read_text())
    assert {"what", "parent", "commands", "claim", "end_to_end", "per_layer"} <= result.keys()
    workload, metric = result["claim"]["metric"].split(" ")
    assert workload in {w["name"] for w in benchmark["workloads"]}
    assert metric in {m["name"] for m in benchmark["end_to_end"]}
