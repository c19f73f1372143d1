"""Write baseline.json and interactions.json from measure.py outputs.

    python3 perfbench/measure.py --seeds 1-10 --out .perfbench_run/ten.json
    python3 perfbench/measure.py --seeds 3,3,3,3,3 --out .perfbench_run/noise.json
    python3 perfbench/measure.py --seeds 1 --trace 1 --out .perfbench_run/traced_a.json
    python3 perfbench/measure.py --seeds 1 --trace 1 --out .perfbench_run/traced_b.json
    python3 perfbench/measure.py --seeds 7777 --out .perfbench_run/confirm.json
    python3 perfbench/make_baseline.py --commit <sha> --machine "<cpu, cores, python>" \\
        .perfbench_run/{ten,noise,traced_a,traced_b,confirm}.json

`ten` gives each end-to-end metric's median and spread over ten seeds,
`noise` the spread of one seed run again (run-to-run noise alone), the two
traced runs the per-layer values and the exact-repeat check, and `confirm` a
seed not used while building, compared with the ten-seed median.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

EXACT = [
    "flow.crossings", "flow.trace_calls", "flow.primed_hits", "flow.corner_hits", "geometry.ray_tests",
    "derivation.samples", "derivation.samples_skipped", "derivation.transitions", "derivation.words_checked",
    "torus.orbits", "flow.rotated_share", "flow.periodic_share",
]

VS, LD = "verify-sweep", "long-derive"
TIMES = ["op_ms.n5", "op_ms.n9", "op_ms.n15"]
SMALL = "small share of verify-sweep; ROADMAP items 2-3 should not move it"
# per-layer metric: (end-to-end metrics it should move, workloads where it does, note)
MOVES = {
    "surface.build_s": (["setup_s"], [LD], "a cache that moves edge work into Surface raises it"),
    "geometry.ray_tests": (TIMES, [VS, LD], "exact count; moves each workload in proportion to its tracing share"),
    "geometry.ray_tests_per_crossing": (TIMES, [VS, LD], "exact ratio; edge culling or batching lowers it"),
    "flow.trace_s": (TIMES, [VS, LD], "long-derive op_ms.n* (derive_crossings_per_s), about a quarter of verify-sweep"),
    "flow.trace_calls": (TIMES, [VS, LD], "exact count"),
    "flow.crossings": (TIMES, [VS, LD], "exact count; the work unit of tracing"),
    "flow.crossings_per_s": (TIMES, [VS, LD], "tracing speed"),
    "flow.derive_s": (TIMES, [LD], "derive_geometric as a whole"),
    "flow.derive_retrace_s": (TIMES, [LD], "re-trace of directions outside the sector"),
    "flow.normalize_s": (TIMES, [LD], "per-call cost; a small share of 3000-crossing operations"),
    "flow.derive_self_s": (TIMES, [LD], "primed-edge scan"),
    "flow.primed_hits": (["ok_share"], [LD], "exact count; must repeat for a fixed seed"),
    "flow.corner_hits": (["ok_share"], [VS, LD], "exact count; must repeat for a fixed seed"),
    "flow.rotated_share": (TIMES, [LD], "input property; must repeat for a fixed seed"),
    "flow.periodic_share": (["ok_share"], [LD], "periodic traces / traces; near 0 in generic directions"),
    "derivation.pipeline_s": (TIMES, [VS], "no other workload builds a pipeline"),
    "derivation.arrows_s": (TIMES, [VS], "small"),
    "derivation.augmented_self_s": (TIMES, [VS], "small"),
    "derivation.scan_trace_s": (TIMES, [VS], "sample traces inside the pipeline"),
    "derivation.scan_self_s": (TIMES, [VS], "event scans and dual enumeration; a scan rewrite moves verify-sweep most and nothing else"),
    "derivation.samples": (TIMES, [VS], "exact count; early stop or stratified sampling moves it"),
    "derivation.samples_skipped": (["ok_share"], [VS], "exact count"),
    "derivation.samples_used_share": (TIMES, [VS], "useful-to-attempted ratio of sampling"),
    "derivation.transitions": (["ok_share"], [VS], "exact count; must repeat"),
    "derivation.equivalence_s": (TIMES, [VS], "small share"),
    "derivation.words_checked": (TIMES, [VS], "exact count"),
    "shear.moduli_s": (TIMES, [VS], SMALL),
    "shear.reassembly_s": (TIMES, [VS], SMALL),
    "shear.identities_s": (TIMES, [VS], SMALL),
    "highprec.oracle_s": (TIMES, [VS], SMALL),
    "torus.trace_s": (TIMES, [VS], SMALL),
    "torus.derive_s": (TIMES, [VS], SMALL),
    "torus.orbits": (TIMES, [VS], "exact count"),
    "cli.verify_span_ratio": (TIMES, [VS], "above 1 means the thread pool overlapped checks; removing the pool brings it to 1"),
    "trace.window_s": ([], [VS, LD], "traced operations' total time; the base of every share here"),
    "trace.overhead_s": ([], [VS, LD], "cost of tracing, not of the program"),
    "trace.overhead_share": ([], [VS, LD], "cost of tracing, not of the program"),
}


def only_run(record: dict, workload: str) -> dict:
    (run,) = record["workloads"][workload]["runs"]
    return run


def summary(record: dict, workload: str) -> dict:
    keep = ("median", "q1", "q3", "spread", "unit")
    return {k: {f: v[f] for f in keep} for k, v in record["workloads"][workload]["summary"].items()}


def interactions(traced: dict) -> dict:
    layers = {}
    for m in SPEC["per_layer"]:
        moves, workloads, note = MOVES[m["name"]]
        entry = {"moves": moves, "workloads": workloads, "note": note, "baseline": {}}
        for w in WORKLOADS:
            metrics = only_run(traced, w)["metrics"]
            value = metrics[m["name"]]["value"]
            entry["baseline"][w] = {"value": value}
            if m["unit"] == "s" and m["name"] != "trace.window_s":
                entry["baseline"][w]["share"] = value / metrics["trace.window_s"]["value"]
        layers[m["name"]] = entry
    return {
        "about": "For each per-layer metric: the end-to-end metrics it should move, on which workloads, and its "
                 "value in the baseline traced run; for times, share = seconds / trace.window_s of that workload.",
        "seed": only_run(traced, WORKLOADS[0])["seed"],
        "layers": layers,
    }


def baseline(ten: dict, noise: dict, traced_a: dict, traced_b: dict, confirm: dict, commit: str, machine: str) -> dict:
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    end_to_end, exact, conf = {}, {}, {}
    for w in WORKLOADS:
        end_to_end[w] = {
            "summary": summary(ten, w),
            "same_seed_summary": summary(noise, w),
            "runs": [
                {"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"]}
                | {k: v["value"] for k, v in r["metrics"].items()}
                | {"summary": r["summary"]}
                for r in ten["workloads"][w]["runs"]
            ],
        }
        a, b = only_run(traced_a, w)["metrics"], only_run(traced_b, w)["metrics"]
        exact[w] = {k: a[k]["value"] for k in EXACT}
        exact[w]["identical_in_two_runs"] = all(a[k]["value"] == b[k]["value"] for k in EXACT)
        run = only_run(confirm, w)
        checks = {}
        for k, v in run["metrics"].items():
            med = ten["workloads"][w]["summary"][k]["median"]
            worse = (v["value"] - med) / med if bounds[k]["better"] == "lower" else (med - v["value"]) / med
            checks[k] = {"value": v["value"], "worse_than_median": worse, "within_bound": worse <= bounds[k]["bound"]}
        conf[w] = {"seed": run["seed"], "attempted": run["attempted"], "failed": run["failed"], "metrics": checks}
    return {
        "about": "Seed-commit figures measured with this benchmark: ten seeds per workload (end_to_end.summary), "
                 "one seed run again (same_seed_summary: run-to-run noise without input variance), one run on a "
                 "seed not used while building it (confirm), and two traced runs with one seed (exact_counts).",
        "commit": commit,
        "machine": machine,
        "run_seconds": ten["seconds"],
        "seeds": [r["seed"] for r in ten["workloads"][WORKLOADS[0]]["runs"]],
        "same_seed": [r["seed"] for r in noise["workloads"][WORKLOADS[0]]["runs"]],
        "end_to_end": end_to_end,
        "confirm": conf,
        "exact_counts": exact,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True)
    ap.add_argument("--machine", required=True)
    ap.add_argument("records", nargs=5, type=Path, help="ten, noise, traced_a, traced_b, confirm")
    args = ap.parse_args(argv)
    ten, noise, traced_a, traced_b, confirm = (json.loads(p.read_text()) for p in args.records)
    assert sorted(MOVES) == sorted(m["name"] for m in SPEC["per_layer"])
    (HERE / "interactions.json").write_text(json.dumps(interactions(traced_a), indent=1) + "\n")
    base = baseline(ten, noise, traced_a, traced_b, confirm, args.commit, args.machine)
    (HERE / "baseline.json").write_text(json.dumps(base, indent=1) + "\n")
    print(json.dumps({"confirm": base["confirm"], "exact_counts": base["exact_counts"]}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
