"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/measure.py --seeds 1-10              # end-to-end, all workloads
    python3 perfbench/measure.py --seeds 7 --trace 1       # per-layer, all workloads
    python3 perfbench/measure.py --workloads long-derive --seeds 1-5 --out .perfbench_run/ld.json
    python3 perfbench/measure.py --workloads verify-sweep --seeds 3,3,3,3,3   # noise alone: one seed again

Each run is a separate `run.py` process, started from the checkout root and
waited for.  For every workload and metric it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median, marked against the metric's bound in BENCHMARK.json.
A seed may repeat, to separate run-to-run noise from the spread between
inputs.  `--out` keeps every run's result line and summary lines for later
comparison.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *summary, result = proc.stdout.strip().splitlines()
    return dict(json.loads(result), summary=summary)


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="write every run's result here as JSON")
    args = ap.parse_args(argv)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    record: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = dict(run_once(workload, seed, args.seconds, args.trace), seed=seed)
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
        summary = {}
        print(f"\n{workload}  ({len(runs)} runs)")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            s = summarise(values)
            summary[name] = dict(s, unit=unit)
            bound = bounds[name]
            mark = ""
            if bound is not None:
                mark = "ok" if s["spread"] <= bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER")
                mark = f"bound {bound:<5} {mark}"
            print(f"  {name:34s} {s['median']:<14.6g} {unit:6s} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}  {mark}")
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        print(flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
