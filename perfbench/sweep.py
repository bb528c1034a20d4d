"""Run the benchmark over many seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--out perfbench/reference.json]

For each workload of ``BENCHMARK.json`` this makes one untraced run per
seed, one after the other, with the run length from ``BENCHMARK.json``.
For every end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, (Q3 - Q1) / median, next to
the metric's bound.  It then makes one traced run per workload with seed 7,
criterion 7's league, and keeps its per-layer figures.  ``--out`` stores the
summary, with the machine, as the reference the README quotes; rerun the
command above to make it anew.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_SEED = 7


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1):      # 1: ran, but a check failed
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"python": platform.python_version(), "numpy": numpy.__version__,
               "nproc": len(os.sched_getaffinity(0)),
               "seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [bench_run(bench, name, s, 0) for s in args.seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for r in runs], b)
                           for m, b in bounds.items()},
        }
        for m, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{name:6s} {m:12s} median {s['median']:10.4f}  spread {s['spread']:.4f}"
                  f"  (bound {s['bound']}){flag}", flush=True)
        traced = bench_run(bench, name, TRACED_SEED, 1)
        entry["correct"] = entry["correct"] and traced["correct"]
        entry["traced_seed"] = TRACED_SEED
        entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
        print(f"{name:6s} tracing overhead "
              f"{entry['per_layer']['trace.overhead_pct']:.1f}%", flush=True)
        summary["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
