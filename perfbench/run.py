"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload grid|d1|query --seed N --seconds S --trace 0|1

``--trace 0`` repeats whole passes of the program's user-facing calls
until ``--seconds`` have passed, with at least 2 s of set-ups before each
pass, and reports the end-to-end metrics: median set-up time, median pass
time, and the process's peak memory through the first pass, read before any
check runs.  ``--trace 1`` sets up once, makes
one untraced pass and one traced pass with the same inputs, checks that
both give the same outputs, and reports the per-layer metrics taken from
the traced pass's spans.  The spans go to
``perfbench/results/trace_<workload>.json``.

Every output is checked (see ``checks.py``), and a failed operation fails
the run too.  The last line of standard output is ``{"correct",
"attempted", "failed", "metrics"}``, with the metric names and units that
``BENCHMARK.json`` declares; a fuller record, with the program's revision
and the machine, goes to ``perfbench/results/<workload>_trace<0|1>.json``.
The program is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Before each pass the workload is set up once or more, for at least this
# long, and the median of all set-ups is reported.  A machine whose speed
# drifts by 20-40% over seconds skews set-ups timed in one stretch; spread
# over the whole run, they see the same drift as the passes.
SETUP_SLOT_SECONDS = 2.0

MODEL_KINDS = ("naive_bayes_kde", "mlp", "decision_tree", "random_forest")

def _per(total: float, n: float, scale: float = 1e6) -> float:
    return total / n * scale if n else 0.0


def layer_metrics(t, sizes: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric from a traced run's spans and artifact sizes."""
    parse_s = t.total("ingest.parse_game_log")
    adjust_s = t.total("adjust.run_seasons")
    dataset_s = t.total("features.build_dataset")
    rr_s = t.total("baselines.round_robin_rank")
    pythag_s = t.total("baselines.pythag_pair_prob")
    pairings = (t.count("baselines.round_robin_rank", "pairings")
                + len(t.named("baselines.pythag_pair_prob")))
    cli_spans = [s for s in t.spans if s.name.startswith("cli.")]
    m = {
        "synthetic.generate_s": t.total("synthetic.generate_league"),
        "ingest.write_s": t.total("ingest.write_game_log"),
        "ingest.parse_s": parse_s,
        "ingest.parse_us_per_game": _per(parse_s, t.count("ingest.parse_game_log", "games")),
        "ingest.games": t.count("ingest.parse_game_log", "games"),
        "stats.game_stats_us_per_game": _per(t.total("stats.game_stats"),
                                             t.count("stats.game_stats", "games")),
        "adjust.run_seasons_s": adjust_s,
        "adjust.us_per_game": _per(adjust_s, t.count("adjust.run_seasons", "games")),
        "adjust.passes": len(t.named("adjust.run_seasons")),
        "adjust.snapshots": t.count("adjust.run_seasons", "snapshots"),
        "features.build_dataset_s": dataset_s,
        "features.us_per_instance": _per(dataset_s,
                                         t.count("features.build_dataset", "instances")),
        "features.instances": t.count("features.build_dataset", "instances"),
        "features.encode_pairing_us": _per(t.total("features.encode_pairing"),
                                           t.count("features.encode_pairing", "calls")),
        "baselines.round_robin_rank_s": rr_s,
        "baselines.pairings": pairings,
        "baselines.pair_us": _per(rr_s + pythag_s, pairings),
        "baselines.rpi_s": t.total("baselines.rpi"),
        "evaluate.walk_forward_s": t.total("evaluate.walk_forward"),
        "evaluate.glass_ceiling_s": t.total("evaluate.glass_ceiling"),
        "evaluate.cells": len(t.named("evaluate.evaluate_predictor")),
        "evaluate.self_s": t.self_time("evaluate."),
        "cli.commands": len(cli_spans),
        "cli.command_s": sum(s.duration for s in cli_spans),
        "cli.self_s": t.self_time("cli."),
        "cli.artifact_bytes": sizes.get("total", 0),
    }
    for k in MODEL_KINDS:
        predicts = t.named(f"models.{k}.predict")
        m.update({
            f"models.{k}.train_s": t.total(f"models.{k}.train"),
            f"models.{k}.train_rows": t.count(f"models.{k}.train", "rows"),
            f"models.{k}.predict_us": _per(sum(s.duration for s in predicts), len(predicts)),
            f"models.{k}.predictions": len(predicts),
            f"models.{k}.save_s": t.total(f"models.{k}.save"),
            f"models.{k}.load_s": t.total(f"models.{k}.load"),
            f"models.{k}.model_bytes": sizes.get(k, 0),
        })
    return m


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def revision() -> str:
    """``git rev-parse HEAD``, with ``+dirty`` if a tracked file has changed.

    ``unknown`` where the checkout has no ``.git`` or git cannot run.
    """
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        head, dirty = (subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=60, check=True).stdout.strip()
                       for cmd in (["git", "rev-parse", "HEAD"],
                                   ["git", "status", "--porcelain", "--untracked-files=no"]))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_problems(wl, outcome) -> list[str]:
    """Every check on one pass.

    No operation of these workloads is expected to fail, so a failed one is
    a problem as well as a count in ``failed``; the outputs of the
    operations that did not fail are checked all the same.
    """
    problems = wl.check(outcome)
    if outcome.failed:
        problems.insert(0, f"{outcome.failed} of {wl.ops_per_pass} operations failed")
    return problems


def timed_run(wl, seconds: float) -> dict:
    setups, walls, cpus, attempted, failed, problems = [], [], [], 0, 0, []
    peak = None
    start = time.perf_counter()
    while True:
        slot = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wl.setup(NullTracer())
            setups.append(time.perf_counter() - t0)
            if time.perf_counter() - slot >= SETUP_SLOT_SECONDS:
                break
        wl.reset()
        t0, c0 = time.perf_counter(), time.process_time()
        outcome = wl.run()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        attempted += wl.ops_per_pass
        failed += outcome.failed
        if peak is None:        # read before any check adds the benchmark's own memory
            peak = peak_rss_mb()
        problems += pass_problems(wl, outcome)
        del outcome
        if time.perf_counter() - start >= seconds:
            break
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "passes": len(walls), "pass_s": walls, "pass_cpu_s": cpus,
            "setup_runs_s": setups,
            "metrics": {"setup_s": statistics.median(setups),
                        "wall_s": statistics.median(walls),
                        "peak_rss_mb": peak}}


def traced_run(wl) -> dict:
    t = Tracer()
    with t.span("setup"):
        wl.setup(t)
    wl.reset()
    t0 = time.perf_counter()
    ref = wl.run()
    untraced = time.perf_counter() - t0
    problems = pass_problems(wl, ref)
    wl.keep_reference()
    t0 = time.perf_counter()
    with t.span("pass"):
        traced = wl.run_traced(t)
    traced_s = time.perf_counter() - t0
    if traced.failed:
        problems.append(f"traced pass: {traced.failed} of {wl.ops_per_pass} "
                        "operations failed")
    elif not ref.failed:
        problems += wl.same(ref, traced)
        problems += wl.check_traced(traced)
    with t.span("probe"):
        wl.probe(t, traced)
    metrics = layer_metrics(t, wl.artifact_bytes())
    metrics.update({"trace.untraced_s": untraced, "trace.traced_s": traced_s,
                    "trace.overhead_pct": 100.0 * (traced_s / untraced - 1.0)})
    t.write(RESULTS / f"trace_{wl.name}.json", {"workload": wl.name, "seed": wl.seed})
    return {"attempted": 2 * wl.ops_per_pass, "failed": ref.failed + traced.failed,
            "problems": problems, "spans": len(t.spans), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("grid", "d1", "query"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "courtcast" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src}/courtcast is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    from workloads import WORKLOADS

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, work)
    try:
        res = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": res["metrics"][name], "unit": unit}
               for name, unit in declared_metrics(args.trace).items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": revision(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{k: v for k, v in res.items() if k != "metrics"}, "metrics": metrics,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for p in res["problems"]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
