"""Show that every correctness check can fail.

    python3 perfbench/selftest.py

Each check first sees a correct output of the program, made from a small
league, and must pass it; then it sees the same output with one deliberate
fault and must fail it.  The faults: a flipped label, a dropped game, a
snapshot that disagrees with the game log, a grid cell above the bound, a
ranking with a team missing, a grid cell below the floor, an RPI outside [0, 1], a prediction whose
winner contradicts its probability, a CLI command that exits non-zero.
Exit code 0 means every case behaved; it takes a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from courtcast import cli  # noqa: E402
from courtcast.adjust import AveragingScheme, Seeding, run_seasons  # noqa: E402
from courtcast.baselines import pythag_rating  # noqa: E402
from courtcast.evaluate import (  # noqa: E402
    CeilingCell,
    CeilingReport,
    walk_forward_evaluate,
)
from courtcast.features import FeatureScheme, Label  # noqa: E402
from courtcast.ingest import SeasonStore, parse_game_log, write_game_log  # noqa: E402
from courtcast.synthetic import generate_league  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import Query, league_spec  # noqa: E402

FAILURES: list[str] = []


def expect(case: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    verdict = "ok  " if ok else "FAIL"
    detail = problems[0] if problems else "no problem found"
    print(f"{verdict} {case}: {detail}")
    if not ok:
        FAILURES.append(case)


def grid_cases() -> None:
    bound, n = 0.75, 480
    hw = checks.halfwidth99(bound, n)
    cells = tuple(CeilingCell(kind, scheme, 0.70, 0.70 - bound, n)
                  for kind in ("mlp", "random_forest") for scheme in ("adj_eff", "raw"))
    report = CeilingReport(bound=bound, halfwidth=hw, n_test=n, test_season=2023,
                           cells=cells, config={})
    expect("grid: correct report", checks.check_ceiling(
        report, n_test=n, n_cells=4, target=0.75), False)
    high = dataclasses.replace(cells[1], accuracy=bound + hw + 0.002)
    bad = dataclasses.replace(report, cells=(cells[0], high) + cells[2:])
    expect("grid: one cell above the bound", checks.check_ceiling(
        bad, n_test=n, n_cells=4, target=0.75), True)
    lo = checks.ACCURACY_FLOOR - checks.halfwidth99(checks.ACCURACY_FLOOR, n)
    for accuracy, should_fail in ((lo + 0.002, False), (lo - 0.002, True)):
        cell = dataclasses.replace(cells[3], accuracy=accuracy)
        expect(f"grid: one cell at {accuracy:.3f}, floor {lo:.3f}", checks.check_ceiling(
            dataclasses.replace(report, cells=cells[:3] + (cell,)),
            n_test=n, n_cells=4, target=0.75), should_fail)


def log_cases(work: Path) -> tuple[Path, SeasonStore, int]:
    store, truth = generate_league(league_spec(seed=3, n_teams=16, n_seasons=2),
                                   bayes_sims=2_000)
    log = work / "games.csv"
    write_game_log(store, log)
    rows = checks.read_csv(log)
    parsed = parse_game_log(log)
    test_season = store.seasons[-1]
    report = walk_forward_evaluate(parsed, test_season, "pythag", FeatureScheme.ADJ_EFF)
    runs = run_seasons(parsed, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON)

    expect("d1: parsed store", checks.check_store(parsed, store), False)
    dropped = SeasonStore(parsed.all_games()[1:])
    expect("d1: one game dropped from the store", checks.check_store(dropped, store), True)

    expect("d1: correct report", checks.check_eval_report(report, rows, truth.bayes_accuracy),
           False)
    p = report.predictions[7]
    flipped = dataclasses.replace(
        p, actual=Label.LOSS if p.actual is Label.WIN else Label.WIN)
    preds = report.predictions[:7] + (flipped,) + report.predictions[8:]
    expect("d1: one label flipped", checks.check_eval_report(
        dataclasses.replace(report, predictions=preds), rows, truth.bayes_accuracy), True)
    short = [r for r in rows if r is not rows[-1]]
    expect("d1: one game dropped from the log", checks.check_eval_report(
        report, short, truth.bayes_accuracy), True)

    expect("d1: snapshots match the log", checks.check_pre_match(
        runs, rows, len(rows), seed=0), False)
    off = copy.deepcopy(rows)
    off[0]["ptsa"] = str(int(off[0]["ptsa"]) + 1)
    expect("d1: a snapshot disagrees with the log", checks.check_pre_match(
        runs, off, len(rows), seed=0), True)
    return log, store, test_season


def query_cases(work: Path, log: Path, store, test_season: int) -> None:
    def rank(kind: str) -> list[dict[str, str]]:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["rank", "--kind", kind, "--data", str(log),
                           "--out", str(work / kind)])
        if rc != 0:
            raise SystemExit(f"courtcast rank --kind {kind} exited {rc}")
        return checks.read_csv(work / kind / "rankings.csv")

    teams = set(store.teams(test_season))
    ranking = rank("pythag")
    final = run_seasons(store, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON,
                        through=test_season)[test_season].final
    ratings = {t: pythag_rating(s) for t, s in final.items()}
    expect("query: correct ranking", checks.check_ranking(ranking, teams), False)
    expect("query: ranking in rating order", checks.check_order(ranking, ratings), False)
    expect("query: ranking with a team missing",
           checks.check_ranking(ranking[:3] + ranking[4:], teams), True)
    swapped = [ranking[1], ranking[0]] + ranking[2:]
    expect("query: ranking out of rating order", checks.check_order(swapped, ratings), True)

    rpi = rank("rpi")
    expect("query: correct RPI", checks.check_rpi(rpi, teams), False)
    expect("query: an RPI above 1",
           checks.check_rpi([{**rpi[0], "score": "1.02"}] + rpi[1:], teams), True)

    pred = {"team_first": "t00", "team_second": "t01", "location": "away",
            "predictor": "pythag", "predicted_winner": "t01", "p_first_wins": "0.5"}
    expect("query: tie at an away site goes to the home team",
           checks.check_prediction(pred), False)
    expect("query: winner contradicts the probability",
           checks.check_prediction({**pred, "p_first_wins": "0.3",
                                    "predicted_winner": "t00"}), True)


def failed_command_cases(work: Path) -> None:
    """The ``query`` pass on a small league, then with one command broken.

    A command that exits non-zero fails the pass, and the outputs of the
    commands that did not fail are still checked.
    """
    wl = Query(seed=3, work=work / "query")
    wl.n_teams, wl.n_seasons = 16, 2
    wl.setup(NullTracer())
    expect("query: every command exits 0", run.pass_problems(wl, wl.run()), False)

    argv = wl.commands[("rank", "rpi")]
    argv[argv.index("--data") + 1] = str(work / "missing.csv")
    wl.reset()
    outcome = wl.run()
    ranking = wl.out / "pythag" / "rankings.csv"
    ranking.write_text("".join(ranking.read_text().splitlines(keepends=True)[:-1]))
    problems = run.pass_problems(wl, outcome)
    expect("query: a command exits non-zero",
           [p for p in problems if "operations failed" in p], True)
    expect("query: a failed command hides no wrong ranking",
           [p for p in problems if p.startswith("rank pythag")], True)


def main() -> int:
    work = HERE / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        grid_cases()
        query_cases(work, *log_cases(work))
        failed_command_cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} case(s) misbehaved" if FAILURES else "all cases behaved")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
