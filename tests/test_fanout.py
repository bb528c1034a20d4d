"""The ceiling grid's fan-out: its model kinds and its bound run on forked
workers, one per usable core, and give what one process gives, bit for bit.

``evaluate._usable_cores`` is patched to pick the path: 1 runs every job in
process, 2 forks two workers whatever the host has.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import gc
import io
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import courtcast
from courtcast import adjust, cli, evaluate, features
from courtcast.adjust import AveragingScheme, SeasonRun
from courtcast.evaluate import (
    BASELINE_KINDS,
    EvalError,
    glass_ceiling_experiment,
    walk_forward_evaluate,
)
from courtcast.features import FeatureScheme
from courtcast.ingest import GameRecord, parse_game_log, write_game_log
from courtcast.models import ModelError, ModelKind
from courtcast.synthetic import SyntheticLeagueSpec, league_games

SPEC = SyntheticLeagueSpec(n_teams=10, games_per_team=12, n_seasons=2, noise=6.0, seed=5)
KINDS = [*ModelKind, *BASELINE_KINDS]
SCHEMES = [FeatureScheme.ADJ_EFF, FeatureScheme.ADJ_FOUR_FACTORS, FeatureScheme.RAW]
HYPER = {"mlp": {"epochs": 20}, "random_forest": {"n_trees": 5}}
CLI_GRID = ["glass-ceiling", "--n-teams", "10", "--games-per-team", "12", "--seed", "5",
            "--kinds", ",".join(getattr(k, "value", k) for k in KINDS),
            "--hyper", "mlp.epochs=20,random_forest.n_trees=5", "--out", "out"]
PACKAGE_ROOT = str(Path(courtcast.__file__).resolve().parents[1])


def cores(monkeypatch, n: int) -> None:
    monkeypatch.setattr(evaluate, "_usable_cores", lambda: n)


def grid() -> evaluate.CeilingReport:
    return glass_ceiling_experiment(SPEC, KINDS, SCHEMES, seed=3, hyper_overrides=HYPER)


def cli_run(monkeypatch, cwd: Path) -> tuple[int, str, str, bytes]:
    """``cli.main`` on the grid in ``cwd``: exit code, stdout, stderr, ceiling.csv."""
    out, err = io.StringIO(), io.StringIO()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(CLI_GRID)
    csv = cwd / "out" / "ceiling.csv"
    return code, out.getvalue(), err.getvalue(), csv.read_bytes() if csv.exists() else b""


def test_fan_out_equals_one_process(monkeypatch, tmp_path):
    cores(monkeypatch, 1)
    alone, alone_cli = grid(), cli_run(monkeypatch, tmp_path / "alone")
    cores(monkeypatch, 2)
    fanned, fanned_cli = grid(), cli_run(monkeypatch, tmp_path / "fanned")
    assert fanned.as_dict() == alone.as_dict()
    assert fanned_cli == alone_cli
    assert alone_cli[0] == 0 and len(alone.cells) == len(KINDS) * len(SCHEMES)
    assert not multiprocessing.active_children()


def test_fan_out_equals_one_process_on_one_blas_thread(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}
    env.pop("COURTCAST_DATA_DIR", None)
    script = ("import sys; from courtcast import cli, evaluate; "
              "evaluate._usable_cores = lambda: int(sys.argv[1]); "
              "sys.exit(cli.main(sys.argv[2:]))")
    runs = []
    for n in (1, 2):
        cwd = tmp_path / f"cores{n}"
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", script, str(n), *CLI_GRID],
                              cwd=cwd, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, proc.stderr, (cwd / "out" / "ceiling.csv").read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("error, code", [
    (EvalError("no cells to score"), 2),
    (ModelError("the training sets differ"), 2),
    (RuntimeError("a bug in a worker"), 3),
])
def test_an_error_in_a_worker_reaches_the_caller(monkeypatch, tmp_path, error, code):
    def failing(*args, **kwargs):
        raise error

    cores(monkeypatch, 2)
    monkeypatch.setattr(evaluate, "_kind_probs", failing)
    with pytest.raises(type(error)) as raised:
        grid()
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    # the error was raised in a worker: the pool chains the worker's traceback
    assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"
    assert not multiprocessing.active_children()
    exit_code, _, err, _ = cli_run(monkeypatch, tmp_path / "cli")
    assert exit_code == code and str(error) in err
    assert not multiprocessing.active_children()


def test_a_grid_of_one_never_forks(monkeypatch):
    # a walk-forward evaluation is a grid of one job, which runs in process
    # however many cores there are
    store = league_games(SPEC)

    def run() -> evaluate.EvalReport:
        return walk_forward_evaluate(store, store.seasons[-1], ModelKind.DECISION_TREE,
                                     FeatureScheme.ADJ_EFF, seed=3)

    cores(monkeypatch, 1)
    alone = run()

    def no_pool(*args, **kwargs):
        raise AssertionError("a grid of one built a process pool")

    cores(monkeypatch, 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run().to_json() == alone.to_json()


def test_the_grid_builds_no_instances_and_frees_the_training_runs(monkeypatch):
    # the grid core encodes its sets as arrays straight from the runs, and
    # no training season's run is alive while the kinds train
    store = league_games(SPEC)
    test_season = store.seasons[-1]

    def reports() -> list:
        evaluations = [walk_forward_evaluate(store, test_season, kind, FeatureScheme.RAW,
                                             seed=3).to_json()
                       for kind in (ModelKind.DECISION_TREE, "pythag", "home_wins")]
        return [*evaluations, glass_ceiling_experiment(
            SPEC, [ModelKind.DECISION_TREE, "pythag", "home_wins"],
            [FeatureScheme.ADJ_EFF, FeatureScheme.RAW], seed=3).as_dict()]

    cores(monkeypatch, 1)
    want = reports()

    def no_instance(self, *args, **kwargs):
        raise AssertionError("the grid built a MatchInstance")

    run_jobs, checked = evaluate._run_jobs, []

    def jobs_without_training_runs(jobs):
        alive = [obj for obj in gc.get_objects() if isinstance(obj, SeasonRun)
                 and obj.season < test_season and obj.season in store.seasons
                 and obj.columns == store.columns(obj.season)]
        assert not alive, "a training season's run is alive while the kinds train"
        checked.append(len(jobs))
        return run_jobs(jobs)

    monkeypatch.setattr(features.MatchInstance, "__init__", no_instance)
    monkeypatch.setattr(evaluate, "_run_jobs", jobs_without_training_runs)
    for n in (1, 2):
        cores(monkeypatch, n)
        assert reports() == want
    assert checked == [1, 0, 0, 2] * 2
    assert not multiprocessing.active_children()


def test_the_grid_path_builds_no_records_and_holds_two_runs_at_most(monkeypatch, tmp_path):
    # the parser and the league generator fill the store's columns, the
    # adjust pass and the grid read them, and the grid drops each training
    # season's run once it is encoded
    spec = SyntheticLeagueSpec(n_teams=12, games_per_team=10, n_seasons=3, noise=6.0, seed=7)
    log = tmp_path / "games.csv"
    write_game_log(league_games(spec), log)
    test_season = spec.first_season + spec.n_seasons - 1
    d1_evals = [(ModelKind.DECISION_TREE, FeatureScheme.ADJ_FOUR_FACTORS, AveragingScheme.ALPHA),
                ("pythag", FeatureScheme.ADJ_EFF, AveragingScheme.EXPLICIT)]

    def reports() -> list:
        store = parse_game_log(log)
        evaluations = [walk_forward_evaluate(store, test_season, kind, scheme, averaging,
                                             seed=3).to_json()
                       for kind, scheme, averaging in d1_evals]
        return [store.seasons, store.n_games, *evaluations, glass_ceiling_experiment(
            spec, [ModelKind.DECISION_TREE, "pythag", "home_wins"],
            [FeatureScheme.ADJ_EFF, FeatureScheme.RAW], seed=3).as_dict()]

    cores(monkeypatch, 1)
    want = reports()

    def no_record(cls, *args, **kwargs):
        raise AssertionError("the grid path built a GameRecord")

    run_season, alive = adjust._run_season, []

    def counted(columns, *args):
        run = run_season(columns, *args)
        if columns.season == test_season:
            gc.collect()
            alive.append(sum(isinstance(obj, SeasonRun) and obj.columns.names is columns.names
                             for obj in gc.get_objects()))
        return run

    monkeypatch.setattr(GameRecord, "__new__", no_record)
    monkeypatch.setattr(adjust, "_run_season", counted)
    for n in (1, 2):
        cores(monkeypatch, n)
        assert reports() == want
    assert len(alive) == 6 and max(alive) <= 2, alive
    assert not multiprocessing.active_children()
