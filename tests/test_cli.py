"""End-to-end command-line checks, run through ``python -m courtcast``.

Each test runs ``python -m courtcast`` in a subprocess from a temp directory,
against the same package the test process imported, so argument parsing,
exit codes, config layering, and artifact bytes are all exercised exactly as
a user would hit them.  A few tests call ``cli.main`` in process instead, to
record every file ``train`` opens or to patch the library.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import courtcast
from courtcast import cli
from courtcast.adjust import run_seasons
from courtcast.features import FeatureScheme, MatchInstance, build_dataset
from courtcast.ingest import GameRecord, parse_game_log
from courtcast.models import ModelKind, save_model, train
from courtcast.stats import FourFactors, game_stats

# The directory the test process imported courtcast from: ``src`` in a
# checkout, ``site-packages`` in an install.
PACKAGE_ROOT = str(Path(courtcast.__file__).resolve().parents[1])

LEAGUE_FLAGS = ["--n-teams", "8", "--games-per-team", "14", "--n-seasons", "2",
                "--noise", "5", "--seed", "3"]


def run_cli(args, cwd, env=None):
    """Run ``python -m courtcast`` in ``cwd`` on the package under test.

    ``PACKAGE_ROOT`` goes first on the child's ``PYTHONPATH``: a relative
    entry such as ``src`` would resolve against ``cwd``, not the checkout.
    """
    full_env = dict(os.environ)
    full_env.pop("COURTCAST_DATA_DIR", None)
    if env:
        full_env.update(env)
    rest = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + rest if rest else "")
    return subprocess.run([sys.executable, "-m", "courtcast", *args],
                          cwd=cwd, env=full_env, capture_output=True, text=True)


@pytest.fixture(scope="module")
def league_dir(tmp_path_factory) -> Path:
    """One simulated league shared by every test in this module."""
    root = tmp_path_factory.mktemp("cli")
    proc = run_cli(["simulate", "--out", "sim", *LEAGUE_FLAGS], cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert (root / "sim" / "games.csv").exists()
    return root


DATA = ["--data", "sim/games.csv"]


def test_run_cli_finds_the_package_from_any_cwd(tmp_path):
    proc = run_cli(["--help"], cwd=tmp_path, env={"PYTHONPATH": "src"})
    assert proc.returncode == 0, proc.stderr
    assert "courtcast" in proc.stdout


class TestExitCodes:
    def test_help_exits_zero(self, league_dir):
        proc = run_cli(["--help"], cwd=league_dir)
        assert proc.returncode == 0
        assert "courtcast" in proc.stdout

    def test_subcommand_help_exits_zero(self, league_dir):
        proc = run_cli(["evaluate", "--help"], cwd=league_dir)
        assert proc.returncode == 0
        assert "--scheme" in proc.stdout

    def test_no_command_is_a_usage_error(self, league_dir):
        assert run_cli([], cwd=league_dir).returncode == 1

    def test_unknown_kind_is_a_usage_error(self, league_dir):
        proc = run_cli(["evaluate", *DATA, "--out", "x", "--kind", "elo"],
                       cwd=league_dir)
        assert proc.returncode == 1
        assert "home_wins" in proc.stderr  # the message lists what is valid

    def test_bad_flag_value_is_a_usage_error(self, league_dir):
        proc = run_cli(["adjust", *DATA, "--out", "x", "--alpha", "chicken"],
                       cwd=league_dir)
        assert proc.returncode == 1

    def test_training_a_baseline_is_a_usage_error(self, league_dir):
        proc = run_cli(["train", *DATA, "--out", "x", "--kind", "pythag"],
                       cwd=league_dir)
        assert proc.returncode == 1

    def test_missing_data_file_is_a_data_error(self, league_dir):
        proc = run_cli(["evaluate", "--data", "nope.csv", "--out", "x"],
                       cwd=league_dir)
        assert proc.returncode == 2
        assert "nope.csv" in proc.stderr

    def test_unknown_test_season_is_a_data_error(self, league_dir):
        proc = run_cli(["rank", *DATA, "--out", "x", "--kind", "pythag",
                        "--test-season", "1999"], cwd=league_dir)
        assert proc.returncode == 2
        assert "1999" in proc.stderr

    def test_malformed_data_row_reports_file_and_line(self, league_dir, tmp_path):
        lines = (league_dir / "sim" / "games.csv").read_text().splitlines()
        first_row = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
        lines[first_row] = lines[first_row].replace("2021-11", "2021-19", 1)
        bad = tmp_path / "mangled.csv"
        bad.write_text("\n".join(lines) + "\n")
        proc = run_cli(["stats", "--data", str(bad), "--out", "x"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "mangled.csv" in proc.stderr


class TestConfigLayering:
    def test_flags_override_config_file_which_overrides_defaults(self, league_dir):
        cfg = league_dir / "layered.cfg"
        cfg.write_text("alpha = 0.3\nseed = 9\n# a comment\n")
        proc = run_cli(["adjust", *DATA, "--config", "layered.cfg",
                        "--out", "layered", "--alpha", "0.4"], cwd=league_dir)
        assert proc.returncode == 0, proc.stderr
        echoed = dict(
            line.split(" = ", 1)
            for line in (league_dir / "layered" / "run_config.cfg").read_text().splitlines())
        assert echoed["alpha"] == "0.4"       # flag beat the file
        assert echoed["seed"] == "9"          # file beat the default
        assert echoed["averaging"] == "alpha"  # default untouched

    def test_unknown_config_key_is_a_usage_error(self, league_dir):
        cfg = league_dir / "bad.cfg"
        cfg.write_text("zeta = 1\n")
        proc = run_cli(["adjust", *DATA, "--config", "bad.cfg", "--out", "x"],
                       cwd=league_dir)
        assert proc.returncode == 1
        assert "zeta" in proc.stderr

    def test_data_dir_env_var_supplies_the_default_data_path(self, league_dir):
        proc = run_cli(["adjust", "--out", "envout"], cwd=league_dir,
                       env={"COURTCAST_DATA_DIR": str(league_dir / "sim")})
        assert proc.returncode == 0, proc.stderr
        echo = (league_dir / "envout" / "run_config.cfg").read_text()
        assert str(league_dir / "sim") in echo

    @pytest.mark.parametrize("command, flags", [
        ("ingest", []),
        ("stats", []),
        ("adjust", ["--averaging", "explicit"]),
        ("features", ["--scheme", "adj_four_factors"]),
        ("train", ["--kind", "decision_tree"]),
        ("predict", ["--kind", "pythag", "--team-first", "t01", "--team-second", "t02"]),
        ("rank", ["--kind", "rpi"]),
        ("evaluate", ["--kind", "naive_bayes_kde", "--seed", "1"]),
        ("simulate", LEAGUE_FLAGS),
        ("glass-ceiling", [*LEAGUE_FLAGS, "--kinds", "decision_tree,pythag",
                           "--schemes", "adj_eff"]),
    ])
    def test_rerunning_the_emitted_config_reproduces_the_artifact(self, league_dir,
                                                                  command, flags):
        out = league_dir / f"replay_{command}"
        first = run_cli([command, *DATA, "--out", out.name, *flags], cwd=league_dir)
        assert first.returncode == 0, first.stderr
        artifacts = {f.name: f.read_bytes() for f in out.iterdir()}
        again = run_cli([command, "--config", f"{out.name}/run_config.cfg"],
                        cwd=league_dir)
        assert again.returncode == 0, again.stderr
        assert {f.name: f.read_bytes() for f in out.iterdir()} == artifacts


class TestArtifacts:
    def test_every_artifact_opens_with_the_resolved_config(self, league_dir):
        proc = run_cli(["stats", *DATA, "--out", "stats_out"], cwd=league_dir)
        assert proc.returncode == 0, proc.stderr
        text = (league_dir / "stats_out" / "game_stats.csv").read_text()
        assert text.startswith("# data = sim/games.csv\n")
        assert "# seed = 0\n" in text

    def test_stats_rows_equal_per_game_stats(self, league_dir):
        """The rows built from the game arrays, against ``game_stats`` per game."""
        proc = run_cli(["stats", *DATA, "--out", "stats_rows"], cwd=league_dir)
        assert proc.returncode == 0, proc.stderr
        text = (league_dir / "stats_rows" / "game_stats.csv").read_text()
        got = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
        factors = FourFactors.field_names()
        want = io.StringIO(newline="")
        csv.writer(want).writerows(
            [side.date.isoformat(), side.season, side.team, side.opponent,
             side.site.value, int(side.won), side.box.points, side.poss, side.oe, side.de]
            + [getattr(side.off_factors, c) for c in factors]
            + [getattr(side.def_factors, c) for c in factors]
            for g in parse_game_log(league_dir / "sim" / "games.csv").all_games()
            for side in game_stats(g))
        assert got == want.getvalue().splitlines()
        assert len(got) == 224    # 2 seasons x 56 games x 2 sides

    def test_two_identical_runs_write_identical_report_bytes(self, league_dir):
        args = ["evaluate", *DATA, "--out", "twice", "--kind", "mlp", "--seed", "4"]
        assert run_cli(args, cwd=league_dir).returncode == 0
        first = (league_dir / "twice" / "eval_report.csv").read_bytes()
        curve1 = (league_dir / "twice" / "eval_curve.csv").read_bytes()
        assert run_cli(args, cwd=league_dir).returncode == 0
        assert (league_dir / "twice" / "eval_report.csv").read_bytes() == first
        assert (league_dir / "twice" / "eval_curve.csv").read_bytes() == curve1

    def test_features_csv_repeats_byte_for_byte(self, league_dir):
        args = ["features", *DATA, "--out", "feat", "--scheme", "adj_eff"]
        assert run_cli(args, cwd=league_dir).returncode == 0
        first = (league_dir / "feat" / "features.csv").read_bytes()
        assert run_cli(args, cwd=league_dir).returncode == 0
        assert (league_dir / "feat" / "features.csv").read_bytes() == first
        header = next(ln for ln in first.decode().splitlines() if not ln.startswith("#"))
        assert header == ("date,season,team_first,team_second,location,label,"
                          "a_adj_oe,a_adj_de,b_adj_oe,b_adj_de")

    def test_train_then_predict_round_trip(self, league_dir):
        assert run_cli(["train", *DATA, "--out", "tp", "--kind", "decision_tree"],
                       cwd=league_dir).returncode == 0
        proc = run_cli(["predict", *DATA, "--out", "tp", "--kind", "decision_tree",
                        "--team-first", "t00", "--team-second", "t03",
                        "--location", "home"], cwd=league_dir)
        assert proc.returncode == 0, proc.stderr
        rows = [ln for ln in (league_dir / "tp" / "prediction.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        header, row = rows[0].split(","), rows[1].split(",")
        p = float(row[header.index("p_first_wins")])
        assert 0.0 <= p <= 1.0
        assert row[header.index("predicted_winner")] in ("t00", "t03")

    def test_train_writes_model_json_once_and_never_reads_it(self, league_dir,
                                                             tmp_path, monkeypatch):
        # in process, so that every file the command opens is recorded
        opened, real_open = [], Path.open

        def recording_open(self, mode="r", *args, **kwargs):
            opened.append((self.name, mode))
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        out = tmp_path / "once"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--data", str(league_dir / "sim" / "games.csv"),
                             "--out", str(out), "--kind", "decision_tree"])
        assert code == 0
        assert [mode for name, mode in opened if name == "model.json"] == ["w"]
        monkeypatch.undo()
        doc = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert doc["run_config"]["kind"] == "decision_tree"
        assert doc["run_config"]["out"] == str(out)

    def test_features_rpi_and_stacking_build_no_record_or_instance(self, league_dir,
                                                                   tmp_path, monkeypatch):
        # features and rank --kind rpi read columns and arrays, and train
        # stacks the instances it is given: with both constructors refusing,
        # each writes the bytes it writes without the patch
        data = str(league_dir / "sim" / "games.csv")
        commands = [["features", "--scheme", scheme.value] for scheme in FeatureScheme]
        commands.append(["rank", "--kind", "rpi"])
        store = parse_game_log(data)
        train_set, _ = build_dataset(store, run_seasons(store), FeatureScheme.RAW,
                                     store.seasons[-1])

        def artifacts() -> dict[Path, bytes]:
            for k, argv in enumerate(commands):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main([*argv, "--data", data, "--out", str(tmp_path / str(k))]) == 0
            for kind in ModelKind:
                hyper = {"epochs": 5} if kind is ModelKind.MLP else None
                save_model(train(train_set, kind, hyper=hyper, seed=1),
                           tmp_path / f"{kind.value}.json")
            return {path: path.read_bytes() for path in sorted(tmp_path.rglob("*"))
                    if path.is_file()}

        want = artifacts()

        def refuse(*args, **kwargs):
            raise AssertionError("a GameRecord or MatchInstance was built")

        monkeypatch.setattr(GameRecord, "__new__", refuse)
        monkeypatch.setattr(MatchInstance, "__init__", refuse)
        assert artifacts() == want
        assert len(want) == 2 * len(commands) + len(ModelKind)

    def test_hyper_y_is_the_exponent_of_a_pythag_prediction(self, league_dir, tmp_path):
        # in process; --hyper y= overrides --pythag-y, as it does for evaluate
        def p_first_wins(*flags):
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["predict", "--data", str(league_dir / "sim" / "games.csv"),
                                 "--out", str(out), "--kind", "pythag",
                                 "--team-first", "t00", "--team-second", "t03", *flags])
            assert code == 0
            rows = [ln for ln in (out / "prediction.csv").read_text().splitlines()
                    if not ln.startswith("#")]
            return rows[1].split(",")[-1]

        assert (p_first_wins("--hyper", "y=3") == p_first_wins("--pythag-y", "3")
                == p_first_wins("--pythag-y", "0.5", "--hyper", "y=3") != p_first_wins())

    def test_predict_with_mismatched_kind_is_a_data_error(self, league_dir):
        assert run_cli(["train", *DATA, "--out", "mismatch", "--kind",
                        "decision_tree"], cwd=league_dir).returncode == 0
        proc = run_cli(["predict", *DATA, "--out", "mismatch", "--kind", "mlp",
                        "--team-first", "t00", "--team-second", "t03"],
                       cwd=league_dir)
        assert proc.returncode == 2
        assert "decision_tree" in proc.stderr

    def test_predict_unknown_team_is_a_data_error(self, league_dir):
        proc = run_cli(["predict", *DATA, "--out", "tp", "--kind", "pythag",
                        "--team-first", "t00", "--team-second", "nobody"],
                       cwd=league_dir)
        assert proc.returncode == 2
        assert "nobody" in proc.stderr

    def test_rank_writes_a_full_ordering(self, league_dir):
        for kind, out in (("pythag", "rk_p"), ("rpi", "rk_r")):
            proc = run_cli(["rank", *DATA, "--out", out, "--kind", kind],
                           cwd=league_dir)
            assert proc.returncode == 0, proc.stderr
            rows = [ln for ln in (league_dir / out / "rankings.csv").read_text().splitlines()
                    if ln and not ln.startswith("#")][1:]
            assert [r.split(",")[0] for r in rows] == [str(n) for n in range(1, 9)]
            assert sorted(r.split(",")[1] for r in rows) == [f"t0{i}" for i in range(8)]

    def test_rank_rejects_the_home_wins_baseline(self, league_dir):
        proc = run_cli(["rank", *DATA, "--out", "x", "--kind", "home_wins"],
                       cwd=league_dir)
        assert proc.returncode == 1

    def test_simulate_writes_ground_truth_with_the_bayes_bound(self, league_dir):
        truth = (league_dir / "sim" / "league_truth.csv").read_text()
        assert "# bayes_accuracy = " in truth
        rows = [ln for ln in truth.splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 8

    def test_glass_ceiling_grid_artifact(self, league_dir):
        proc = run_cli(["glass-ceiling", "--out", "gc", "--n-teams", "6",
                        "--games-per-team", "10", "--n-seasons", "2",
                        "--noise", "5", "--seed", "2",
                        "--kinds", "naive_bayes_kde,home_wins",
                        "--schemes", "adj_eff"], cwd=league_dir)
        assert proc.returncode == 0, proc.stderr
        text = (league_dir / "gc" / "ceiling.csv").read_text()
        assert "# bound = " in text and "# halfwidth = " in text
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
        assert len(rows) == 2
        assert {r.split(",")[0] for r in rows} == {"naive_bayes_kde", "home_wins"}

    @pytest.mark.parametrize("argv, pythag", [
        (["--kinds", "pythag,home_wins", "--pythag-y", "3"], {"y": 3.0}),
        (["--kinds", "pythag", "--pythag-y", "3", "--hyper", "pythag.y=4"], {"y": 4.0}),
        (["--kinds", "mlp", "--pythag-y", "3", "--hyper", "mlp.epochs=5"], None),
    ])
    def test_glass_ceiling_applies_pythag_y_to_pythag_cells(self, tmp_path, monkeypatch,
                                                            argv, pythag):
        # in process: a pythag rating is monotone in oe/de, so no accuracy can
        # show which y ran; the hyperparameters the grid is handed show it
        seen, real = [], cli.glass_ceiling_experiment

        def capture(*args, **kwargs):
            seen.append(kwargs["hyper_overrides"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "glass_ceiling_experiment", capture)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["glass-ceiling", "--out", str(tmp_path / "gc"),
                             "--n-teams", "4", "--games-per-team", "3",
                             "--n-seasons", "2", "--schemes", "raw", *argv])
        assert code == 0
        assert [hyper.get("pythag") for hyper in seen] == [pythag]

    def test_glass_ceiling_hyper_must_be_kind_qualified(self, league_dir):
        proc = run_cli(["glass-ceiling", "--out", "x", "--hyper", "depth=3"],
                       cwd=league_dir)
        assert proc.returncode == 1
        assert "kind-qualified" in proc.stderr
