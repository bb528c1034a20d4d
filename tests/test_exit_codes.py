"""The CLI's exit-code contract: bad input exits 1 (usage) or 2 (data), never 3.

Every test here calls ``cli.main`` in process on a six-team league, so the
regression cases and the fuzzing stay fast.  ``tests/test_cli.py`` covers
the same entry point through ``python -m courtcast``.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from courtcast import cli
from courtcast.ingest import HEADER, write_game_log
from courtcast.features import FeatureScheme
from courtcast.models import HYPERPARAMETERS, ModelError, ModelKind, load_model
from tests.conftest import tiny_store

LEAGUE = ["--n-teams", "6", "--games-per-team", "6", "--n-seasons", "2", "--seed", "1"]
MODEL_KINDS = [k.value for k in ModelKind]
PAIRING = ["--team-first", "t00", "--team-second", "t01"]


def main(*argv) -> tuple[int, str]:
    """``cli.main`` on ``argv``; returns the exit code and what went to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def league(tmp_path_factory) -> Path:
    """A simulated league's game log, and one trained model of each kind."""
    root = tmp_path_factory.mktemp("exit_codes")
    assert main("simulate", "--out", root / "sim", *LEAGUE)[0] == 0
    for kind in MODEL_KINDS:
        hyper = ["--hyper", "epochs=5"] if kind == "mlp" else []
        code, err = main("train", "--data", root / "sim" / "games.csv",
                         "--out", root / kind, "--kind", kind, *hyper)
        assert code == 0, err
    return root


def tiny_efficiency_log(path: Path) -> Path:
    """Four teams over two seasons of 40 rounds, every game won 3-2 on 1000
    field-goal attempts a side: adjusted efficiencies of about 0.3."""
    boxes = {2: "0,1000,0,2,2,1,1,1,0,0,2", 3: "1,1000,0,1,2,1,1,1,0,0,3"}
    teams = ["aa", "bb", "cc", "dd"]
    rounds = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    lines = [",".join(HEADER)]
    for season in (2020, 2021):
        for r in range(40):
            day = dt.date(season, 11, 1) + dt.timedelta(days=r)
            for k, (i, j) in enumerate(rounds[r % 3]):
                a, b = (3, 2) if (r + k) % 2 == 0 else (2, 3)
                lines.append(f"{day},{season},{teams[i]},{teams[j]},neutral,"
                             f"{boxes[a]},{boxes[b]}")
    path.write_text("\n".join(lines) + "\n")
    return path


def log_lines(league: Path) -> list[str]:
    return (league / "sim" / "games.csv").read_text().splitlines()


class TestBadFiles:
    def test_unclosed_quote_names_the_file_and_line(self, league, tmp_path):
        lines = log_lines(league)
        at = len(lines) - 3
        lines[at] = lines[at].replace(",t", ',"t', 1) + "x" * 140_000
        bad = tmp_path / "quote.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, err = main("ingest", "--data", bad, "--out", tmp_path / "o")
        assert code == 2, err
        assert f"quote.csv:{at + 1}:" in err and "field larger than field limit" in err

    def test_undecodable_game_log(self, league, tmp_path):
        bad = tmp_path / "latin.csv"
        bad.write_bytes((league / "sim" / "games.csv").read_bytes() + b"\xff\n")
        code, err = main("ingest", "--data", bad, "--out", tmp_path / "o")
        assert code == 2 and "latin.csv" in err and "UTF-8" in err

    def test_undecodable_roster(self, league, tmp_path):
        roster = tmp_path / "roster.csv"
        roster.write_bytes(b"season,team\n2021,t\xe900\n")
        code, err = main("ingest", "--data", league / "sim" / "games.csv",
                         "--roster", roster, "--out", tmp_path / "o")
        assert code == 2 and "roster.csv" in err

    @pytest.mark.parametrize("text, where", [
        ("season,team\n2021\n", "roster.csv:2: expected 2 columns"),
        ("season,team\n\n2021,t00\n20x1,t01\n", "roster.csv:4: field 'season'"),
        ("# note\nseason,team\n2021,t00\n# note\n20x1,t01\n", "roster.csv:5: field 'season'"),
        ("# note\n# note\nseason\n", "roster.csv:3: roster header must be 'season,team'"),
    ])
    def test_bad_roster_row_names_its_line(self, league, tmp_path, text, where):
        roster = tmp_path / "roster.csv"
        roster.write_text(text)
        code, err = main("ingest", "--data", league / "sim" / "games.csv",
                         "--roster", roster, "--out", tmp_path / "o")
        assert code == 2 and where in err

    def test_undecodable_config_is_a_usage_error(self, league, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = \xff\n")
        code, err = main("adjust", "--data", league / "sim" / "games.csv",
                         "--config", cfg, "--out", tmp_path / "o")
        assert code == 1 and "run.cfg" in err

    def test_stats_on_a_box_that_divides_by_zero(self, tmp_path):
        log = tmp_path / "zero.csv"
        log.write_text(",".join(HEADER) + "\n2021-11-01,2021,aa,bb,neutral,"
                       "0,0,0,5,10,3,4,2,1,1,5,10,20,2,3,4,5,6,7,1,1,25\n")
        stats = main("stats", "--data", log, "--out", tmp_path / "o")
        adjust = main("adjust", "--data", log, "--out", tmp_path / "o")
        assert stats == adjust
        assert stats[0] == 2 and "aa vs bb on 2021-11-01" in stats[1]

    def test_a_failed_command_writes_nothing(self, league, tmp_path):
        # each fails after its config is resolved: a fresh --out stays absent,
        # and a shared one keeps the run_config.cfg that train wrote there
        zero = tmp_path / "zero.csv"
        zero.write_text(",".join(HEADER) + "\n2021-11-01,2021,aa,bb,neutral,"
                        "0,0,0,5,10,3,4,2,1,1,5,10,20,2,3,4,5,6,7,1,1,25\n")
        data = ["--data", league / "sim" / "games.csv"]
        failing = [
            ["stats", "--data", zero],
            ["rank", *data, "--kind", "decision_tree"],     # no model.json in --out
            ["rank", *data, "--kind", "decision_tree",
             "--model", league / "naive_bayes_kde" / "model.json"],
        ]
        for k, argv in enumerate(failing):
            code, err = main(*argv, "--out", tmp_path / str(k))
            assert code == 2, (argv, err)
            assert not (tmp_path / str(k)).exists(), argv
        shared = tmp_path / "shared"
        assert main("train", *data, "--kind", "naive_bayes_kde", "--out", shared)[0] == 0
        before = {path.name: path.read_bytes() for path in shared.iterdir()}
        for argv in failing:     # the second now finds a naive Bayes model.json
            code, err = main(*argv, "--out", shared)
            assert code == 2, (argv, err)
        assert {path.name: path.read_bytes() for path in shared.iterdir()} == before

    @pytest.mark.parametrize("command, kind", [
        ("evaluate", "decision_tree"), ("evaluate", "mlp"), ("train", "naive_bayes_kde")])
    def test_training_seasons_of_one_class(self, tmp_path, command, kind):
        # the first team wins every game of the hand-built log
        write_game_log(tiny_store(), tmp_path / "wins.csv")
        code, err = main(command, "--data", tmp_path / "wins.csv", "--kind", kind,
                         "--out", tmp_path / "o")
        assert code == 2, err
        assert "training data must contain both classes, got only wins" in err

    def test_pythag_rating_that_overflows_names_the_team(self, league, tmp_path):
        code, err = main("evaluate", "--data", league / "sim" / "games.csv",
                         "--kind", "pythag", "--hyper", "y=1e308", "--out", tmp_path / "o")
        assert code == 2, err
        assert re.search(r"t\d\d: rating overflows at exponent 1e\+308", err), err

    @pytest.mark.parametrize("argv", [
        ["rank", "--hyper", "y=10000"],
        ["predict", "--pythag-y", "10000", "--team-first", "aa", "--team-second", "bb"],
        ["evaluate", "--hyper", "y=10000"],
    ], ids=["rank", "predict", "evaluate"])
    def test_pythag_rating_that_underflows_names_the_exponent(self, tmp_path, argv):
        # adjusted efficiencies near 0.3, whose 10000th powers are both 0.0
        log = tiny_efficiency_log(tmp_path / "tiny.csv")
        code, err = main(*argv, "--kind", "pythag", "--data", log, "--out", tmp_path / "o")
        assert code == 2, err
        assert re.search(r"(aa|bb|cc|dd): rating underflows at exponent 10000\.0", err), err

    def test_predict_after_a_season_that_ends_on_the_last_date(self, tmp_path):
        log = tmp_path / "late.csv"
        boxes = "20,50,5,10,15,10,20,8,5,3,55,18,48,4,8,12,9,21,10,4,2,48"
        log.write_text(",".join(HEADER) + f"\n2021-11-01,2021,aa,bb,neutral,{boxes}\n"
                       f"9999-12-31,2021,aa,bb,neutral,{boxes}\n")
        matchup = ["--kind", "pythag", "--team-first", "aa", "--team-second", "bb",
                   "--data", log, "--out", tmp_path / "o"]
        code, err = main("predict", *matchup)
        assert code == 2, err
        assert "9999-12-31" in err and "--date" in err
        assert main("predict", *matchup, "--date", "9999-12-31")[0] == 0

    def test_predict_defaults_to_the_day_after_the_test_seasons_last_game(self, tmp_path):
        # rows out of date order, with a later season's game first
        log = tmp_path / "shuffled.csv"
        boxes = "20,50,5,10,15,10,20,8,5,3,55,18,48,4,8,12,9,21,10,4,2,48"
        log.write_text(",".join(HEADER) + "\n" + "".join(
            f"{date},{date[:4]},aa,bb,neutral,{boxes}\n"
            for date in ("2022-12-01", "2021-12-05", "2021-11-01", "2021-11-20")))
        code, err = main("predict", "--kind", "pythag", "--team-first", "aa",
                         "--team-second", "bb", "--test-season", "2021",
                         "--data", log, "--out", tmp_path / "o")
        assert code == 0, err
        assert (tmp_path / "o" / "prediction.csv").read_text().splitlines()[-1].startswith(
            "2021-12-06,aa,bb,")


def first_split(tree: dict) -> int:
    """The index of the first numeric split in a tree's node table."""
    return next(i for i, f in enumerate(tree["feature"]) if f >= 0)


def set_entry(key: str, value, at=first_split):
    """An edit that sets entry ``at(tree)`` of the tree's list ``key`` to ``value``."""
    def edit(doc: dict) -> None:
        tree = doc["params"]
        tree[key][at(tree)] = value
    return edit


def first_leaf(tree: dict) -> int:
    return tree["feature"].index(-2)


def edited(edit):
    """A corruption that applies ``edit`` to the model document in place."""
    def corrupt(doc: dict) -> dict:
        edit(doc)
        return doc
    return corrupt


@pytest.mark.parametrize("kind, name, corrupt, detail", [
    ("decision_tree", "no_feature",
     edited(lambda doc: doc["params"].pop("feature")), "missing key 'feature'"),
    ("decision_tree", "far_feature", edited(set_entry("feature", 99)), "feature 99"),
    ("decision_tree", "low_feature", edited(set_entry("feature", -3)), "feature -3"),
    ("decision_tree", "child_before_parent",
     edited(set_entry("children", 0, at=lambda tree: 0)), "node 0 has child 0"),
    ("decision_tree", "child_past_the_end",
     edited(lambda doc: doc["params"]["children"].__setitem__(-1, 10**6)), "child 1000000"),
    ("decision_tree", "negative_child",
     edited(set_entry("children", -1, at=lambda tree: 1)), "has child -1"),
    ("decision_tree", "empty_leaf", edited(set_entry("n", 0, at=first_leaf)), "wins of 0"),
    ("decision_tree", "too_many_wins",
     edited(lambda doc: set_entry("wins", doc["params"]["n"][first_leaf(doc["params"])] + 1,
                                 at=first_leaf)(doc)), "leaf with"),
    ("decision_tree", "negative_wins", edited(set_entry("wins", -1, at=first_leaf)),
     "leaf with -1 wins"),
    ("decision_tree", "short_threshold", edited(lambda doc: doc["params"]["threshold"].pop()),
     "of one length"),
    ("decision_tree", "version_1", edited(lambda doc: doc.update(version=1)),
     "unsupported format version 1"),
    ("decision_tree", "no_hyper", edited(lambda doc: doc.pop("hyper")), "missing key 'hyper'"),
    ("decision_tree", "a_list", lambda doc: [], "not a courtcast-model file"),
    ("decision_tree", "bad_scheme", edited(lambda doc: doc.update(scheme="elo")), "elo"),
    ("decision_tree", "bad_kind", edited(lambda doc: doc.update(kind=3)),
     f"kind must be one of {MODEL_KINDS}, got 3"),
    ("mlp", "short_bias", edited(lambda doc: doc["params"]["b1"].pop()), "shapes"),
    ("mlp", "nan_weight",
     edited(lambda doc: doc["params"]["W1"][0].__setitem__(0, float("nan"))),
     "weights must be finite"),
    ("mlp", "nan_min", edited(lambda doc: doc["params"]["mins"].__setitem__(1, float("nan"))),
     "weights must be finite"),
    ("mlp", "infinite_output_bias", edited(lambda doc: doc["params"].update(b2=float("inf"))),
     "weights must be finite"),
    ("mlp", "infinite_range",
     edited(lambda doc: doc["params"]["ranges"].__setitem__(0, float("inf"))),
     "weights must be finite"),
    ("mlp", "negative_range", edited(lambda doc: doc["params"]["ranges"].__setitem__(0, -1.0)),
     "ranges must not be negative"),
    ("naive_bayes_kde", "negative_count",
     edited(lambda doc: doc["params"]["site_counts"][0].__setitem__(0, -5.0)), "do not fit"),
    ("naive_bayes_kde", "zero_bandwidth",
     edited(lambda doc: doc["params"]["bandwidths"][1].__setitem__(0, 0.0)),
     "bandwidths must be finite and positive"),
    ("naive_bayes_kde", "negative_bandwidth",
     edited(lambda doc: doc["params"]["bandwidths"][0].__setitem__(-1, -0.5)),
     "bandwidths must be finite and positive"),
    ("naive_bayes_kde", "infinite_point",
     edited(lambda doc: doc["params"]["points"][0][0].__setitem__(0, float("inf"))),
     "must be finite"),
    ("naive_bayes_kde", "infinite_site_count",
     edited(lambda doc: doc["params"]["site_counts"][1].__setitem__(2, float("inf"))),
     "must be finite"),
    ("naive_bayes_kde", "tiny_bandwidth",
     edited(lambda doc: doc["params"]["bandwidths"].__setitem__(
         0, [1e-300] * len(doc["params"]["bandwidths"][0]))),
     "bandwidths must be finite and positive, at least 1e-50"),
    ("naive_bayes_kde", "huge_point",
     edited(lambda doc: doc["params"]["points"][0][0].__setitem__(0, 1e300)),
     "at most 1e+50 in magnitude"),
    ("naive_bayes_kde", "positive_log_prior",
     edited(lambda doc: doc["params"]["log_priors"].__setitem__(0, 50.0)),
     "log priors must be finite and at most 0"),
    ("random_forest", "no_trees", edited(lambda doc: doc.update(params=[])), "one tree"),
])
@pytest.mark.filterwarnings("error")   # a numpy warning on the way fails the case
def test_malformed_model_file_is_a_data_error(league, tmp_path, kind, name, corrupt, detail):
    doc = json.loads((league / kind / "model.json").read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(corrupt(doc)))
    code, err = main("predict", "--data", league / "sim" / "games.csv", "--model", path,
                     "--kind", kind, "--out", tmp_path / "o", *PAIRING)
    assert code == 2, err
    assert f"{name}.json" in err and detail in err


@pytest.mark.parametrize("field, value, valid", [
    ("kind", "bogus", MODEL_KINDS), ("scheme", "elo", [s.value for s in FeatureScheme])])
def test_model_file_with_an_unknown_name(league, tmp_path, field, value, valid):
    doc = json.loads((league / "decision_tree" / "model.json").read_text())
    path = tmp_path / "named.json"
    path.write_text(json.dumps({**doc, field: value}))
    message = f"{path}: malformed model file: {field} must be one of {valid}, got {value!r}"
    with pytest.raises(ModelError) as refused:
        load_model(path)
    assert str(refused.value) == message
    for command, pairing in (("predict", PAIRING), ("rank", [])):
        code, err = main(command, "--data", league / "sim" / "games.csv", "--model", path,
                         "--kind", "decision_tree", "--out", tmp_path / "o", *pairing)
        assert code == 2 and message in err, (command, err)


def test_model_file_that_is_not_json(league, tmp_path):
    path = tmp_path / "cut.json"
    path.write_text((league / "mlp" / "model.json").read_text()[:200])
    code, err = main("rank", "--data", league / "sim" / "games.csv", "--model", path,
                     "--kind", "mlp", "--out", tmp_path / "o")
    assert code == 2 and "cut.json" in err


@pytest.mark.parametrize("argv, key", [
    (["train", "--kind", "mlp", "--hyper", "epochs=abc"], "epochs"),
    (["train", "--kind", "random_forest", "--hyper", "n_trees=abc"], "n_trees"),
    (["train", "--kind", "naive_bayes_kde", "--hyper", "bandwidth=abc"], "bandwidth"),
    (["train", "--kind", "naive_bayes_kde", "--hyper", "bandwidth_floor=1e-60"],
     "bandwidth_floor"),
    (["glass-ceiling", "--hyper", "decision_tree.min_node_fraction=abc"],
     "min_node_fraction"),
    (["train", "--kind", "mlp", "--hyper", "hidden=0.5"], "hidden"),
    (["train", "--kind", "mlp", "--hyper", "hidden=0"], "hidden"),
    (["evaluate", "--kind", "pythag", "--hyper", "y=abc"], "'y'"),
    (["evaluate", "--kind", "mlp", "--hyper", "learning_rate=-1"], "learning_rate"),
    (["evaluate", "--kind", "home_wins", "--hyper", "y=2"], "home_wins"),
    (["train", "--kind", "random_forest", "--hyper", "n_trees=100000"], "n_trees"),
    (["evaluate", "--kind", "pythag", "--hyper", "y=inf"], "'y'"),
    (["train", "--kind", "mlp", "--seed", "-1"], "seed"),
    (["simulate", "--noise", "nan"], "noise"),
    (["simulate", "--home-advantage", "inf"], "home_advantage"),
    (["simulate", "--home-advantage", "-1e400"], "home_advantage must be finite, got -inf"),
    (["glass-ceiling", "--strength-spread", "nan"], "strengths"),
    (["glass-ceiling", "--strength-spread", "1e308"], "strength_spread must be in (-100, 100)"),
    (["simulate", "--strength-spread", "-1e308"], "got -1e+308"),
    (["glass-ceiling", "--kinds", " , "], "--kinds"),
    (["glass-ceiling", "--kinds", "mlp", "--hyper", "decision_tree.min_node_fraction=0.05"],
     "decision_tree"),
    (["glass-ceiling", "--schemes", " , "], "--schemes"),
    (["adjust", "--ft-weight", "-5"], "ft_weight"),
    (["stats", "--ft-weight", "nan"], "ft_weight"),
    (["evaluate", "--ft-weight", "1e308"], "ft_weight"),
    (["rank", "--kind", "pythag", "--pythag-y", "0"], "'y'"),
    (["rank", "--kind", "pythag", "--pythag-y", "nan"], "'y'"),
    (["predict", "--kind", "pythag", "--pythag-y", "0", *PAIRING], "'y'"),
    (["predict", "--kind", "pythag", "--pythag-y", "nan", *PAIRING], "'y'"),
    (["rank", "--kind", "pythag", "--hyper", "bogus=1"], "bogus"),
    (["predict", "--kind", "home_wins", "--hyper", "y=3", *PAIRING], "home_wins"),
    (["rank", "--kind", "rpi", "--hyper", "bogus=1"], "rpi"),
    (["glass-ceiling", "--n-seasons", "1"], "n_seasons"),
    (["glass-ceiling", "--kinds", "home_wins,home_wins"], "kind 'home_wins' is named twice"),
    (["glass-ceiling", "--kinds", "mlp, mlp"], "kind 'mlp' is named twice"),
    (["glass-ceiling", "--schemes", "adj_eff,adj_eff"], "scheme 'adj_eff' is named twice"),
    (["glass-ceiling", "--schemes", "elo"], "scheme must be one of"),
    (["train", "--kind", "mlp", "--hyper", "epochs=3,epochs=5"],
     "hyper key 'epochs' is given twice"),
    (["glass-ceiling", "--kinds", "pythag", "--hyper", "pythag.y=3,pythag.y=4"],
     "hyper key 'pythag.y' is given twice"),
    (["glass-ceiling", "--kinds", "pythag", "--pythag-y", "0"], "'y'"),
    (["predict", "--team-first", "t0\n1", "--team-second", "t02"],
     "team_first must be one line, got 't0\\n1'"),
    (["adjust", "--kinds", "pythag\u2028,mlp"], "kinds must be one line"),
    *[([command, "--n-teams", "2", "--games-per-team", "1", "--n-seasons", "2",
        "--kinds", "pythag", "--bayes-target", "0.7", "--home-advantage", value],
       f"home_advantage {float(value)} is too far from 0")
      for command in ("glass-ceiling", "simulate") for value in ("1e308", "-1e308")],
])
def test_bad_value_is_a_usage_error_before_any_data_is_read(tmp_path, argv, key):
    # the game log does not exist: a check after reading it would exit 2
    code, err = main(*argv, "--data", tmp_path / "missing.csv", "--out", tmp_path / "o")
    assert code == 1, err
    assert key in err


@pytest.mark.parametrize("argv, settings", [
    (["simulate", "--home-advantage", "1e308"], "noise 6.0 and home_advantage 1e+308"),
    (["simulate", "--home-advantage", "3e6"], "noise 6.0 and home_advantage 3000000.0"),
    (["glass-ceiling", "--noise", "1e300"], "noise 1e+300 and home_advantage 0.0"),
    (["simulate", "--noise", "1e308"], "noise 1e+308 and home_advantage 0.0"),
    (["simulate", "--noise", "1e308", "--home-advantage", "-1e308"],
     "noise 1e+308 and home_advantage -1e+308"),
])
@pytest.mark.filterwarnings("error")   # a numpy warning on the way fails the case
def test_a_setting_that_draws_a_huge_score_is_named(tmp_path, argv, settings):
    code, err = main(*argv, *LEAGUE, "--out", tmp_path / "o")
    assert code == 2, err
    assert f"{settings} draw a point total of " in err, err
    assert "over the box-score limit 1000000" in err, err


DIVERGING = "learning_rate=1e308,momentum=1.0,epochs=200"


@pytest.mark.parametrize("argv", [
    ["train", "--kind", "mlp", "--hyper", DIVERGING],
    ["evaluate", "--kind", "mlp", "--hyper", DIVERGING],
    ["glass-ceiling", *LEAGUE, "--kinds", "mlp", "--schemes", "adj_eff",
     "--hyper", ",".join(f"mlp.{pair}" for pair in DIVERGING.split(","))],
], ids=["train", "evaluate", "glass-ceiling"])
def test_a_diverging_mlp_is_refused(league, tmp_path, argv):
    # the weights overflow to inf, then turn NaN; no model may hold them
    code, err = main(*argv, "--data", league / "sim" / "games.csv", "--out", tmp_path / "o")
    assert code == 2, err
    assert "diverged" in err and "learning_rate 1e+308 and momentum 1.0" in err, err
    assert not (tmp_path / "o").exists()


def test_a_padded_value_is_echoed_as_its_config_file_reads_it(tmp_path):
    # the config file strips each value, so the run strips it too
    code, err = main("simulate", *LEAGUE, "--kinds", "  pythag ", "--out", tmp_path)
    assert code == 0, err
    assert "kinds = pythag\n" in (tmp_path / "run_config.cfg").read_text()


@pytest.mark.parametrize("value", ["-1e3", "-2.5E+1", "-.5e-2", "-500"])
def test_a_negative_number_in_exponent_form_is_a_value(tmp_path, value):
    # argparse's own pattern for a negative number has no exponent
    code, err = main("simulate", "--home-advantage", value, *LEAGUE, "--out", tmp_path)
    assert code == 0, err
    echoed = (tmp_path / "run_config.cfg").read_text()
    assert f"home_advantage = {float(value)}\n" in echoed


@pytest.mark.parametrize("command, artifact", [
    ("ingest", "games.csv"), ("stats", "game_stats.csv"),
    ("adjust", "snapshots.csv"), ("features", "features.csv")])
def test_a_header_only_log_gives_artifacts_of_no_rows(league, tmp_path, command, artifact):
    # a log of no games is not an error: the artifact is the run's
    # configuration and the header the command writes for any log
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(HEADER) + "\n")
    for data, out in ((empty, "empty"), (league / "sim" / "games.csv", "full")):
        code, err = main(command, "--data", data, "--out", tmp_path / out)
        assert code == 0, err
    echo = (tmp_path / "empty" / "run_config.cfg").read_text().splitlines()
    full = (tmp_path / "full" / artifact).read_bytes().decode().splitlines(keepends=True)
    header = next(line for line in full if not line.startswith("#"))
    assert (tmp_path / "empty" / artifact).read_bytes().decode() == "".join(
        f"# {line}\n" for line in echo) + header


def test_a_stray_value_error_is_an_internal_fault(league, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not a courtcast error")

    monkeypatch.setattr(cli, "checked_game_arrays", broken)
    code, err = main("stats", "--data", league / "sim" / "games.csv", "--out", tmp_path / "o")
    assert code == 3 and "internal error" in err


# ---------------------------------------------------------------------------
# Fuzzing: whatever the input, the exit code is 0, 1 or 2.

ALL_KEYS = sorted({key for spec in HYPERPARAMETERS.values() for key in spec} | {"y"})
WORDS = st.text(alphabet="abcxyz_.=- ", max_size=8)   # no digits: no large integers
VALUES = st.one_of(
    st.integers(min_value=-5, max_value=50).map(str),
    st.floats(min_value=-2.0, max_value=60.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e-320", "None", ""]),
    WORDS,
)


def hyper_text(prefixes: list[str]) -> st.SearchStrategy[str]:
    entry = st.builds("{}{}={}".format, st.sampled_from(prefixes),
                      st.sampled_from(ALL_KEYS) | WORDS, VALUES)
    return st.lists(entry, max_size=3).map(",".join) | WORDS


FUZZ = settings(max_examples=40, deadline=None)


@FUZZ
@given(kind=st.sampled_from(MODEL_KINDS), hyper=hyper_text([""]))
def test_fuzzed_train_hyper(league, kind, hyper):
    code, err = main("train", "--data", league / "sim" / "games.csv", "--kind", kind,
                     "--hyper", hyper, "--out", league / "fuzz")
    assert code in (0, 1, 2), err


@FUZZ
@given(kind=st.sampled_from(MODEL_KINDS + ["pythag", "home_wins"]),
       hyper=hyper_text([""]))
def test_fuzzed_evaluate_hyper(league, kind, hyper):
    code, err = main("evaluate", "--data", league / "sim" / "games.csv", "--kind", kind,
                     "--hyper", hyper, "--out", league / "fuzz")
    assert code in (0, 1, 2), err


@FUZZ
@given(hyper=hyper_text([f"{k}." for k in MODEL_KINDS + ["pythag", "home_wins"]]
                        + ["", "elo."]))
def test_fuzzed_glass_ceiling_hyper(league, hyper):
    code, err = main("glass-ceiling", *LEAGUE, "--kinds",
                     "naive_bayes_kde,decision_tree,random_forest,pythag,home_wins",
                     "--schemes", "adj_eff", "--hyper", hyper, "--out", league / "fuzz")
    assert code in (0, 1, 2), err


EDITS = st.lists(st.tuples(st.integers(min_value=0), st.binary(max_size=3)),
                 min_size=1, max_size=4)


def corrupted(data: bytes, edits: list[tuple[int, bytes]]) -> bytes:
    """``data`` with each edit's byte replaced by its bytes (none deletes it)."""
    for at, new in edits:
        at %= len(data)
        data = data[:at] + new + data[at + 1:]
    return data


@FUZZ
@given(kind=st.sampled_from(MODEL_KINDS), edits=EDITS)
def test_fuzzed_model_file(league, kind, edits):
    path = league / "fuzz_model.json"
    path.write_bytes(corrupted((league / kind / "model.json").read_bytes(), edits))
    code, err = main("predict", "--data", league / "sim" / "games.csv", "--model", path,
                     "--kind", kind, "--out", league / "fuzz", *PAIRING)
    assert code in (0, 1, 2), err


@FUZZ
@given(command=st.sampled_from(["ingest", "stats", "adjust", "features", "train",
                                "predict", "rank", "evaluate"]), edits=EDITS)
def test_fuzzed_game_log(league, command, edits):
    path = league / "fuzz_games.csv"
    path.write_bytes(corrupted((league / "sim" / "games.csv").read_bytes(), edits))
    tree = ["--kind", "decision_tree"]
    model = [*tree, "--model", league / "decision_tree" / "model.json"]
    extra = {"train": tree, "evaluate": tree, "rank": model, "predict": [*model, *PAIRING]}
    code, err = main(command, "--data", path, "--out", league / "fuzz", *extra.get(command, ()))
    assert code in (0, 1, 2), err


# ---------------------------------------------------------------------------
# The whole CLI as a property: any command with any few settings exits 0, 1
# or 2 without a traceback, and a run that succeeds replays from its
# run_config.cfg byte for byte.

#: Each drawn setting's values: valid ones, boundaries and junk.  League
#: sizes stay small, and no drawn value trains a large model.
SETTINGS = {
    "roster": ["roster.csv", "missing.csv", ""],
    "averaging": ["alpha", "explicit", "", "ALPHA"],
    "seeding": ["prior_season", "from_scratch", "none"],
    "alpha": ["0", "1", "0.5", "-1e-3", "1.5", "nan", "x"],
    "ft_weight": ["0", "1", "0.475", "-1e3", "2", "inf"],
    "navg_source": ["raw", "adjusted", "mean"],
    "scheme": ["adj_eff", "four_factors", "adj_four_factors", "raw", "diff_off_vs_def",
               "diff_like_vs_like", "", "elo"],
    "kind": MODEL_KINDS + ["pythag", "home_wins", "rpi", "elo", ""],
    "hyper": ["", "epochs=2", "epochs=0", "hidden=1,epochs=1", "y=9.5", "y=-1e-3",
              "y=1e400", "n_trees=2", "min_node_fraction=1", "bandwidth=0.5", "bogus=1",
              "epochs=-1e3", "=", "mlp.epochs=2", "pythag.y=3", "pythag.y=1e308",
              "decision_tree.min_node_fraction=0.2"],
    "pythag_y": ["11.5", "1", "1e-3", "0", "-2.5e1", "1e308", "nan", "x"],
    "seed": ["0", "1", "7", "-1", "1e3", "x"],
    "test_season": ["0", "2021", "2022", "1999", "-5", "x"],
    "team_first": ["t00", "t05", "t99", " t02 ", ""],
    "team_second": ["t01", "t00", "t99"],
    "location": ["home", "away", "neutral", "HOME"],
    "date": ["", "2022-01-15", "2000-01-01", "9999-12-31", "2022-13-01", "x"],
    "n_teams": ["3", "0", "-2", "1e3"],
    "games_per_team": ["0", "-3", "x"],
    "n_seasons": ["1", "0", "-1e3"],
    "noise": ["0", "6", "1e-3", "-1e3", "1e308", "nan"],
    "home_advantage": ["0", "2.5", "-2.5e1", "-1e308", "inf"],
    "imbalance": ["0", "0.5", "1", "-0.1", "2"],
    "strength_spread": ["0", "10", "-1e1", "1e308", "nan"],
    "bayes_target": ["0", "0.7", "0.5", "1", "-1e-1", "0.99"],
    "kinds": ["elo", " , ", "pythag,pythag", "home_wins"],
    "schemes": ["adj_eff", "raw,adj_eff", "", " , ", "elo", "adj_eff,adj_eff"],
}
#: A small valid league and grid that every simulate and glass-ceiling run
#: draws first, so that none falls back to a default that takes long to run.
LEAGUE_SETTINGS = {
    "n_teams": ["2", "4", "6"],
    "games_per_team": ["1", "2", "4"],
    "n_seasons": ["2", "3"],
    "kinds": ["pythag", "pythag,home_wins", "naive_bayes_kde,decision_tree",
              "random_forest,pythag"],
}


@pytest.fixture(scope="module")
def roster(league) -> Path:
    """A roster with comment lines that leaves t05 out of 2022."""
    path = league / "roster.csv"
    teams = [f"t{i:02d}" for i in range(6)]
    path.write_text("# run config\nseason,team\n" + "".join(f"2021,{t}\n" for t in teams)
                    + "# the second season\n" + "".join(f"2022,{t}\n" for t in teams[:5]))
    return path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_command_exits_cleanly_and_replays_its_config(league, roster, data):
    command = data.draw(st.sampled_from(sorted(cli.COMMANDS)), label="command")
    drawn = ({name: data.draw(st.sampled_from(values), label=name)
              for name, values in LEAGUE_SETTINGS.items()}
             if command in ("simulate", "glass-ceiling") else {})
    names = data.draw(st.lists(st.sampled_from(sorted(SETTINGS)), max_size=4, unique=True),
                      label="settings")
    drawn.update({name: data.draw(st.sampled_from(SETTINGS[name]), label=name)
                  for name in names})
    if drawn.get("roster"):
        drawn["roster"] = str(league / drawn["roster"])
    argv = [command, "--data", str(league / "sim" / "games.csv")]
    kind = drawn.get("kind", "naive_bayes_kde")
    if command in ("predict", "rank") and kind in MODEL_KINDS:
        argv += ["--model", str(league / kind / "model.json")]
    if command == "predict":
        argv += PAIRING
    for name, value in drawn.items():
        argv += ["--" + name.replace("_", "-"), value]

    out = league / "property"
    shutil.rmtree(out, ignore_errors=True)
    code, err = main(*argv, "--out", out)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        again, err = main(command, "--config", out / "run_config.cfg")
        assert again == 0, (argv, err)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first, argv
