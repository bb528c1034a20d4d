"""Walk-forward evaluation: report math, order invariance, baselines, ceiling grid."""

from __future__ import annotations

import dataclasses
import datetime as dt
import random

import numpy as np
import pytest

from courtcast import evaluate
from courtcast.adjust import AveragingScheme, Seeding, run_seasons
from courtcast.baselines import PythagParams, pythag_pair_prob
from courtcast.evaluate import (
    BASELINE_KINDS,
    EvalError,
    EvalReport,
    binomial_halfwidth,
    evaluate_predictor,
    glass_ceiling_experiment,
    walk_forward_evaluate,
)
from courtcast.features import FeatureScheme, Label, MatchInstance, build_dataset, feature_names
from courtcast.ingest import GameLogError, parse_game_log, write_game_log
from courtcast.models import ModelError, ModelKind
from courtcast.stats import Site
from courtcast.synthetic import SyntheticLeagueSpec, generate_league
from tests.oracles import calibrate_home_advantage


def make_instances(labels_by_date: list[tuple[str, list[Label]]]) -> list[MatchInstance]:
    """One instance per label; teams are distinct within a date."""
    out = []
    for date_s, labels in labels_by_date:
        date = dt.date.fromisoformat(date_s)
        for k, label in enumerate(labels):
            out.append(MatchInstance(
                scheme=FeatureScheme.ADJ_EFF, location=Site.HOME,
                features=np.zeros(len(feature_names(FeatureScheme.ADJ_EFF))),
                label=label, date=date, season=date.year,
                team_first=f"t{2 * k:02d}", team_second=f"t{2 * k + 1:02d}"))
    return out


def echo(inst: MatchInstance) -> tuple[Label, float]:
    return inst.label, 1.0 if inst.label is Label.WIN else 0.0


REPORT_KW = dict(test_season=2021, kind="probe", scheme="adj_eff",
                 averaging="alpha", seeding="prior_season", seed=0,
                 n_train=0, config={})


@pytest.fixture(scope="module")
def noise_free_league():
    spec = SyntheticLeagueSpec(n_teams=8, games_per_team=14, n_seasons=2,
                               noise=0.0, seed=5)
    store, _ = generate_league(spec)
    return store


class TestEvaluatePredictor:
    def test_label_echo_scores_one_with_flat_curve(self):
        instances = make_instances([
            ("2021-01-02", [Label.WIN, Label.LOSS]),
            ("2021-01-04", [Label.LOSS]),
            ("2021-01-07", [Label.WIN, Label.WIN]),
        ])
        report = evaluate_predictor(instances, echo, **REPORT_KW)
        assert report.accuracy == 1.0
        assert [acc for _, acc in report.series] == [1.0, 1.0, 1.0]

    def test_two_point_hand_case(self):
        # first prediction wrong, second correct -> cumulative 0.0 then 0.5
        instances = make_instances([
            ("2021-01-02", [Label.WIN]),
            ("2021-01-05", [Label.WIN]),
        ])
        calls = iter([Label.LOSS, Label.WIN])

        def flaky(inst):
            lab = next(calls)
            return lab, 1.0 if lab is Label.WIN else 0.0

        report = evaluate_predictor(instances, flaky, **REPORT_KW)
        assert [(d.isoformat(), acc) for d, acc in report.series] == [
            ("2021-01-02", 0.0), ("2021-01-05", 0.5)]
        assert report.accuracy == 0.5

    def test_accuracy_equals_mean_correctness(self):
        rng = random.Random(31)
        instances = make_instances([
            (f"2021-01-{d:02d}", [rng.choice(list(Label)) for _ in range(4)])
            for d in range(1, 21)])

        def coin(inst):
            p = rng.random()
            return (Label.WIN if p > 0.5 else Label.LOSS), p

        report = evaluate_predictor(instances, coin, **REPORT_KW)
        mean = np.mean([p.correct for p in report.predictions])
        assert abs(report.accuracy - mean) <= 1e-12
        assert report.n_test == len(instances)

    def test_confusion_counts_sum_and_diagonal(self):
        instances = make_instances([("2021-01-02", [Label.WIN, Label.LOSS, Label.WIN])])
        report = evaluate_predictor(instances, lambda i: (Label.WIN, 0.9), **REPORT_KW)
        assert sum(report.confusion.values()) == 3
        assert report.confusion["pred_win_actual_win"] == 2
        assert report.confusion["pred_win_actual_loss"] == 1
        assert report.confusion["pred_loss_actual_win"] == 0

    def test_evaluation_order_never_changes_the_report(self):
        instances = make_instances([
            ("2021-01-02", [Label.WIN, Label.LOSS]),
            ("2021-01-04", [Label.LOSS, Label.WIN]),
            ("2021-01-09", [Label.WIN]),
        ])
        baseline = evaluate_predictor(instances, echo, **REPORT_KW).to_json()
        rng = random.Random(7)
        for _ in range(5):
            shuffled = instances[:]
            rng.shuffle(shuffled)
            assert evaluate_predictor(shuffled, echo, **REPORT_KW).to_json() == baseline

    def test_predictions_in_canonical_order(self):
        instances = make_instances([
            ("2021-01-09", [Label.WIN]),
            ("2021-01-02", [Label.LOSS, Label.WIN]),
        ])
        report = evaluate_predictor(list(reversed(instances)), echo, **REPORT_KW)
        keys = [(p.date, p.team_first, p.team_second) for p in report.predictions]
        assert keys == sorted(keys)

    def test_one_series_point_per_date(self):
        instances = make_instances([
            ("2021-01-02", [Label.WIN, Label.LOSS, Label.WIN]),
            ("2021-01-04", [Label.LOSS]),
        ])
        report = evaluate_predictor(instances, echo, **REPORT_KW)
        assert [d.isoformat() for d, _ in report.series] == ["2021-01-02", "2021-01-04"]

    def test_empty_and_unlabeled_rejected(self):
        with pytest.raises(EvalError, match="nothing to evaluate"):
            evaluate_predictor([], echo, **REPORT_KW)
        bare = dataclasses.replace(make_instances([("2021-01-02", [Label.WIN])])[0],
                                   label=None)
        with pytest.raises(EvalError, match="labeled"):
            evaluate_predictor([bare], echo, **REPORT_KW)


class TestBinomialHalfwidth:
    def test_frozen_value_at_the_ceiling_grid_size(self):
        assert binomial_halfwidth(0.75, 480) == pytest.approx(
            0.05090929664387351, abs=1e-15)

    def test_shrinks_with_sample_size(self):
        assert binomial_halfwidth(0.5, 400) < binomial_halfwidth(0.5, 100)

    def test_validation(self):
        with pytest.raises(EvalError, match="proportion"):
            binomial_halfwidth(1.2, 100)
        with pytest.raises(EvalError, match="sample size"):
            binomial_halfwidth(0.5, 0)


class TestWalkForward:
    def test_noise_free_league_is_learnable(self, noise_free_league):
        report = walk_forward_evaluate(noise_free_league, 2022,
                                       ModelKind.NAIVE_BAYES_KDE,
                                       FeatureScheme.ADJ_EFF, seed=0)
        assert report.accuracy >= 0.95
        assert report.n_train == 56 and report.n_test == 56
        assert report.kind == "naive_bayes_kde"

    def test_report_is_byte_identical_for_fixed_seed(self, noise_free_league):
        a = walk_forward_evaluate(noise_free_league, 2022, ModelKind.MLP,
                                  FeatureScheme.ADJ_EFF, seed=4)
        b = walk_forward_evaluate(noise_free_league, 2022, ModelKind.MLP,
                                  FeatureScheme.ADJ_EFF, seed=4)
        assert a.to_json() == b.to_json()

    def test_pythag_baseline_solves_the_transitive_league(self, noise_free_league):
        report = walk_forward_evaluate(noise_free_league, 2022, "pythag",
                                       FeatureScheme.ADJ_EFF)
        assert report.accuracy >= 0.95
        assert report.config["hyper"] == {"y": 11.5}

    def test_pythag_exponent_override_is_echoed(self, noise_free_league):
        report = walk_forward_evaluate(noise_free_league, 2022, "pythag",
                                       FeatureScheme.ADJ_EFF, hyper={"y": 5.0})
        assert report.config["hyper"] == {"y": 5.0}

    def test_home_baseline_tracks_the_calibrated_home_rate(self):
        edge = calibrate_home_advantage(8.0, 0.63)
        spec = SyntheticLeagueSpec(n_teams=20, games_per_team=40, n_seasons=2,
                                   noise=8.0, home_advantage=edge,
                                   strength_spread=0.0, seed=13)
        store, _ = generate_league(spec)
        report = walk_forward_evaluate(store, 2022, "home_wins", FeatureScheme.RAW)
        assert report.accuracy == pytest.approx(0.63, abs=0.05)
        assert report.n_test == 400

    def test_baseline_hyper_rejection(self, noise_free_league):
        with pytest.raises(EvalError, match="no hyperparameters"):
            walk_forward_evaluate(noise_free_league, 2022, "home_wins",
                                  FeatureScheme.RAW, hyper={"y": 2.0})
        with pytest.raises(EvalError, match="unknown hyperparameter"):
            walk_forward_evaluate(noise_free_league, 2022, "pythag",
                                  FeatureScheme.RAW, hyper={"exponent": 2.0})

    def test_unknown_kind_lists_the_valid_names(self, noise_free_league):
        with pytest.raises(EvalError, match="home_wins"):
            walk_forward_evaluate(noise_free_league, 2022, "elo",
                                  FeatureScheme.ADJ_EFF)

    @pytest.mark.parametrize("kind, scheme, hyper, match", [
        ("elo", FeatureScheme.ADJ_EFF, None, "kind must be one of"),
        (ModelKind.MLP, "elo", None, "scheme must be one of"),
        ("pythag", FeatureScheme.RAW, {"exponent": 2.0}, "unknown hyperparameter"),
    ])
    def test_bad_names_fail_before_the_adjust_pass(
            self, noise_free_league, monkeypatch, kind, scheme, hyper, match):
        def reached(*args, **kwargs):
            raise AssertionError("the adjust pass ran before the names were checked")

        monkeypatch.setattr(evaluate, "season_runs", reached)
        with pytest.raises(EvalError, match=match):
            walk_forward_evaluate(noise_free_league, 2022, kind, scheme, hyper=hyper)

    @pytest.mark.parametrize("averaging, seeding, match", [
        ("ewma", Seeding.PRIOR_SEASON,
         r"averaging must be one of \['alpha', 'explicit'\], got 'ewma'"),
        (AveragingScheme.ALPHA, "cold",
         r"seeding must be one of \['prior_season', 'from_scratch'\], got 'cold'"),
    ], ids=["averaging", "seeding"])
    def test_bad_adjust_schemes_fail_before_the_adjust_pass(
            self, noise_free_league, monkeypatch, averaging, seeding, match):
        def reached(*args, **kwargs):
            raise AssertionError("the adjust pass ran before the names were checked")

        monkeypatch.setattr(evaluate, "season_runs", reached)
        with pytest.raises(EvalError, match=match):
            walk_forward_evaluate(noise_free_league, 2022, ModelKind.MLP,
                                  FeatureScheme.ADJ_EFF, averaging, seeding)

    def test_missing_test_season_propagates(self, noise_free_league):
        with pytest.raises(GameLogError):
            walk_forward_evaluate(noise_free_league, 2030,
                                  ModelKind.NAIVE_BAYES_KDE, FeatureScheme.ADJ_EFF)

    def test_earliest_season_has_no_training_data(self, noise_free_league):
        with pytest.raises(GameLogError, match="earliest"):
            walk_forward_evaluate(noise_free_league, 2021,
                                  ModelKind.NAIVE_BAYES_KDE, FeatureScheme.ADJ_EFF)


@pytest.fixture(scope="module")
def smoke_report():
    spec = SyntheticLeagueSpec(n_teams=8, games_per_team=14, n_seasons=2,
                               noise=6.0, seed=9)
    return glass_ceiling_experiment(
        spec, [ModelKind.NAIVE_BAYES_KDE, "home_wins"],
        [FeatureScheme.ADJ_EFF, FeatureScheme.RAW],
        seed=1)


def cells_by_key(report) -> dict:
    return {(c.kind, c.scheme): c for c in report.cells}


class TestGlassCeiling:
    def test_grid_shape_and_gap_arithmetic(self, smoke_report):
        assert len(smoke_report.cells) == 4
        for cell in smoke_report.cells:
            assert cell.n_test == smoke_report.n_test == 56
            assert cell.gap == pytest.approx(cell.accuracy - smoke_report.bound)

    def test_no_cell_beats_the_bound_beyond_tolerance(self, smoke_report):
        cap = smoke_report.bound + binomial_halfwidth(smoke_report.bound,
                                                      smoke_report.n_test)
        assert all(c.accuracy <= cap for c in smoke_report.cells)

    def test_adjusted_features_hold_up_against_raw(self, smoke_report):
        cells = cells_by_key(smoke_report)
        nb_adj = cells[("naive_bayes_kde", "adj_eff")].accuracy
        nb_raw = cells[("naive_bayes_kde", "raw")].accuracy
        assert nb_adj >= nb_raw - 0.01

    def test_baseline_ignores_the_feature_scheme(self, smoke_report):
        cells = cells_by_key(smoke_report)
        assert (cells[("home_wins", "adj_eff")].accuracy
                == cells[("home_wins", "raw")].accuracy)

    def test_cell_lookup_raises_on_missing(self, smoke_report):
        with pytest.raises(KeyError):
            cells_by_key(smoke_report)[("mlp", "adj_eff")]

    def test_config_echo_round_trips_the_spec(self, smoke_report):
        echoed = smoke_report.config["spec"]
        assert echoed["n_teams"] == 8
        assert echoed["games_per_team"] == 14
        assert echoed["seed"] == 9
        assert smoke_report.test_season == 2022

    def test_single_season_league_is_rejected(self):
        spec = SyntheticLeagueSpec(n_teams=4, games_per_team=4, n_seasons=1)
        with pytest.raises(EvalError, match="season"):
            glass_ceiling_experiment(spec, [ModelKind.NAIVE_BAYES_KDE],
                                     [FeatureScheme.ADJ_EFF])

    @pytest.mark.parametrize("kinds, schemes", [
        ([], [FeatureScheme.ADJ_EFF]), ([ModelKind.NAIVE_BAYES_KDE], [])])
    def test_an_empty_grid_is_rejected(self, kinds, schemes):
        spec = SyntheticLeagueSpec(n_teams=4, games_per_team=4, n_seasons=2)
        with pytest.raises(EvalError, match="at least one kind and one scheme"):
            glass_ceiling_experiment(spec, kinds, schemes)

    @pytest.mark.parametrize("kinds, overrides, match", [
        (["bogus"], None, "kind must be one of"),
        ([ModelKind.MLP], {"decision_tree": {"min_node_fraction": 0.05}}, "does not run"),
        (["home_wins"], {"pythag": {"y": 3.0}}, "does not run"),
        ([ModelKind.DECISION_TREE], {"decision_tree": {"min_node_fraction": "abc"}},
         "min_node_fraction"),
        ([ModelKind.MLP, "mlp"], None, "kind 'mlp' is named twice"),
    ])
    def test_kinds_and_overrides_are_checked_before_the_league_is_made(
            self, monkeypatch, kinds, overrides, match):
        def reached(*args, **kwargs):
            raise AssertionError("the league was generated before the grid was checked")

        monkeypatch.setattr(evaluate, "league_games", reached)
        monkeypatch.setattr(evaluate, "league_truth", reached)
        spec = SyntheticLeagueSpec(n_teams=4, games_per_team=4, n_seasons=2)
        with pytest.raises(EvalError, match=match):
            glass_ceiling_experiment(spec, kinds, [FeatureScheme.ADJ_EFF],
                                     hyper_overrides=overrides)

    @pytest.mark.parametrize("schemes, match", [
        ([FeatureScheme.ADJ_EFF, "elo"], "scheme must be one of"),
        (["raw", FeatureScheme.RAW], "scheme 'raw' is named twice"),
    ])
    def test_schemes_are_checked_before_the_league_is_made(self, monkeypatch,
                                                           schemes, match):
        def reached(*args, **kwargs):
            raise AssertionError("the league was generated before the schemes were checked")

        monkeypatch.setattr(evaluate, "league_games", reached)
        monkeypatch.setattr(evaluate, "league_truth", reached)
        spec = SyntheticLeagueSpec(n_teams=4, games_per_team=4, n_seasons=2)
        with pytest.raises(EvalError, match=match):
            glass_ceiling_experiment(spec, [ModelKind.NAIVE_BAYES_KDE], schemes)

    @pytest.mark.parametrize("averaging, seeding, match", [
        ("ewma", Seeding.PRIOR_SEASON,
         r"averaging must be one of \['alpha', 'explicit'\], got 'ewma'"),
        (AveragingScheme.EXPLICIT, "cold",
         r"seeding must be one of \['prior_season', 'from_scratch'\], got 'cold'"),
    ], ids=["averaging", "seeding"])
    def test_adjust_schemes_are_checked_before_the_league_is_made(
            self, monkeypatch, averaging, seeding, match):
        def reached(*args, **kwargs):
            raise AssertionError("the league was generated before the names were checked")

        monkeypatch.setattr(evaluate, "league_games", reached)
        monkeypatch.setattr(evaluate, "league_truth", reached)
        monkeypatch.setattr(evaluate, "season_runs", reached)
        spec = SyntheticLeagueSpec(n_teams=4, games_per_team=4, n_seasons=2)
        with pytest.raises(EvalError, match=match):
            glass_ceiling_experiment(spec, [ModelKind.NAIVE_BAYES_KDE],
                                     [FeatureScheme.ADJ_EFF], averaging, seeding)

    def test_hyper_overrides_reach_the_models(self):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=14, n_seasons=2,
                                   noise=6.0, seed=9)
        report = glass_ceiling_experiment(
            spec, [ModelKind.DECISION_TREE], [FeatureScheme.ADJ_EFF],
            seed=1,
            hyper_overrides={"decision_tree": {"min_node_fraction": 0.25}})
        assert report.config["hyper_overrides"] == {
            "decision_tree": {"min_node_fraction": 0.25}}

    def test_every_cell_equals_its_walk_forward_evaluation(self):
        # the grid trains each kind once over all schemes (MLPs in lockstep);
        # each cell must still score as its own walk-forward run does
        spec = SyntheticLeagueSpec(n_teams=10, games_per_team=12, n_seasons=2,
                                   noise=6.0, seed=5)
        kinds = [*ModelKind, *BASELINE_KINDS]
        schemes = [FeatureScheme.ADJ_EFF, FeatureScheme.ADJ_FOUR_FACTORS, FeatureScheme.RAW]
        hyper = {"mlp": {"epochs": 20}, "random_forest": {"n_trees": 5}}
        report = glass_ceiling_experiment(spec, kinds, schemes, seed=3,
                                          hyper_overrides=hyper)
        store, _ = generate_league(spec)
        order = [(scheme, kind) for scheme in schemes for kind in kinds]
        assert len(report.cells) == len(order) == 18
        for cell, (scheme, kind) in zip(report.cells, order):
            alone = walk_forward_evaluate(store, report.test_season, kind, scheme,
                                          seed=3, hyper=hyper.get(getattr(kind, "value", kind)))
            assert (cell.kind, cell.scheme) == (alone.kind, alone.scheme)
            assert (cell.accuracy, cell.n_test) == (alone.accuracy, alone.n_test), cell
            assert cell.n_test == report.n_test


def test_both_entry_points_reach_the_adjust_pass_the_name_checks_patch(
        noise_free_league, monkeypatch):
    # the name-check tests patch evaluate.season_runs: with good names both
    # entry points must call it, or those tests would check nothing
    def reached(*args, **kwargs):
        raise AssertionError("the adjust pass ran")

    monkeypatch.setattr(evaluate, "season_runs", reached)
    with pytest.raises(AssertionError, match="the adjust pass ran"):
        walk_forward_evaluate(noise_free_league, 2022, "home_wins", FeatureScheme.ADJ_EFF)
    with pytest.raises(AssertionError, match="the adjust pass ran"):
        glass_ceiling_experiment(SyntheticLeagueSpec(n_teams=4, games_per_team=4, n_seasons=2),
                                 ["home_wins"], [FeatureScheme.ADJ_EFF])


@pytest.mark.parametrize("hyper", [None, {"y": 3.0}])
@pytest.mark.parametrize("averaging", list(AveragingScheme))
@pytest.mark.parametrize("seeding", list(Seeding))
def test_pythag_rows_match_the_snapshot_path(two_season_store, averaging, seeding, hyper):
    # pythag is scored from the run's pre-match rows; each probability must
    # be the one the snapshots of the same run give, bit for bit
    test_season = two_season_store.seasons[-1]
    report = walk_forward_evaluate(two_season_store, test_season, "pythag",
                                   FeatureScheme.ADJ_EFF, averaging, seeding, hyper=hyper)
    run = run_seasons(two_season_store, averaging, seeding,
                      through=test_season)[test_season]
    params = PythagParams(**(hyper or {}))
    assert report.n_test == len(run.columns)
    for p in report.predictions:
        snaps = run.pre_match[(p.date, p.team_first, p.team_second)]
        assert p.p_win == pythag_pair_prob(*snaps, params)


def test_every_test_set_is_in_report_order(tmp_path):
    # the grid core hands each cell's probabilities to the report builder in
    # test-set order, so every scheme's test set must already be in the
    # report's (date, team_first, team_second) order, whatever the log's
    spec = SyntheticLeagueSpec(n_teams=8, games_per_team=14, n_seasons=2,
                               noise=6.0, seed=9)
    store, _ = generate_league(spec)
    write_game_log(store, tmp_path / "games.csv")
    header, *rows = (tmp_path / "games.csv").read_text().splitlines()
    random.Random(3).shuffle(rows)
    (tmp_path / "shuffled.csv").write_text("\n".join([header, *rows]) + "\n")
    shuffled = parse_game_log(tmp_path / "shuffled.csv")
    test_season = shuffled.seasons[-1]
    dates = [g.date for g in shuffled.games(test_season)]
    assert len(set(dates)) < len(dates), "no date with several games"
    runs = run_seasons(shuffled, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON,
                       through=test_season)
    for scheme in FeatureScheme:
        _, test_set = build_dataset(shuffled, runs, scheme, test_season)
        ordered = sorted(test_set, key=lambda i: (i.date, i.team_first, i.team_second))
        assert all(a is b for a, b in zip(test_set, ordered, strict=True)), scheme


@pytest.mark.parametrize("kind", [ModelKind.DECISION_TREE, ModelKind.MLP])
def test_training_seasons_of_one_class_are_refused(two_season_store, kind):
    # the first team wins every game of the hand-built store
    assert all(g.winner() == g.team_a for g in two_season_store.all_games())
    with pytest.raises(ModelError, match="training data must contain both classes, "
                                         "got only wins"):
        walk_forward_evaluate(two_season_store, two_season_store.seasons[-1], kind,
                              FeatureScheme.ADJ_EFF)


def test_baseline_kind_registry():
    assert BASELINE_KINDS == ("home_wins", "pythag")
    assert not set(BASELINE_KINDS) & {k.value for k in ModelKind}


def test_report_serialization_is_deterministic():
    instances = make_instances([("2021-01-02", [Label.WIN, Label.LOSS])])
    report = evaluate_predictor(instances, echo, **REPORT_KW)
    assert report.to_json() == report.to_json()
    assert isinstance(report, EvalReport)
