"""Pythagorean ratings, RPI, and round-robin rankings."""

import dataclasses
import datetime as dt
import math

import numpy as np
import pytest

from courtcast.adjust import AveragingScheme, Seeding, run_seasons, team_row
from courtcast.baselines import (
    BaselineError,
    PythagParams,
    Ranking,
    model_predictor,
    pythag_pair_prob,
    pythag_predictor,
    pythag_rating,
    round_robin_rank,
    rpi,
)
from courtcast.features import FeatureScheme, MatchInstance, build_dataset, encode_pairing
from courtcast.ingest import GameRecord, Location, SeasonStore
from courtcast.models import ModelKind, naive_bayes, predict, train
from courtcast.stats import Site
from courtcast.synthetic import SyntheticLeagueSpec, generate_league
from tests.conftest import BOX_A, BOX_B
from tests.oracles import naive_rpi
from tests.test_features import make_snap


def snap(team, oe, de):
    return dataclasses.replace(make_snap(team, 100.0), adj_oe=oe, adj_de=de)


def rows_of(snaps) -> dict:
    """Each snapshot's team row, keyed by its team: a ranking's input."""
    return {s.team: team_row(s) for s in snaps}


def neutral_game(a, b, a_wins, day, month=1):
    return GameRecord(
        date=dt.date(2011, month, day), season=2011, team_a=a, team_b=b,
        location=Location.NEUTRAL,
        box_a=BOX_A if a_wins else BOX_B,
        box_b=BOX_B if a_wins else BOX_A)


def season_of(games):
    """The 2011 columns of a store of ``games``: what ``rpi`` reads."""
    return SeasonStore(games).columns(2011)


class TestPythagRating:
    def test_worked_example(self):
        r = pythag_rating(snap("t", oe=110.0, de=100.0), PythagParams(y=11.5))
        expected = 110.0**11.5 / (110.0**11.5 + 100.0**11.5)
        assert r == pytest.approx(expected, abs=1e-9)
        assert r == 0.7495224674791585

    def test_equal_efficiencies_is_half(self):
        assert pythag_rating(snap("t", oe=104.25, de=104.25)) == 0.5

    def test_exact_complement(self):
        # swapping offense and defense must give 1 - rating, bit for bit
        rng = np.random.default_rng(7)
        for _ in range(200):
            oe, de = rng.uniform(60.0, 140.0, size=2)
            y = rng.uniform(0.5, 30.0)
            params = PythagParams(y=y)
            r = pythag_rating(snap("t", oe, de), params)
            r_swapped = pythag_rating(snap("t", de, oe), params)
            assert r + r_swapped == 1.0

    @pytest.mark.parametrize("y", [1.0, 11.5, 50.0])
    def test_monotone_in_offense(self, y):
        params = PythagParams(y=y)
        ratings = [pythag_rating(snap("t", oe, 100.0), params)
                   for oe in (90.0, 95.0, 100.0, 105.0, 110.0)]
        assert all(a < b for a, b in zip(ratings, ratings[1:]))

    def test_scale_invariance(self):
        # the rating depends only on the oe/de ratio
        params = PythagParams(y=11.5)
        base = pythag_rating(snap("t", 108.0, 97.0), params)
        for c in (0.5, 2.0, 10.0):
            scaled = pythag_rating(snap("t", 108.0 * c, 97.0 * c), params)
            assert math.isclose(scaled, base, rel_tol=1e-9)

    @pytest.mark.parametrize("oe, de, y, way", [
        (100.0, 100.0, 154.0, "overflows"),     # each power is finite, their sum is not
        (100.0, 100.0, 1e308, "overflows"),     # the powers themselves overflow
        (0.25, 0.3, 10000.0, "underflows"),     # both powers are 0.0
    ])
    def test_a_rating_outside_the_float_range_is_refused(self, oe, de, y, way):
        with pytest.raises(BaselineError) as refused:
            pythag_rating(snap("t", oe, de), PythagParams(y=y))
        assert str(refused.value) == f"t: rating {way} at exponent {y}"

    @pytest.mark.parametrize("oe, de, y, rating", [
        (100.0, 100.0, 153.0, 0.5),             # the sum is 2e306
        (1e-3, 1.0, 150.0, 0.0),                # one power underflows, the other is 1
        (1.0, 1e-3, 150.0, 1.0),
    ])
    def test_a_rating_at_the_float_range_edges(self, oe, de, y, rating):
        assert pythag_rating(snap("t", oe, de), PythagParams(y=y)) == rating

    def test_higher_exponent_more_decisive(self):
        mild = pythag_rating(snap("t", 110.0, 100.0), PythagParams(y=1.0))
        sharp = pythag_rating(snap("t", 110.0, 100.0), PythagParams(y=50.0))
        assert 0.5 < mild < sharp

    def test_invalid_inputs(self):
        with pytest.raises(BaselineError):
            PythagParams(y=0.0)
        with pytest.raises(BaselineError):
            PythagParams(y=-2.0)
        with pytest.raises(BaselineError):
            pythag_rating(snap("t", 0.0, 100.0))
        with pytest.raises(BaselineError):
            pythag_rating(snap("t", 100.0, -5.0))


class TestPairProbability:
    def test_equal_ratings_half(self):
        assert pythag_pair_prob(snap("a", 105.0, 95.0), snap("b", 105.0, 95.0)) == 0.5

    def test_ordering_matches_ratings(self):
        stronger = snap("a", 112.0, 96.0)
        weaker = snap("b", 101.0, 103.0)
        assert pythag_pair_prob(stronger, weaker) > 0.5
        assert pythag_pair_prob(weaker, stronger) < 0.5

    def test_complementary(self):
        p = pythag_pair_prob(snap("a", 108.0, 99.0), snap("b", 97.0, 104.0))
        q = pythag_pair_prob(snap("b", 97.0, 104.0), snap("a", 108.0, 99.0))
        assert p + q == pytest.approx(1.0, abs=1e-12)


class TestRpi:
    @pytest.fixture()
    def triangle(self):
        # x beat y and z; y beat z
        return [neutral_game("x", "y", True, 1),
                neutral_game("x", "z", True, 2),
                neutral_game("y", "z", True, 3)]

    def test_hand_computed_triangle(self, triangle):
        # x: WP 1.0, OWP (1.0 + 0.0)/2, OOWP 0.5 -> 0.625
        ratings = rpi(season_of(triangle))
        assert ratings["x"] == pytest.approx(0.625, abs=1e-12)
        assert ratings["y"] == pytest.approx(0.500, abs=1e-12)
        assert ratings["z"] == pytest.approx(0.375, abs=1e-12)

    def test_repeat_games_count_per_game(self):
        games = [neutral_game("x", "y", True, 1),
                 neutral_game("x", "y", True, 2),
                 neutral_game("y", "z", True, 3)]
        # y's record vs everyone-but-x is 1-0, and it appears twice in x's OWP
        ratings = rpi(season_of(games))
        assert ratings["x"] == pytest.approx(0.875, abs=1e-12)
        assert ratings["y"] == pytest.approx(0.500, abs=1e-12)
        assert ratings["z"] == pytest.approx(0.125, abs=1e-12)

    def test_uniform_league_is_half(self):
        # double round robin, every pair splits: all components are .500
        teams = ["e1", "e2", "e3", "e4"]
        games, day = [], 1
        for i in range(4):
            for j in range(i + 1, 4):
                games.append(neutral_game(teams[i], teams[j], True, day))
                games.append(neutral_game(teams[i], teams[j], False, day + 1))
                day += 2
        ratings = rpi(season_of(games))
        for t in teams:
            assert abs(ratings[t] - 0.5) <= 1e-12

    def test_unknown_team_is_not_rated(self, triangle):
        season = season_of(triangle)
        assert "w" not in rpi(season)
        assert sorted(rpi(season)) == ["x", "y", "z"]
        no_games = dataclasses.replace(season, **{
            c: getattr(season, c)[:0] for c in ("dates", "team_a", "team_b", "location", "box")})
        with pytest.raises(BaselineError):
            rpi(no_games)


class TestRoundRobinRank:
    def test_two_teams(self):
        ranking = round_robin_rank(
            pythag_predictor(), rows_of([snap("weak", 98.0, 104.0), snap("strong", 112.0, 95.0)]))
        assert [e.team for e in ranking.entries] == ["strong", "weak"]
        assert [e.score for e in ranking.entries] == [1.0, 0.0]
        assert [e.rank for e in ranking.entries] == [1, 2]

    def test_matches_rating_order_on_random_sets(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            snaps = [snap(f"t{i:02d}", rng.uniform(85.0, 120.0), rng.uniform(85.0, 120.0))
                     for i in range(10)]
            ranking = round_robin_rank(pythag_predictor(), rows_of(snaps))
            by_rating = sorted(snaps, key=lambda s: (-pythag_rating(s), s.team))
            assert [e.team for e in ranking.entries] == [s.team for s in by_rating]
            # a totally ordered field: k-th team wins exactly n-1-k pairings
            assert [e.score for e in ranking.entries] == [9.0 - k for k in range(10)]

    def test_exact_tie_goes_to_first_team(self):
        snaps = [snap("a", 105.0, 95.0), snap("b", 105.0, 95.0), snap("c", 90.0, 110.0)]
        ranking = round_robin_rank(pythag_predictor(), rows_of(snaps))
        assert [e.team for e in ranking.entries] == ["a", "b", "c"]
        assert [e.score for e in ranking.entries] == [2.0, 1.0, 0.0]

    def test_cycle_breaks_by_mean_probability(self):
        table = {("a", "b"): 0.9, ("b", "c"): 0.8, ("a", "c"): 0.1}

        def predictor(teams, rows, first, second):
            return [table[(teams[i], teams[j])] for i, j in zip(first, second)]

        snaps = [snap("a", 100.0, 100.0), snap("b", 100.0, 100.0), snap("c", 100.0, 100.0)]
        ranking = round_robin_rank(predictor, rows_of(snaps))
        # everyone 1-1; mean probabilities: c 0.55, a 0.50, b 0.45
        assert [e.team for e in ranking.entries] == ["c", "a", "b"]
        assert [e.mean_p for e in ranking.entries] == pytest.approx([0.55, 0.5, 0.45])

    def test_input_validation(self):
        with pytest.raises(BaselineError, match="at least two"):
            round_robin_rank(pythag_predictor(), rows_of([snap("a", 100.0, 100.0)]))
        with pytest.raises(BaselineError, match="invalid probability"):
            round_robin_rank(lambda teams, rows, first, second: np.full(len(first), 1.5),
                             rows_of([snap("a", 100.0, 100.0), snap("b", 100.0, 100.0)]))

    def test_model_predictor_ranks_by_strength(self):
        from tests.test_models import separable_instances

        model = train(separable_instances(200, seed=3), ModelKind.NAIVE_BAYES_KDE)
        snaps = [snap("mid", 100.0, 100.0), snap("top", 114.0, 92.0),
                 snap("low", 90.0, 112.0)]
        ranking = round_robin_rank(model_predictor(model), rows_of(snaps))
        assert [e.team for e in ranking.entries] == ["top", "mid", "low"]


def reference_rank(model, snaps) -> list[tuple[str, float, float]]:
    """(team, score, mean_p) in rank order, from one ``encode_pairing`` and one
    ``predict`` per pairing, accumulated in the same i < j order."""
    snaps = sorted(snaps, key=lambda s: s.team)
    wins = {s.team: 0 for s in snaps}
    prob_sum = {s.team: 0.0 for s in snaps}
    for i, a in enumerate(snaps):
        for b in snaps[i + 1:]:
            inst = MatchInstance(
                scheme=model.scheme, location=Site.NEUTRAL,
                features=encode_pairing(a, b, model.scheme), label=None,
                date=a.date, season=a.season, team_first=a.team, team_second=b.team)
            p = predict(model, inst)[1]
            prob_sum[a.team] += p
            prob_sum[b.team] += 1.0 - p
            wins[a.team if p >= 0.5 else b.team] += 1
    n = len(snaps) - 1
    order = sorted(wins, key=lambda t: (-wins[t], -prob_sum[t] / n, t))
    return [(t, float(wins[t]), prob_sum[t] / n) for t in order]


@pytest.fixture(scope="module")
def league():
    from tests.test_models import generated_league

    run, train_set, _ = generated_league()
    return run, train_set


def final_rows(run) -> dict:
    """Each team's final row, as ``cli rank`` reads it."""
    return dict(zip(run.teams, run.final_rows))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_batched_model_ranking_equals_per_pair_predictions(league, kind):
    run, train_set = league
    hyper = {"epochs": 20} if kind is ModelKind.MLP else None
    model = train(train_set, kind, hyper=hyper, seed=2)
    ranking = round_robin_rank(model_predictor(model), final_rows(run))
    got = [(e.team, e.score, e.mean_p) for e in ranking.entries]
    assert got == reference_rank(model, run.final.values())
    assert len({e.mean_p for e in ranking.entries}) > 1


@pytest.fixture(scope="module")
def season16():
    """A generated 16-team league: its store, adjusted runs and test season."""
    spec = SyntheticLeagueSpec(n_teams=16, games_per_team=12, n_seasons=2, seed=6)
    store, _ = generate_league(spec)
    test_season = store.seasons[-1]
    runs = run_seasons(store, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON,
                       through=test_season)
    return store, runs, test_season


@pytest.mark.parametrize("scheme", list(FeatureScheme))
def test_naive_bayes_ranking_equals_per_pair_predictions_on_every_scheme(season16, scheme):
    store, runs, test_season = season16
    train_set, _ = build_dataset(store, runs, scheme, test_season)
    model = train(train_set, ModelKind.NAIVE_BAYES_KDE)
    ranking = round_robin_rank(model_predictor(model), final_rows(runs[test_season]))
    got = [(e.team, e.score, e.mean_p) for e in ranking.entries]
    assert got == reference_rank(model, runs[test_season].final.values())


def test_naive_bayes_ranking_scores_each_team_not_each_pairing(season16, monkeypatch):
    # a work count, not a timing: a ranking's columns each hold one team's
    # values, so the per-row density runs about once per team and class
    store, runs, test_season = season16
    train_set, _ = build_dataset(store, runs, FeatureScheme.ADJ_FOUR_FACTORS, test_season)
    model = train(train_set, ModelKind.NAIVE_BAYES_KDE)
    rows = final_rows(runs[test_season])
    assert len(rows) == 16
    calls = []
    densities = naive_bayes._log_densities

    def counted(*args):
        calls.append(1)
        return densities(*args)

    monkeypatch.setattr(naive_bayes, "_log_densities", counted)
    round_robin_rank(model_predictor(model), rows)
    assert 0 < len(calls) <= 2 * 16


def test_rpi_equals_the_per_team_reference(season16):
    store, _, test_season = season16
    games = list(store.games(test_season))
    ratings = rpi(store.columns(test_season))
    assert sorted(ratings) == sorted(store.teams(test_season))
    for team, value in ratings.items():
        assert value == naive_rpi(team, games)  # bit for bit


class TestPythagPredictor:
    def test_equals_pair_probabilities(self, season16):
        # the rows' probabilities against the snapshot adapter's, bit for bit
        _, runs, test_season = season16
        run = runs[test_season]
        snaps = [run.final[team] for team in run.teams]
        first, second = np.triu_indices(len(snaps), k=1)
        params = PythagParams(y=9.0)
        got = pythag_predictor(params)(run.teams, run.final_rows, first, second)
        assert got == [pythag_pair_prob(snaps[i], snaps[j], params)
                       for i, j in zip(first, second)]

    def test_lowest_index_bad_team_fails_first(self):
        snaps = [snap(f"t{i}", 100.0 + i, 100.0) for i in range(6)]
        snaps[2] = snap("t2", -1.0, 100.0)
        snaps[4] = snap("t4", 100.0, 0.0)
        with pytest.raises(BaselineError, match="^t2:"):
            round_robin_rank(pythag_predictor(), rows_of(snaps))
