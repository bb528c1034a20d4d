"""Generator contracts: schedule structure, box validity, recorded ground truth."""

from __future__ import annotations

import datetime as dt
import math
import re
import sys
import warnings
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from courtcast import synthetic
from courtcast.adjust import run_seasons
from courtcast.ingest import MAX_COUNT, CourtcastError, Location, parse_game_log, write_game_log
from courtcast.stats import possessions
from courtcast.synthetic import (
    POINTS_PER_EFF,
    RAW_POSS,
    SyntheticError,
    SyntheticLeagueSpec,
    calibrate_noise,
    generate_league,
    league_games,
    league_truth,
    spread_strengths,
    team_names,
)
from tests.oracles import (
    calibrate_home_advantage,
    calibrate_noise_per_game,
    league_games_per_game,
    simulated_win_prob,
)


def net(strengths: dict[str, tuple[float, float]]) -> dict[str, float]:
    return {t: o - d for t, (o, d) in strengths.items()}


class TestSpecValidation:
    def test_rejects_odd_team_count(self):
        with pytest.raises(SyntheticError, match="odd team count"):
            SyntheticLeagueSpec(n_teams=5, games_per_team=4)

    def test_rejects_fewer_than_two_teams(self):
        with pytest.raises(SyntheticError, match="at least 2"):
            SyntheticLeagueSpec(n_teams=0, games_per_team=4)

    def test_rejects_nonpositive_games(self):
        with pytest.raises(SyntheticError, match="games_per_team"):
            SyntheticLeagueSpec(n_teams=4, games_per_team=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(SyntheticError, match="noise"):
            SyntheticLeagueSpec(n_teams=4, games_per_team=4, noise=-1.0)

    @pytest.mark.parametrize("imbalance", [-0.1, 1.5])
    def test_rejects_imbalance_outside_unit_interval(self, imbalance):
        with pytest.raises(SyntheticError, match="imbalance"):
            SyntheticLeagueSpec(n_teams=4, games_per_team=4, imbalance=imbalance)

    def test_tiered_scheduling_needs_even_halves(self):
        # halves must themselves be pairable -> team count divisible by 4
        with pytest.raises(SyntheticError, match="halves"):
            SyntheticLeagueSpec(n_teams=6, games_per_team=4, imbalance=0.5)

    def test_rejects_nonpositive_strengths(self):
        # two teams spread over +-100: strengths (0, 200) and (200, 0)
        with pytest.raises(SyntheticError, match="positive"):
            SyntheticLeagueSpec(n_teams=2, games_per_team=2, strength_spread=100.0)

    def test_rejects_nonpositive_seasons(self):
        with pytest.raises(SyntheticError, match="n_seasons"):
            SyntheticLeagueSpec(n_teams=4, games_per_team=4, n_seasons=0)

    @pytest.mark.parametrize("first_season, games, seasons", [
        (0, 1, 1), (-3, 1, 1), (10000, 1, 1), (9999, 40, 1), (9999, 32, 1), (9998, 1, 3)])
    def test_rejects_a_schedule_past_the_calendar(self, first_season, games, seasons):
        with pytest.raises(SyntheticError, match=f"first_season {first_season}, "):
            SyntheticLeagueSpec(n_teams=2, games_per_team=games, n_seasons=seasons,
                                first_season=first_season)

    @pytest.mark.parametrize("first_season, games, seasons, last", [
        (1, 3, 2, dt.date(2, 11, 5)), (9999, 31, 1, dt.date.max),
        (9998, 31, 2, dt.date.max)])
    def test_a_schedule_at_the_calendar_edges_runs(self, first_season, games, seasons, last):
        store = league_games(SyntheticLeagueSpec(
            n_teams=2, games_per_team=games, n_seasons=seasons, first_season=first_season))
        runs = run_seasons(store)
        assert list(runs) == list(range(first_season, first_season + seasons))
        assert runs[store.seasons[-1]].days[-1] == last

    def test_resolved_strengths_keys_are_team_names(self):
        spec = SyntheticLeagueSpec(n_teams=4, games_per_team=4)
        assert list(spec.resolved_strengths()) == list(team_names(4))


class TestSpreadStrengths:
    def test_net_values_span_twice_the_spread(self):
        nets = [o - d for o, d in spread_strengths(5, spread=10.0)]
        assert sorted(nets) == pytest.approx([-20.0, -10.0, 0.0, 10.0, 20.0])

    def test_alternation_breaks_name_order(self):
        # weak/strong zigzag: the strongest team must not sit at the end of
        # the id range, or canonical pairing order would leak the label
        pairs = spread_strengths(4, spread=10.0)
        assert pairs[0] == pytest.approx((90.0, 110.0))
        assert pairs[1] == pytest.approx((110.0, 90.0))
        nets = [o - d for o, d in pairs]
        assert nets[0] < 0 < nets[1]


class TestSchedule:
    def test_game_counts(self):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=10, n_seasons=2,
                                   noise=4.0, seed=3)
        store, _ = generate_league(spec)
        assert store.n_games == 8 * 10 // 2 * 2
        assert store.seasons == [2021, 2022]
        for season in store.seasons:
            counts = Counter()
            for g in store.games(season):
                counts[g.team_a] += 1
                counts[g.team_b] += 1
            assert set(counts.values()) == {10}

    def test_double_round_robin_meets_every_pair_twice_sides_swapped(self):
        spec = SyntheticLeagueSpec(n_teams=4, games_per_team=6, n_seasons=1,
                                   noise=3.0, seed=2)
        store, _ = generate_league(spec)
        locs: dict[tuple[str, str], list[Location]] = {}
        for g in store.all_games():
            locs.setdefault((g.team_a, g.team_b), []).append(g.location)
        assert len(locs) == 6
        assert all(set(v) == {Location.HOME_A, Location.HOME_B} for v in locs.values())

    def test_fully_tiered_schedule_never_crosses_halves(self):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=10, n_seasons=1,
                                   noise=4.0, seed=3, imbalance=1.0)
        store, truth = generate_league(spec)
        top = set(truth.net_order()[:4])
        crossings = [g for g in store.all_games()
                     if (g.team_a in top) != (g.team_b in top)]
        assert crossings == []
        counts = Counter()
        for g in store.all_games():
            counts[g.team_a] += 1
            counts[g.team_b] += 1
        assert set(counts.values()) == {10}


class TestGeneratedBoxes:
    def test_every_box_is_valid_with_positive_possessions(self):
        spec = SyntheticLeagueSpec(n_teams=16, games_per_team=20, n_seasons=1,
                                   noise=6.0, seed=11)
        store, _ = generate_league(spec)
        for g in store.all_games():
            for box in (g.box_a, g.box_b):
                box.validate()
                assert possessions(box) > 0

    def test_possession_identity_tight_without_noise(self):
        # box construction solves for OR from the possession identity; only
        # integer rounding (< one rebound) separates it from the budget
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=14, n_seasons=2,
                                   noise=0.0, seed=5)
        store, _ = generate_league(spec)
        budget = 0.96 * RAW_POSS
        for g in store.all_games():
            for box in (g.box_a, g.box_b):
                assert abs(possessions(box) - budget) <= 0.5

    def test_possession_identity_near_budget_at_default_noise(self):
        spec = SyntheticLeagueSpec(n_teams=16, games_per_team=20, n_seasons=1,
                                   noise=6.0, seed=11)
        store, _ = generate_league(spec)
        budget = 0.96 * RAW_POSS
        devs = [abs(possessions(box) - budget)
                for g in store.all_games() for box in (g.box_a, g.box_b)]
        assert max(devs) <= 1.5

    def test_winner_scores_more_points(self):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=10, n_seasons=1,
                                   noise=8.0, seed=17)
        store, _ = generate_league(spec)
        for g in store.all_games():
            assert g.box_a.points != g.box_b.points


class TestGroundTruth:
    def test_zero_noise_stronger_team_wins_every_game(self):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=14, n_seasons=2,
                                   noise=0.0, seed=5)
        store, truth = generate_league(spec)
        nets = net(truth.strengths)
        for g in store.all_games():
            loser = g.team_b if g.winner() == g.team_a else g.team_a
            assert nets[g.winner()] > nets[loser]
        assert truth.bayes_accuracy == 1.0
        assert set(truth.matchup_probs.values()) <= {0.0, 1.0}
        assert all(a < b for a, b, _ in truth.matchup_probs)  # canonical pairing keys

    def test_recorded_bayes_matches_calibration_target(self):
        base = SyntheticLeagueSpec(n_teams=16, games_per_team=20, n_seasons=1,
                                   noise=1.0, seed=11)
        noise = calibrate_noise(base, 0.75)
        spec = SyntheticLeagueSpec(n_teams=16, games_per_team=20, n_seasons=1,
                                   noise=noise, seed=11)
        _, truth = generate_league(spec)
        assert truth.bayes_accuracy == pytest.approx(0.75, abs=0.005)

    def test_net_order_sorts_by_net_strength(self):
        spec = SyntheticLeagueSpec(n_teams=6, games_per_team=5, n_seasons=1, seed=1)
        _, truth = generate_league(spec)
        nets = net(truth.strengths)
        order = truth.net_order()
        assert sorted(order, key=lambda t: (-nets[t], t)) == order

    def test_the_ignored_bayes_sims_keyword_changes_nothing(self):
        # the benchmark still passes it
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=10, n_seasons=2, seed=3)
        store, truth = generate_league(spec, bayes_sims=2_000)
        want_store, want_truth = generate_league(spec)
        assert store.all_games() == want_store.all_games()
        assert truth == want_truth


def _hexed(truth) -> tuple:
    return ([(key, p.hex()) for key, p in truth.matchup_probs.items()],
            truth.bayes_accuracy.hex())


class TestPerGameOracle:
    """The table-driven generator must build the per-game generator's league."""

    @pytest.mark.parametrize("kw", [
        dict(noise=6.0),
        dict(noise=0.0),
        dict(noise=6.0, imbalance=0.75),
        dict(noise=5.0, home_advantage=3.0),
        dict(noise=0.0, imbalance=0.75, home_advantage=3.0),
        # equal strengths: without a home edge every game's expectations tie
        dict(noise=6.0, strength_spread=0.0),
        dict(noise=6.0, strength_spread=0.0, home_advantage=3.0),
        dict(noise=0.0, strength_spread=0.0, home_advantage=3.0),
    ], ids=repr)
    def test_same_store_bit_for_bit(self, kw):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=10, n_seasons=2, seed=3, **kw)
        assert league_games(spec).all_games() == league_games_per_game(spec).all_games()


def _win_prob(mu_a: float, mu_b: float, noise: float) -> float:
    return float(synthetic._win_probs(np.array([[mu_a, mu_b]]), noise)[0])


class TestExactBound:
    """The bound's win probabilities are summed over point totals; each must
    be a matchup's Monte-Carlo win rate up to sampling error."""

    @pytest.mark.parametrize("noise", [2.0, 6.0, 200.0])
    @pytest.mark.parametrize("mu_a, mu_b", [
        (12.5, 11.0),     # both sides near the 4-point floor
        (100.0, 100.0),   # equal expectations: side a wins the ties
        (10.0, 10.0),     # equal, on the floor
        (118.0, 84.0),    # lopsided
        (84.0, 118.0),
    ])
    def test_equals_the_monte_carlo_rate_within_3_standard_errors(self, mu_a, mu_b, noise):
        sims = 400_000
        p = _win_prob(mu_a, mu_b, noise)
        rate = simulated_win_prob(mu_a, mu_b, noise, np.random.default_rng(0), sims)
        assert abs(rate - p) <= 3.0 * math.sqrt(p * (1.0 - p) / sims) + 1e-12

    @pytest.mark.parametrize("noise", [5e-324, 1e-300, 0.3, 6.0, 200.0, synthetic.MAX_NOISE])
    @pytest.mark.parametrize("mu_a, mu_b", [(12.5, 11.0), (101.3, 99.2), (118.0, 84.0)])
    def test_a_matchup_and_its_mirror_sum_to_one(self, mu_a, mu_b, noise):
        assert abs(_win_prob(mu_a, mu_b, noise) + _win_prob(mu_b, mu_a, noise) - 1.0) <= 1e-15

    @pytest.mark.parametrize("noise", [0.0, 0.3, 6.0])
    def test_on_the_floor_the_favorite_wins_every_tie(self, noise):
        # expectations far below the floor score 4 points a side
        assert _win_prob(-60.0, -80.0, noise) == 1.0
        assert _win_prob(-80.0, -60.0, noise) == 0.0
        assert _win_prob(-70.0, -70.0, noise) == 1.0


def test_the_bound_refuses_noise_over_its_limit_by_name_without_warnings():
    # the sum's window of point totals grows with the noise, so noise over
    # MAX_NOISE is refused; at the limit the bound is summed
    limit = synthetic.MAX_NOISE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for noise in (math.nextafter(limit, math.inf), 1e5, sys.float_info.max):
            spec = SyntheticLeagueSpec(n_teams=2, games_per_team=1, noise=noise)
            with pytest.raises(SyntheticError, match=re.escape(f"noise {noise} is over {limit}")):
                league_truth(spec)
        truth = league_truth(SyntheticLeagueSpec(n_teams=2, games_per_team=1, noise=limit))
    assert 0.5 <= truth.bayes_accuracy <= 1.0
    assert all(0.0 <= p <= 1.0 for p in truth.matchup_probs.values())


class TestHalvesAreIndependent:
    """Each half builds the schedule table from the spec alone."""

    @pytest.mark.parametrize("kw", [
        dict(noise=0.0),
        dict(noise=5.0, home_advantage=3.0),
        dict(noise=6.0, imbalance=0.75),
    ], ids=repr)
    def test_each_half_alone_equals_generate_league(self, monkeypatch, kw):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=10, n_seasons=2, seed=3, **kw)

        def not_run(*args, **kwargs):
            raise AssertionError("league_truth ran league_games")

        with monkeypatch.context() as patched:
            patched.setattr(synthetic, "league_games", not_run)
            truth = league_truth(spec)
        store = league_games(spec)
        want_store, want_truth = generate_league(spec)
        assert _hexed(truth) == _hexed(want_truth)
        assert truth == want_truth
        assert store.seasons == want_store.seasons
        for season in store.seasons:
            assert store.columns(season) == want_store.columns(season)


class TestGeneratorFillsInOrder:
    """The single draws rest on this: one ``Generator`` call for an array
    gives the values, and leaves the state, of the smaller calls in order."""

    @pytest.mark.parametrize("seed", [0, 7, 94])
    def test_one_draw_for_all_games_equals_a_draw_per_game(self, seed):
        whole, parts = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = whole.standard_normal((301, 2))
        expected = np.array([parts.standard_normal(2) for _ in range(301)])
        assert drawn.tobytes() == expected.tobytes()
        assert whole.standard_normal() == parts.standard_normal()

    @pytest.mark.parametrize("sims", [1, 1_001])
    @pytest.mark.parametrize("seed", [0, 7, 94])
    def test_one_draw_per_block_equals_a_draw_per_matchup(self, seed, sims):
        whole, parts = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = whole.standard_normal((5, 2, sims))
        expected = np.array([parts.standard_normal((2, sims)) for _ in range(5)])
        assert drawn.tobytes() == expected.tobytes()
        assert whole.standard_normal() == parts.standard_normal()


class TestDeterminism:
    def test_same_seed_regenerates_identical_league(self):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=14, n_seasons=2,
                                   noise=6.0, seed=5)
        store1, truth1 = generate_league(spec)
        store2, truth2 = generate_league(spec)
        assert store1.all_games() == store2.all_games()
        assert truth1.bayes_accuracy == truth2.bayes_accuracy
        assert truth1.matchup_probs == truth2.matchup_probs

    def test_different_seeds_differ(self):
        kw = dict(n_teams=8, games_per_team=14, n_seasons=1, noise=6.0)
        store1, _ = generate_league(SyntheticLeagueSpec(seed=5, **kw))
        store2, _ = generate_league(SyntheticLeagueSpec(seed=6, **kw))
        assert store1.all_games() != store2.all_games()

    def test_csv_round_trip_is_exact(self, tmp_path):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=14, n_seasons=2,
                                   noise=6.0, seed=5)
        store, _ = generate_league(spec)
        path = tmp_path / "league.csv"
        write_game_log(store, path)
        assert parse_game_log(path).all_games() == store.all_games()


class TestCalibration:
    @pytest.mark.parametrize("target", [0.5, 1.0, 1.3])
    def test_noise_target_range(self, target):
        spec = SyntheticLeagueSpec(n_teams=4, games_per_team=4)
        with pytest.raises(SyntheticError, match="target accuracy"):
            calibrate_noise(spec, target)

    def test_noise_is_monotone_in_target(self):
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=10)
        assert calibrate_noise(spec, 0.9) < calibrate_noise(spec, 0.7)

    @pytest.mark.parametrize("home_advantage", [0.0, 3.0])
    @pytest.mark.parametrize("imbalance", [0.0, 0.75])
    @pytest.mark.parametrize("n_teams", [8, 32, 128])
    def test_noise_equals_the_per_game_oracle(self, n_teams, imbalance, home_advantage):
        # gaps taken on arrays, each distinct one scored once, must not move a bit
        spec = SyntheticLeagueSpec(n_teams=n_teams, games_per_team=20, imbalance=imbalance,
                                   home_advantage=home_advantage, seed=n_teams)
        for target in (0.51, 0.6, 0.75, 0.9, 0.99):
            assert calibrate_noise(spec, target) == calibrate_noise_per_game(spec, target)

    @settings(max_examples=40, deadline=None)
    @given(target=st.floats(0.55, 0.95, exclude_min=True, exclude_max=True),
           home_advantage=st.sampled_from([0.0, 3.0]))
    def test_any_target_equals_the_per_game_oracle(self, target, home_advantage):
        # stopping at the bisection's fixed point must not move a bit
        spec = SyntheticLeagueSpec(n_teams=8, games_per_team=20,
                                   home_advantage=home_advantage)
        assert calibrate_noise(spec, target) == calibrate_noise_per_game(spec, target)

    def test_home_advantage_frozen_value(self):
        # inverse of the Gaussian margin model: cdf((ha*k + 0.5)/(sd*k*sqrt2))
        # must give back the target rate
        ha = calibrate_home_advantage(8.0, 0.63)
        assert isinstance(ha, float)
        assert ha == pytest.approx(2.4524086926654123, abs=1e-12)
        margin_sd = 8.0 * POINTS_PER_EFF * math.sqrt(2.0)
        back = NormalDist().cdf((ha * POINTS_PER_EFF + 0.5) / margin_sd)
        assert back == pytest.approx(0.63, abs=1e-12)

    def test_home_advantage_validation(self):
        with pytest.raises(SyntheticError, match="noise"):
            calibrate_home_advantage(0.0, 0.63)
        with pytest.raises(SyntheticError, match="target rate"):
            calibrate_home_advantage(8.0, 0.45)
        with pytest.raises(SyntheticError, match="target rate"):
            calibrate_home_advantage(8.0, 1.0)

    def test_calibrated_home_rate_on_uniform_league(self):
        # all teams equal, so only the home offset separates the sides
        ha = calibrate_home_advantage(8.0, 0.63)
        spec = SyntheticLeagueSpec(n_teams=20, games_per_team=40, n_seasons=1,
                                   noise=8.0, home_advantage=ha,
                                   strength_spread=0.0, seed=13)
        store, _ = generate_league(spec)
        home_wins = sum(
            (g.winner() == g.team_a) == (g.location is Location.HOME_A)
            for g in store.all_games())
        assert home_wins / store.n_games == pytest.approx(0.63, abs=0.05)


# Floats near the limits, each with both signs (zero, subnormal, tiny, huge
# and non-finite), or any float.
LIMITS = st.one_of(
    st.sampled_from([0.0, 5e-324, sys.float_info.min, 1e-300, 1e-6, 99.99999999999999,
                     100.0, 2.5e302, 1e307, 1e308, sys.float_info.max, math.inf, math.nan]
                    ).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats())


def near_limits(low: float, high: float):
    """A float near the limits, or one inside a setting's range (low, high)."""
    return st.one_of(LIMITS, st.floats(low, high, exclude_min=True, exclude_max=True))


def _finite_or_refused(call, *args):
    """``call(*args)`` with warnings as errors: its value, or None when it
    raises a CourtcastError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except CourtcastError:
            return None


@settings(max_examples=300, deadline=None)
@given(n_teams=st.sampled_from([2, 4]), games=st.integers(1, 3), seasons=st.integers(1, 2),
       at_limit=st.sampled_from(["strength_spread", "noise", "home_advantage", "imbalance"]),
       value=LIMITS, spread=st.floats(-99.0, 99.0), noise=st.floats(0.0, 20.0),
       home=st.floats(-10.0, 10.0), imbalance=st.sampled_from([0.0, 0.5, 1.0]),
       target=near_limits(0.5, 1.0), rate=near_limits(0.5, 1.0),
       seed=st.integers(0, 2**32 - 1), first_season=st.sampled_from([0, 1, 2021, 9999, 10000]))
@example(n_teams=2, games=1, seasons=2, at_limit="home_advantage", value=-1e308,
         spread=10.0, noise=6.0, home=0.0, imbalance=0.0, target=0.7, rate=0.63,
         seed=0, first_season=2021)
@example(n_teams=2, games=1, seasons=1, at_limit="noise", value=1e308,
         spread=10.0, noise=6.0, home=0.0, imbalance=0.0, target=0.7, rate=0.63,
         seed=59, first_season=2021)
def test_a_float_at_the_limits_gives_finite_values_or_is_refused(
        n_teams, games, seasons, at_limit, value, spread, noise, home, imbalance, target, rate,
        seed, first_season):
    # one league setting at the limits, the others in range; the home-rate
    # calibration takes the value at the limits as its noise.  At seed 59 both
    # draws at noise 1e308 score on the 4-point floor, so the games are made
    # and the bound refuses the noise.
    edge = _finite_or_refused(calibrate_home_advantage, value, rate)
    assert edge is None or math.isfinite(edge)
    floats = {"strength_spread": spread, "noise": noise, "home_advantage": home,
              "imbalance": imbalance, at_limit: value}
    spec = _finite_or_refused(lambda: SyntheticLeagueSpec(
        n_teams=n_teams, games_per_team=games, n_seasons=seasons, seed=seed,
        first_season=first_season, **floats))
    if spec is None:
        return
    calibrated = _finite_or_refused(calibrate_noise, spec, target)
    assert calibrated is None or math.isfinite(calibrated)
    store = _finite_or_refused(league_games, spec)
    if store is not None:
        for season in store.seasons:
            box = store.columns(season).box
            assert ((0 <= box) & (box <= MAX_COUNT)).all()
        truth = _finite_or_refused(league_truth, spec)
        if truth is not None:
            assert 0.5 <= truth.bayes_accuracy <= 1.0
            assert all(0.0 <= p <= 1.0 for p in truth.matchup_probs.values())
