"""Opponent adjustment and seasonal averaging, checked against the naive oracle."""

from __future__ import annotations

import bisect
import datetime as dt
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from courtcast.adjust import (
    NEUTRAL_BASELINE,
    STATE_KEYS,
    AdjustConfig,
    AdjustmentError,
    AveragingScheme,
    Seeding,
    run_seasons,
    team_row,
)
from courtcast.ingest import GameRecord, Location, SeasonStore
from courtcast.stats import DEFAULT_FT_WEIGHT
from tests.conftest import make_box, tiny_store
from tests.oracles import (
    adjust_value,
    alpha_update,
    explicit_weighted_average,
    linear_scan_at,
    naive_league_means,
    naive_season,
    oriented,
    snapshot_as_dict,
    state_row,
    truncated,
)

TOL = 1e-9
ALL_COMBOS = [(sch, sd) for sch in AveragingScheme for sd in Seeding]

_BOXES = [
    make_box(fgm=24, fga=52, fgm3=4, ft=8, fta=12, or_=9, dr=21, to=8),
    make_box(fgm=21, fga=50, fgm3=6, ft=7, fta=10, or_=7, dr=19, to=10),
    make_box(fgm=27, fga=58, fgm3=7, ft=11, fta=16, or_=11, dr=23, to=6),
    make_box(fgm=22, fga=54, fgm3=3, ft=9, fta=14, or_=8, dr=20, to=9),
    make_box(fgm=25, fga=55, fgm3=5, ft=10, fta=15, or_=10, dr=22, to=7),
]


def season_run(store: SeasonStore, season: int,
               scheme: AveragingScheme = AveragingScheme.EXPLICIT,
               seeding: Seeding = Seeding.PRIOR_SEASON,
               config: AdjustConfig = AdjustConfig()):
    """The run of ``season``, from :func:`run_seasons` through that season."""
    return run_seasons(store, scheme, seeding, config, through=season)[season]


def store_from(days: dict[dt.date, list[tuple[str, str]]]) -> SeasonStore:
    """A store with the given pairings on each date, boxes taken in turn."""
    games, k = [], 0
    for date, pairs in days.items():
        for first, second in pairs:
            box_a, box_b = _BOXES[k % len(_BOXES)], _BOXES[(k + 2) % len(_BOXES)]
            if box_a.points == box_b.points:
                box_b = _BOXES[(k + 1) % len(_BOXES)]
            games.append(oriented(date, date.year, first, second,
                                  Location.HOME_A, box_a, box_b))
            k += 1
    return SeasonStore(games)


def same_day_store() -> SeasonStore:
    """Two seasons in which teams play two different opponents on one date.

    ``ants`` opens the first season with two games on one day; ``eels``
    play only the first season and ``fish`` only the second, so both
    seedings meet teams with and without a prior season.
    """
    d = dt.date
    return store_from({
        d(2010, 11, 1): [("ants", "bees"), ("ants", "cats"), ("dogs", "eels")],
        d(2010, 11, 4): [("bees", "cats"), ("cats", "dogs"), ("bees", "eels")],
        d(2010, 11, 8): [("ants", "dogs"), ("ants", "eels"), ("bees", "cats")],
        d(2010, 11, 9): [("cats", "eels"), ("dogs", "bees")],
        d(2011, 11, 2): [("ants", "bees"), ("cats", "fish"), ("ants", "dogs")],
        d(2011, 11, 5): [("bees", "fish"), ("cats", "dogs"), ("bees", "ants")],
        d(2011, 11, 7): [("fish", "ants"), ("dogs", "bees"), ("cats", "ants")],
    })


class TestAdjustValue:
    def test_worked_example(self):
        # 110 * 100 / 95
        assert adjust_value(110.0, 100.0, 95.0) == pytest.approx(115.78947368421052, abs=TOL)

    def test_identity_at_national_average(self):
        for a in (1.0, 97.3, 250.0):
            assert adjust_value(110.0, a, a) == pytest.approx(110.0, abs=TOL)

    def test_zero_raw(self):
        assert adjust_value(0.0, 100.0, 95.0) == 0.0

    @pytest.mark.parametrize("navg,opp", [(0.0, 95.0), (-1.0, 95.0), (100.0, 0.0), (100.0, -5.0)])
    def test_non_positive_inputs_rejected(self, navg, opp):
        with pytest.raises(AdjustmentError):
            adjust_value(110.0, navg, opp)

    @given(st.floats(0.1, 1000), st.floats(0.1, 1000))
    def test_identity_property(self, raw, avg):
        assert adjust_value(raw, avg, avg) == pytest.approx(raw, rel=1e-12)


class TestAlphaUpdate:
    def test_worked_example(self):
        assert alpha_update(100.0, 110.0, 0.2) == pytest.approx(102.0, abs=TOL)

    def test_boundaries(self):
        assert alpha_update(100.0, 110.0, 0.0) == 100.0
        assert alpha_update(100.0, 110.0, 1.0) == 110.0

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(AdjustmentError):
            alpha_update(100.0, 110.0, alpha)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0, 1))
    def test_result_between_endpoints(self, pre, game, alpha):
        out = alpha_update(pre, game, alpha)
        lo, hi = min(pre, game), max(pre, game)
        assert lo - 1e-6 <= out <= hi + 1e-6

    def test_seed_weight_decays_geometrically(self):
        # Folding n equal game values g from seed s leaves the seed with
        # weight (1-alpha)^n: result = w*s + (1-w)*g.
        s, g, alpha, n = 100.0, 120.0, 0.2, 7
        acc = s
        for _ in range(n):
            acc = alpha_update(acc, g, alpha)
        w = (acc - g) / (s - g)
        assert w == pytest.approx((1 - alpha) ** n, abs=1e-12)


class TestExplicitWeightedAverage:
    def test_no_games_returns_prior(self):
        assert explicit_weighted_average(100.0, []) == 100.0

    def test_worked_examples(self):
        # (1*100 + 2*110)/3 and (1*100 + 2*110 + 3*120)/6
        assert explicit_weighted_average(100.0, [110.0]) == pytest.approx(
            106.66666666666667, abs=TOL)
        assert explicit_weighted_average(100.0, [110.0, 120.0]) == pytest.approx(
            113.33333333333333, abs=TOL)

    @given(st.floats(-100, 100), st.integers(0, 20))
    def test_constant_inputs_fixed_point(self, c, n):
        assert explicit_weighted_average(c, [c] * n) == pytest.approx(c, rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(1, 200), min_size=1, max_size=15), st.floats(1, 200))
    def test_result_within_input_hull(self, games, prior):
        out = explicit_weighted_average(prior, games)
        lo, hi = min([prior] + games), max([prior] + games)
        assert lo - 1e-9 <= out <= hi + 1e-9


class TestRunSeasonBasics:
    def test_two_team_single_game_from_scratch(self, two_season_store):
        import courtcast.ingest as ing
        from tests.conftest import BOX_A, BOX_B
        store = ing.SeasonStore([ing.GameRecord(
            date=dt.date(2011, 1, 5), season=2011, team_a="a", team_b="b",
            location=ing.Location.HOME_A, box_a=BOX_A, box_b=BOX_B)])
        run = season_run(store, 2011, AveragingScheme.EXPLICIT, Seeding.FROM_SCRATCH)
        snap_a, snap_b = run.pre_match[(dt.date(2011, 1, 5), "a", "b")]
        # Day one of the only season: both seeds are the neutral baseline.
        for snap in (snap_a, snap_b):
            assert snap.games_played == 0
            assert snap.adj_oe == NEUTRAL_BASELINE[0]
            assert snap.adj_de == NEUTRAL_BASELINE[1]
        # After the game the sides diverge.
        fin_a, fin_b = run.final["a"], run.final["b"]
        assert fin_a.adj_oe != fin_b.adj_oe
        assert fin_a.games_played == fin_b.games_played == 1

    def test_never_playing_team_stays_at_seed(self, two_season_store):
        run = season_run(two_season_store, 2011, AveragingScheme.EXPLICIT,
                         Seeding.FROM_SCRATCH)
        late = dt.date(2012, 3, 1)
        (ghost,) = run.rows_at(["ghosts"], late)
        # From-scratch seed = national average as of the queried morning,
        # and no raw means: the team has played no game.
        oe, de = run.league_means[bisect.bisect_left(run.days, late), :2].tolist()
        assert ghost[:2].tolist() == [oe, de]
        assert ghost[len(STATE_KEYS):].tolist() == [0.0] * 12

    def test_rows_at_matches_pre_match(self, two_season_store):
        run = season_run(two_season_store, 2011, AveragingScheme.EXPLICIT,
                         Seeding.PRIOR_SEASON)
        for (date, a, b), snaps in run.pre_match.items():
            want = np.stack([team_row(snap) for snap in snaps])
            assert run.rows_at([a, b], date).tobytes() == want.tobytes()

    def test_run_freed_without_cyclic_collector(self, two_season_store):
        # A run in a reference cycle lingers until the cyclic collector runs,
        # so the memory a caller's process peaks at would hang on its history.
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = run_seasons(two_season_store, AveragingScheme.ALPHA,
                               Seeding.PRIOR_SEASON)
            for run in runs.values():
                for key in run.pre_match:
                    run.pre_match[key]
                run.series, run.final, run.rows_at(["ghosts"], dt.date(2012, 3, 1))
            refs = [weakref.ref(run) for run in runs.values()]
            del runs, run
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()

    def test_national_average_day_one_is_baseline(self, two_season_store):
        run = season_run(two_season_store, 2010, AveragingScheme.EXPLICIT,
                         Seeding.FROM_SCRATCH)
        morning = run.league_means[bisect.bisect_left(run.days, run.days[0])]
        assert tuple(morning.tolist()) == NEUTRAL_BASELINE

    def test_prior_season_seeds_carry_over(self, two_season_store):
        runs = run_seasons(two_season_store, AveragingScheme.EXPLICIT,
                           Seeding.PRIOR_SEASON)
        for team, fin in runs[2010].final.items():
            first_2011 = runs[2011].series[team][0]
            assert first_2011.games_played == 0
            assert first_2011.adj_oe == fin.adj_oe
            assert first_2011.adj_off_factors == fin.adj_off_factors

    def test_config_validation(self):
        with pytest.raises(AdjustmentError):
            AdjustConfig(alpha=1.5)
        with pytest.raises(AdjustmentError):
            AdjustConfig(navg_source="wrong")


class TestOracleEquivalence:
    """The incremental engine must match the rescan-everything reference bitwise."""

    @pytest.mark.parametrize("scheme,seeding", ALL_COMBOS)
    def test_pre_match_snapshots_exact(self, two_season_store, scheme, seeding):
        for season in two_season_store.seasons:
            run = season_run(two_season_store, season, scheme, seeding)
            ref = naive_season(two_season_store, season, scheme, seeding)
            assert run.pre_match.keys() == ref["pre_match"].keys()
            for key, (snap_a, snap_b) in run.pre_match.items():
                ref_a, ref_b = ref["pre_match"][key]
                assert snapshot_as_dict(snap_a) == ref_a, key
                assert snapshot_as_dict(snap_b) == ref_b, key

    @pytest.mark.parametrize("scheme,seeding", ALL_COMBOS)
    def test_finals_exact(self, two_season_store, scheme, seeding):
        season = two_season_store.seasons[-1]
        run = season_run(two_season_store, season, scheme, seeding)
        ref = naive_season(two_season_store, season, scheme, seeding)
        assert set(run.final) == set(ref["final"])
        for team, snap in run.final.items():
            assert snapshot_as_dict(snap) == ref["final"][team], team

    def test_national_series_exact(self, two_season_store):
        season = 2011
        run = season_run(two_season_store, season, AveragingScheme.EXPLICIT,
                         Seeding.FROM_SCRATCH)
        games = two_season_store.games(season)
        # every morning, then the end of the season: every game before it
        mornings = run.days + [dt.date.max]
        assert len(run.league_means) == len(mornings)
        for date, means in zip(mornings, run.league_means.tolist()):
            ref = naive_league_means(games, date, 0.475)
            assert tuple(means) == ref


class TestNoLeakage:
    @pytest.mark.parametrize("scheme,seeding", ALL_COMBOS)
    def test_truncation_leaves_past_snapshots_bitwise_identical(
            self, two_season_store, scheme, seeding):
        season = 2011
        full = season_run(two_season_store, season, scheme, seeding)
        dates = sorted({g.date for g in two_season_store.games(season)})
        for cut in dates:
            trunc = season_run(truncated(two_season_store, season, cut),
                               season, scheme, seeding)
            for key, snaps in full.pre_match.items():
                if key[0] > cut:
                    continue
                t_snaps = trunc.pre_match[key]
                assert snapshot_as_dict(snaps[0]) == snapshot_as_dict(t_snaps[0])
                assert snapshot_as_dict(snaps[1]) == snapshot_as_dict(t_snaps[1])


class TestAdjustedSourceSwitch:
    def test_adjusted_means_differ_but_run_completes(self, two_season_store):
        raw = season_run(two_season_store, 2011, config=AdjustConfig(navg_source="raw"))
        adj = season_run(two_season_store, 2011, config=AdjustConfig(navg_source="adjusted"))
        assert set(raw.final) == set(adj.final)
        # Different national-average definitions must actually change values
        # somewhere (they only coincide before any game is played).
        assert any(raw.final[t].adj_oe != adj.final[t].adj_oe for t in raw.final)


def assert_matches_oracle(store, scheme, seeding, config=AdjustConfig()):
    for season in store.seasons:
        run = season_run(store, season, scheme, seeding, config)
        ref = naive_season(store, season, scheme, seeding, config)
        assert run.pre_match.keys() == ref["pre_match"].keys()
        for key, (snap_a, snap_b) in run.pre_match.items():
            ref_a, ref_b = ref["pre_match"][key]
            assert snapshot_as_dict(snap_a) == ref_a, key
            assert snapshot_as_dict(snap_b) == ref_b, key
        assert set(run.final) == set(ref["final"])
        for team, snap in run.final.items():
            assert snapshot_as_dict(snap) == ref["final"][team], team


class TestAdjustedSourceOracle:
    @pytest.mark.parametrize("scheme,seeding", ALL_COMBOS)
    def test_adjusted_source_exact(self, two_season_store, scheme, seeding):
        assert_matches_oracle(two_season_store, scheme, seeding,
                              AdjustConfig(navg_source="adjusted"))


class TestSameDayRepeats:
    """A team with two games on one date folds them one after the other."""

    def test_store_has_repeats(self):
        for season in same_day_store().seasons:
            games = same_day_store().games(season)
            sides = [(g.date, t) for g in games for t in (g.team_a, g.team_b)]
            assert len(set(sides)) < len(sides)

    @pytest.mark.parametrize("navg_source", ["raw", "adjusted"])
    @pytest.mark.parametrize("scheme,seeding", ALL_COMBOS)
    def test_matches_oracle_exactly(self, scheme, seeding, navg_source):
        assert_matches_oracle(same_day_store(), scheme, seeding,
                              AdjustConfig(navg_source=navg_source))

    def test_both_same_day_games_see_the_morning_state(self):
        run = season_run(same_day_store(), 2010, AveragingScheme.ALPHA,
                         Seeding.FROM_SCRATCH)
        day = dt.date(2010, 11, 8)
        first = run.pre_match[(day, "ants", "dogs")][0]
        second = run.pre_match[(day, "ants", "eels")][0]
        assert first == second
        assert run.final["ants"].games_played == 4


class TestRowsAt:
    """``rows_at`` against a linear scan of the oracle's post-game states."""

    @pytest.mark.parametrize("make_store", [tiny_store, same_day_store])
    @pytest.mark.parametrize("scheme,seeding", ALL_COMBOS)
    def test_matches_linear_scan(self, make_store, scheme, seeding):
        store = make_store()
        for season in store.seasons:
            run = season_run(store, season, scheme, seeding)
            ref = naive_season(store, season, scheme, seeding)
            games = store.games(season)
            dates = sorted({g.date for g in games})
            probes = (set(dates) | {d + dt.timedelta(days=1) for d in dates}
                      | {dates[0] - dt.timedelta(days=10), dates[-1] + dt.timedelta(days=30)})
            teams = sorted({t for s in store.seasons for t in store.teams(s)}) + ["ghosts"]
            for date in sorted(probes):
                rows = run.rows_at(teams, date)
                assert rows.shape == (len(teams), 30)
                for team, row in zip(teams, rows.tolist()):
                    assert row == state_row(linear_scan_at(
                        ref, games, team, date, DEFAULT_FT_WEIGHT)), (team, date)


def _bad_possessions_store() -> SeasonStore:
    """``aa`` records negative possessions (more offensive rebounds and
    turnovers than shots) on day one, which drives its averaged adjusted
    offense below zero; on day two that value is ``cc``'s divisor."""
    d1, d2 = dt.date(2021, 11, 1), dt.date(2021, 11, 2)
    bad = make_box(fgm=5, fga=10, fgm3=0, ft=0, fta=0, or_=20, dr=10, to=5)
    weak = make_box(fgm=6, fga=40, fgm3=0, ft=0, fta=0, or_=10, dr=20, to=8)
    games = [GameRecord(d1, 2021, "aa", "bb", Location.HOME_A, bad, weak),
             GameRecord(d2, 2021, "aa", "cc", Location.HOME_A, _BOXES[0], _BOXES[1])]
    for k, (a, b) in enumerate([("cc", "dd"), ("ee", "ff"), ("gg", "hh")]):
        games.append(GameRecord(d1, 2021, a, b, Location.HOME_A,
                                _BOXES[k], _BOXES[k + 1]))
    return SeasonStore(games)


class TestAdjustmentErrors:
    def test_non_positive_opponent_counter_value_raises(self):
        with pytest.raises(AdjustmentError, match="opponent counter-statistic"):
            season_run(_bad_possessions_store(), 2021, AveragingScheme.EXPLICIT,
                       Seeding.FROM_SCRATCH)

    def test_zero_field_goal_attempts_raise(self):
        empty = make_box(fgm=0, fga=0, fgm3=0, ft=5, fta=10)
        store = SeasonStore([GameRecord(dt.date(2021, 11, 1), 2021, "aa", "bb",
                                        Location.HOME_A, empty, _BOXES[0])])
        with pytest.raises(AdjustmentError, match="aa vs bb on 2021-11-01"):
            season_run(store, 2021)

    def test_cli_reports_the_error_as_a_data_error(self, tmp_path):
        from courtcast.ingest import write_game_log
        from tests.test_cli import run_cli
        write_game_log(_bad_possessions_store(), tmp_path / "bad.csv")
        proc = run_cli(["adjust", "--data", "bad.csv", "--out", "x",
                        "--averaging", "explicit", "--seeding", "from_scratch"],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "opponent counter-statistic" in proc.stderr
