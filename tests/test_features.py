"""Match encoding: scheme layouts, labels, site handling, and leakage guards."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from courtcast.adjust import (
    AveragingScheme,
    RawMeans,
    Seeding,
    TeamSnapshot,
    run_seasons,
)
from courtcast.features import (
    FeatureError,
    FeatureScheme,
    Label,
    build_dataset,
    encode_match,
    encode_pairing,
    feature_names,
    to_arrays,
)
from courtcast.ingest import GameRecord, Location
from courtcast.stats import FourFactors, Site
from tests.conftest import BOX_A, BOX_B

DATE = dt.date(2011, 1, 15)


def make_snap(team: str, base: float, *, date: dt.date = DATE, season: int = 2011,
              games: int = 5) -> TeamSnapshot:
    """Snapshot with recognizable values: every field derived from ``base``."""
    off = FourFactors(base / 200, base / 400, base / 300, base / 250)
    dfn = FourFactors(base / 210, base / 410, base / 310, base / 260)
    return TeamSnapshot(
        team=team, season=season, date=date, games_played=games,
        adj_oe=base, adj_de=base - 10.0,
        adj_off_factors=off, adj_def_factors=dfn,
        avg_off_factors=FourFactors(base / 220, base / 420, base / 320, base / 270),
        avg_def_factors=FourFactors(base / 230, base / 430, base / 330, base / 280),
        raw_means=RawMeans(fgm=base / 5, fga=base / 2, ppg=base / 1.5, pag=base / 1.6),
    )


@pytest.fixture
def game():
    return GameRecord(date=DATE, season=2011, team_a="aardvarks", team_b="bobcats",
                      location=Location.HOME_A, box_a=BOX_A, box_b=BOX_B)


@pytest.fixture
def snaps():
    return make_snap("aardvarks", 115.8), make_snap("bobcats", 105.0)


class TestFeatureNames:
    @pytest.mark.parametrize("scheme,n", [
        (FeatureScheme.ADJ_EFF, 4),
        (FeatureScheme.FOUR_FACTORS, 16),
        (FeatureScheme.ADJ_FOUR_FACTORS, 16),
        (FeatureScheme.RAW, 24),
        (FeatureScheme.DIFF_OFF_VS_DEF, 8),
        (FeatureScheme.DIFF_LIKE_VS_LIKE, 8),
    ])
    def test_lengths(self, scheme, n):
        names = feature_names(scheme)
        assert len(names) == n
        assert len(set(names)) == n  # unique

    def test_spot_names(self):
        assert feature_names(FeatureScheme.ADJ_EFF) == (
            "a_adj_oe", "a_adj_de", "b_adj_oe", "b_adj_de")
        assert feature_names(FeatureScheme.ADJ_FOUR_FACTORS)[0] == "a_adj_off_efg"
        assert feature_names(FeatureScheme.RAW)[-1] == "b_pag"


class TestEncodeMatch:
    def test_adj_eff_field_mapping(self, game, snaps):
        inst = encode_match(game, *snaps, FeatureScheme.ADJ_EFF)
        names = feature_names(FeatureScheme.ADJ_EFF)
        vec = dict(zip(names, inst.features))
        assert vec["a_adj_oe"] == 115.8
        assert vec["b_adj_de"] == 95.0
        assert inst.label is Label.WIN          # aardvarks scored 67-61
        assert inst.location is Site.HOME
        assert (inst.team_first, inst.team_second) == ("aardvarks", "bobcats")

    def test_swapped_perspective_flips_everything(self, game, snaps):
        canonical = encode_match(game, *snaps, FeatureScheme.ADJ_EFF)
        swapped = encode_match(game, *snaps, FeatureScheme.ADJ_EFF,
                               first_team="bobcats")
        assert swapped.label is Label.LOSS
        assert swapped.location is Site.AWAY
        # a-block and b-block exchange places.
        assert np.array_equal(swapped.features, canonical.features[[2, 3, 0, 1]])

    def test_diff_schemes_negate_under_swap(self, game, snaps):
        for scheme in (FeatureScheme.DIFF_LIKE_VS_LIKE, FeatureScheme.DIFF_OFF_VS_DEF):
            canonical = encode_match(game, *snaps, scheme)
            swapped = encode_match(game, *snaps, scheme, first_team="bobcats")
            if scheme is FeatureScheme.DIFF_LIKE_VS_LIKE:
                assert np.allclose(swapped.features, -canonical.features)
            else:
                # off-vs-def blocks swap places under reversal
                assert np.allclose(swapped.features,
                                   np.concatenate([canonical.features[4:],
                                                   canonical.features[:4]]))

    def test_identical_snapshots_zero_like_differences(self, game):
        a = make_snap("aardvarks", 100.0)
        b = make_snap("bobcats", 100.0)
        inst = encode_match(game, a, b, FeatureScheme.DIFF_LIKE_VS_LIKE)
        assert np.all(inst.features == 0.0)

    def test_loss_label(self, snaps):
        game = GameRecord(date=DATE, season=2011, team_a="aardvarks",
                          team_b="bobcats", location=Location.NEUTRAL,
                          box_a=BOX_B, box_b=BOX_A)  # aardvarks lose 61-67
        inst = encode_match(game, *snaps, FeatureScheme.ADJ_EFF)
        assert inst.label is Label.LOSS
        assert inst.location is Site.NEUTRAL

    def test_leakage_guards(self, game, snaps):
        a, b = snaps
        stale = make_snap("aardvarks", 115.8, date=DATE - dt.timedelta(days=1))
        with pytest.raises(FeatureError, match="dated"):
            encode_match(game, stale, b, FeatureScheme.ADJ_EFF)
        wrong_team = make_snap("zebras", 115.8)
        with pytest.raises(FeatureError, match="zebras"):
            encode_match(game, wrong_team, b, FeatureScheme.ADJ_EFF)
        wrong_season = make_snap("aardvarks", 115.8, season=2010)
        with pytest.raises(FeatureError, match="season"):
            encode_match(game, wrong_season, b, FeatureScheme.ADJ_EFF)
        with pytest.raises(FeatureError, match="not in this game"):
            encode_match(game, a, b, FeatureScheme.ADJ_EFF, first_team="zebras")

    def test_four_factor_layouts(self, game, snaps):
        a, b = snaps
        inst = encode_match(game, a, b, FeatureScheme.ADJ_FOUR_FACTORS)
        assert inst.features[0] == a.adj_off_factors.efg
        assert inst.features[4] == a.adj_def_factors.efg
        assert inst.features[8] == b.adj_off_factors.efg
        un = encode_match(game, a, b, FeatureScheme.FOUR_FACTORS)
        assert un.features[0] == a.avg_off_factors.efg

    def test_raw_layout(self, game, snaps):
        a, b = snaps
        inst = encode_match(game, a, b, FeatureScheme.RAW)
        names = feature_names(FeatureScheme.RAW)
        vec = dict(zip(names, inst.features))
        assert vec["a_ppg"] == a.raw_means.ppg
        assert vec["b_fga"] == b.raw_means.fga

    def test_diff_off_vs_def_values(self, game, snaps):
        a, b = snaps
        inst = encode_match(game, a, b, FeatureScheme.DIFF_OFF_VS_DEF)
        assert inst.features[0] == a.adj_off_factors.efg - b.adj_def_factors.efg
        assert inst.features[4] == b.adj_off_factors.efg - a.adj_def_factors.efg


class TestBuildDataset:
    def test_counts_match_partitions(self, two_season_store):
        runs = run_seasons(two_season_store, AveragingScheme.EXPLICIT,
                           Seeding.PRIOR_SEASON)
        train, test = build_dataset(two_season_store, runs,
                                    FeatureScheme.ADJ_EFF, 2011)
        assert len(train) == len(two_season_store.games(2010))
        assert len(test) == len(two_season_store.games(2011))
        assert all(i.season == 2010 for i in train)
        assert all(i.label is not None for i in train + test)

    def test_missing_run_is_reported(self, two_season_store):
        runs = run_seasons(two_season_store, through=2010)
        with pytest.raises(FeatureError, match="2011"):
            build_dataset(two_season_store, runs, FeatureScheme.ADJ_EFF, 2011)

    def test_deterministic(self, two_season_store):
        runs = run_seasons(two_season_store)
        one = build_dataset(two_season_store, runs, FeatureScheme.RAW, 2011)
        two = build_dataset(two_season_store, runs, FeatureScheme.RAW, 2011)
        assert one == two


class TestArraysAndSerialization:
    def test_to_arrays(self, game, snaps):
        insts = [encode_match(game, *snaps, FeatureScheme.ADJ_EFF)]
        X, site, y = to_arrays(insts)
        assert X.shape == (1, 4) and site.tolist() == [0] and y.tolist() == [1]

    def test_to_arrays_empty_rejected(self):
        with pytest.raises(FeatureError):
            to_arrays([])
