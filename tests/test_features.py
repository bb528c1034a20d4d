"""Match encoding: scheme layouts, labels, site handling, and the encoder
checked against the snapshots it stands for."""

from __future__ import annotations

import datetime as dt
import re

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
    encode_pairing,
    encode_pairings,
    encode_season,
    feature_names,
    to_arrays,
)
from courtcast.ingest import GameLogError, GameRecord, Location, SeasonStore
from courtcast.stats import FourFactors, Site
from courtcast.synthetic import SyntheticLeagueSpec, generate_league
from tests.conftest import BOX_A, BOX_B
from tests.oracles import truncated

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


def instances(*games: GameRecord) -> list:
    """``build_dataset``'s test instances for ``games``, played in 2011 after
    a one-game 2010 season that trains."""
    opener = GameRecord(date=dt.date(2010, 1, 15), season=2010, team_a="aardvarks",
                        team_b="bobcats", location=Location.NEUTRAL, box_a=BOX_A, box_b=BOX_B)
    store = SeasonStore([opener, *games])
    return build_dataset(store, run_seasons(store), FeatureScheme.ADJ_EFF, 2011)[1]


class TestEncodeMatch:
    """One match: ``encode_pairing``'s layouts, and ``build_dataset``'s labels,
    sites and team order."""

    def test_adj_eff_field_mapping(self, game, snaps):
        vec = dict(zip(feature_names(FeatureScheme.ADJ_EFF),
                       encode_pairing(*snaps, FeatureScheme.ADJ_EFF)))
        assert vec["a_adj_oe"] == 115.8
        assert vec["b_adj_de"] == 95.0
        (inst,) = instances(game)
        assert inst.label is Label.WIN          # aardvarks scored 67-61
        assert inst.location is Site.HOME
        assert (inst.team_first, inst.team_second) == ("aardvarks", "bobcats")
        assert (inst.date, inst.season) == (DATE, 2011)

    def test_swapped_perspective_flips_everything(self, snaps):
        a, b = snaps
        for scheme in (FeatureScheme.ADJ_EFF, FeatureScheme.FOUR_FACTORS,
                       FeatureScheme.ADJ_FOUR_FACTORS, FeatureScheme.RAW):
            canonical = encode_pairing(a, b, scheme)
            swapped = encode_pairing(b, a, scheme)
            half = len(canonical) // 2
            # the a-block and the b-block exchange places
            assert np.array_equal(swapped, np.concatenate([canonical[half:],
                                                           canonical[:half]]))
        # bobcats at home beat aardvarks: the first team is still aardvarks
        (inst,) = instances(GameRecord.oriented(DATE, 2011, "bobcats", "aardvarks",
                                                Location.HOME_A, BOX_A, BOX_B))
        assert (inst.team_first, inst.label, inst.location) == (
            "aardvarks", Label.LOSS, Site.AWAY)

    def test_diff_schemes_negate_under_swap(self, snaps):
        a, b = snaps
        like = FeatureScheme.DIFF_LIKE_VS_LIKE
        assert np.array_equal(encode_pairing(b, a, like), -encode_pairing(a, b, like))
        # off-vs-def blocks swap places under reversal
        canonical = encode_pairing(a, b, FeatureScheme.DIFF_OFF_VS_DEF)
        assert np.array_equal(encode_pairing(b, a, FeatureScheme.DIFF_OFF_VS_DEF),
                              np.concatenate([canonical[4:], canonical[:4]]))

    def test_identical_snapshots_zero_like_differences(self):
        a = make_snap("aardvarks", 100.0)
        b = make_snap("bobcats", 100.0)
        assert np.all(encode_pairing(a, b, FeatureScheme.DIFF_LIKE_VS_LIKE) == 0.0)

    def test_loss_label(self):
        game = GameRecord(date=DATE, season=2011, team_a="aardvarks",
                          team_b="bobcats", location=Location.NEUTRAL,
                          box_a=BOX_B, box_b=BOX_A)  # aardvarks lose 61-67
        (inst,) = instances(game)
        assert inst.label is Label.LOSS
        assert inst.location is Site.NEUTRAL

    def test_four_factor_layouts(self, snaps):
        a, b = snaps
        adj = encode_pairing(a, b, FeatureScheme.ADJ_FOUR_FACTORS)
        assert adj[0] == a.adj_off_factors.efg
        assert adj[4] == a.adj_def_factors.efg
        assert adj[8] == b.adj_off_factors.efg
        assert encode_pairing(a, b, FeatureScheme.FOUR_FACTORS)[0] == a.avg_off_factors.efg

    def test_raw_layout(self, snaps):
        a, b = snaps
        vec = dict(zip(feature_names(FeatureScheme.RAW),
                       encode_pairing(a, b, FeatureScheme.RAW)))
        assert vec["a_ppg"] == a.raw_means.ppg
        assert vec["b_fga"] == b.raw_means.fga

    def test_diff_off_vs_def_values(self, snaps):
        a, b = snaps
        vec = encode_pairing(a, b, FeatureScheme.DIFF_OFF_VS_DEF)
        assert vec[0] == a.adj_off_factors.efg - b.adj_def_factors.efg
        assert vec[4] == b.adj_off_factors.efg - a.adj_def_factors.efg


# ---------------------------------------------------------------------------
# The encoder against the snapshots: every feature is the value its name
# denotes, read off the game's pre-match snapshots.

def named_value(name: str, a: TeamSnapshot, b: TeamSnapshot) -> float:
    """The value feature ``name`` denotes for first team ``a`` and second ``b``."""
    snaps = {"a": a, "b": b}
    if m := re.fullmatch(r"([ab])_off_minus_([ab])_def_(\w+)", name):
        return (getattr(snaps[m[1]].adj_off_factors, m[3])
                - getattr(snaps[m[2]].adj_def_factors, m[3]))
    if m := re.fullmatch(r"(off|def)_diff_(\w+)", name):
        block = f"adj_{m[1]}_factors"
        return getattr(getattr(a, block), m[2]) - getattr(getattr(b, block), m[2])
    team, rest = name.split("_", 1)
    snap = snaps[team]
    if rest in ("adj_oe", "adj_de"):
        return getattr(snap, rest)
    if m := re.fullmatch(r"(adj_)?(off|def)_(\w+)", rest):
        block = f"{'adj' if m[1] else 'avg'}_{m[2]}_factors"
        return getattr(getattr(snap, block), m[3])
    return getattr(snap.raw_means, rest)


@pytest.fixture(scope="module")
def league() -> SeasonStore:
    """A generated two-season league, plus a newcomer in the second season
    whose opener falls on a date its opponent also plays another game."""
    store, _ = generate_league(SyntheticLeagueSpec(n_teams=6, games_per_team=4,
                                                   n_seasons=2, seed=5), bayes_sims=1)
    g = store.games(store.seasons[-1])[0]
    newcomer = GameRecord.oriented(g.date, g.season, g.team_a, "zz", Location.HOME_A,
                                   g.box_b, g.box_a)
    return SeasonStore(store.all_games() + [newcomer])


SCHEMES_BY_AVERAGING = [(avg, scheme) for avg in AveragingScheme for scheme in FeatureScheme]


class TestEncoderMatchesSnapshots:
    def test_league_has_cold_starts_and_same_day_repeats(self, league):
        runs = run_seasons(league, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON)
        for run in runs.values():
            played = [s.games_played for pair in run.pre_match.values() for s in pair]
            assert 0 in played
        sides = [(g.date, t) for g in league.games(2022) for t in (g.team_a, g.team_b)]
        assert len(set(sides)) < len(sides)

    @pytest.mark.parametrize("averaging,scheme", SCHEMES_BY_AVERAGING)
    def test_build_dataset_reads_the_named_values(self, league, averaging, scheme):
        runs = run_seasons(league, averaging, Seeding.PRIOR_SEASON)
        train, test = build_dataset(league, runs, scheme, 2022)
        names = feature_names(scheme)
        assert len(train) + len(test) == league.n_games
        for inst in train + test:
            a, b = runs[inst.season].pre_match[(inst.date, inst.team_first,
                                                inst.team_second)]
            want = np.array([named_value(name, a, b) for name in names])
            assert inst.features.tobytes() == want.tobytes(), (inst.date, inst.team_first)

    @pytest.mark.parametrize("averaging,scheme", SCHEMES_BY_AVERAGING)
    def test_encode_pairing_is_the_one_row_encode(self, league, averaging, scheme):
        # the rows at the game's date and the game's snapshots both encode
        # to the season encoder's instance
        runs = run_seasons(league, averaging, Seeding.PRIOR_SEASON)
        for run in runs.values():
            for inst in encode_season(run, scheme):
                rows = run.rows_at([inst.team_first, inst.team_second], inst.date)
                one = encode_pairings(rows, [0], [1], scheme)
                assert one.tobytes() == inst.features.tobytes()
                snaps = run.pre_match[(inst.date, inst.team_first, inst.team_second)]
                assert encode_pairing(*snaps, scheme).tobytes() == inst.features.tobytes()


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

    def test_training_seasons_accumulate(self):
        store, _ = generate_league(SyntheticLeagueSpec(n_teams=4, games_per_team=3,
                                                       n_seasons=3, seed=2), bayes_sims=1)
        runs = run_seasons(store)
        train_2022, test_2022 = build_dataset(store, runs, FeatureScheme.ADJ_EFF, 2022)
        train_2023, test_2023 = build_dataset(store, runs, FeatureScheme.ADJ_EFF, 2023)
        assert {i.season for i in train_2022} == {2021}
        assert {i.season for i in test_2022} == {2022}
        assert len(train_2022) == len(test_2022) == 6
        # advancing the test season grows training by exactly the old test set
        key = lambda i: (i.date, i.team_first, i.team_second)
        assert list(map(key, train_2023)) == list(map(key, train_2022 + test_2022))
        assert {i.season for i in test_2023} == {2023}

    def test_unknown_and_earliest_test_seasons_are_rejected(self, two_season_store):
        runs = run_seasons(two_season_store)
        with pytest.raises(GameLogError, match="not in store"):
            build_dataset(two_season_store, runs, FeatureScheme.ADJ_EFF, 1999)
        with pytest.raises(GameLogError, match="earliest"):
            build_dataset(two_season_store, runs, FeatureScheme.ADJ_EFF, 2010)

    def test_missing_run_is_reported(self, two_season_store):
        runs = run_seasons(two_season_store, through=2010)
        with pytest.raises(FeatureError, match="2011"):
            build_dataset(two_season_store, runs, FeatureScheme.ADJ_EFF, 2011)

    def test_run_of_another_store_is_rejected(self, two_season_store):
        cut = two_season_store.games(2011)[2].date
        runs = run_seasons(truncated(two_season_store, 2011, cut))
        with pytest.raises(FeatureError, match="2011"):
            build_dataset(two_season_store, runs, FeatureScheme.ADJ_EFF, 2011)

    def test_deterministic(self, two_season_store):
        runs = run_seasons(two_season_store)
        one = build_dataset(two_season_store, runs, FeatureScheme.RAW, 2011)
        two = build_dataset(two_season_store, runs, FeatureScheme.RAW, 2011)

        def fields(split):
            return [(i.date, i.team_first, i.team_second, i.location, i.label,
                     i.features.tobytes()) for i in split]

        assert [fields(split) for split in one] == [fields(split) for split in two]


class TestArraysAndSerialization:
    def test_to_arrays(self, game):
        X, site, y = to_arrays(instances(game))
        assert X.shape == (1, 4) and site.tolist() == [0] and y.tolist() == [1]

    def test_to_arrays_empty_rejected(self):
        with pytest.raises(FeatureError):
            to_arrays([])
