"""Encoding matches as labeled instances for the classifiers.

Each completed (or hypothetical) match becomes one instance: a game-site
categorical, a fixed-order numeric vector drawn from both teams' pre-match
team rows (``adjust.TEAM_ROW``), and — for completed games — a win/loss
label.  Everything is stated from the first team's perspective, and the
first team is the lexicographically smaller id, so every matchup encodes
one way only.  One table gives each scheme's feature names and the team-row
column, or difference of two columns, that each name reads.
``encode_runs`` is the one encoder of played games: one feature matrix per
scheme, from the runs' pre-match rows, with site codes and labels from their
game columns.  Only ``build_dataset``, for ``cli train`` and the benchmark,
wraps its rows as :class:`MatchInstance` objects.

Feature schemes:

  * ``adj_eff``           — both teams' adjusted efficiencies (4 values)
  * ``four_factors``      — both teams' averaged unadjusted factors,
                            offense and defense (16)
  * ``adj_four_factors``  — same layout, opponent-adjusted (16)
  * ``raw``               — season-to-date counting-stat means plus points
                            for/against per game (24); deliberately naive
  * ``diff_off_vs_def``   — adjusted offense minus the opponent's adjusted
                            defense, per factor, both directions (8)
  * ``diff_like_vs_like`` — adjusted offense minus offense and defense
                            minus defense, per factor (8)
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from courtcast.adjust import TEAM_ROW, RawMeans, SeasonRun, TeamSnapshot, team_row
from courtcast.ingest import LOCATIONS, CourtcastError, GameLogError, SeasonStore, named
from courtcast.stats import FourFactors, Site, site_for


class FeatureError(CourtcastError):
    """Raised for season runs that do not match the store, or unknown schemes."""


class FeatureScheme(str, Enum):
    ADJ_EFF = "adj_eff"
    FOUR_FACTORS = "four_factors"
    ADJ_FOUR_FACTORS = "adj_four_factors"
    RAW = "raw"
    DIFF_OFF_VS_DEF = "diff_off_vs_def"
    DIFF_LIKE_VS_LIKE = "diff_like_vs_like"


class Label(str, Enum):
    WIN = "win"
    LOSS = "loss"


# Fixed site order used wherever the categorical needs integer codes or
# one-hot positions.
SITE_ORDER: tuple[Site, Site, Site] = (Site.HOME, Site.AWAY, Site.NEUTRAL)

_FACTORS = FourFactors.field_names()
_HALVES = tuple(f"{half}_{f}" for half in ("off", "def") for f in _FACTORS)

# Every scheme as its features in order: (name, column read) or (name,
# column read, column subtracted from it).  A column "a.<key>" or "b.<key>"
# is the first or second team's TEAM_ROW value.
_TABLE: dict[FeatureScheme, list[tuple[str, ...]]] = {
    FeatureScheme.ADJ_EFF:
        [(f"{t}_{k}", f"{t}.{k}") for t in "ab" for k in ("adj_oe", "adj_de")],
    FeatureScheme.FOUR_FACTORS:
        [(f"{t}_{h}", f"{t}.avg_{h}") for t in "ab" for h in _HALVES],
    FeatureScheme.ADJ_FOUR_FACTORS:
        [(f"{t}_adj_{h}", f"{t}.adj_{h}") for t in "ab" for h in _HALVES],
    FeatureScheme.RAW:
        [(f"{t}_{k}", f"{t}.{k}") for t in "ab" for k in RawMeans.field_names()],
    FeatureScheme.DIFF_OFF_VS_DEF:
        [(f"{o}_off_minus_{d}_def_{f}", f"{o}.adj_off_{f}", f"{d}.adj_def_{f}")
         for o, d in ("ab", "ba") for f in _FACTORS],
    FeatureScheme.DIFF_LIKE_VS_LIKE:
        [(f"{half}_diff_{f}", f"a.adj_{half}_{f}", f"b.adj_{half}_{f}")
         for half in ("off", "def") for f in _FACTORS],
}


def _column(ref: str) -> int:
    """Index of column ``ref`` in a pairing's two team rows laid end to end."""
    team, key = ref.split(".")
    return "ab".index(team) * len(TEAM_ROW) + TEAM_ROW.index(key)


# A scheme's feature names, the column each feature reads, and the column
# each subtracts (None for a scheme of no differences).
_Layout = tuple[tuple[str, ...], np.ndarray, "np.ndarray | None"]


def _compile(feats: list[tuple[str, ...]]) -> _Layout:
    cols = np.array([[_column(ref) for ref in feat[1:]] for feat in feats]).T
    return tuple(feat[0] for feat in feats), cols[0], cols[1] if len(cols) == 2 else None


_SCHEMES = {scheme: _compile(feats) for scheme, feats in _TABLE.items()}


def _scheme(scheme: FeatureScheme | str) -> FeatureScheme:
    """The member ``scheme`` names: each entry point takes a member or its name."""
    return named([scheme], FeatureScheme, "scheme", FeatureError)[0]


def feature_names(scheme: FeatureScheme | str) -> tuple[str, ...]:
    """The exact ordered feature-name list for a scheme."""
    return _SCHEMES[_scheme(scheme)][0]


def _encode(pairs: np.ndarray, scheme: FeatureScheme) -> np.ndarray:
    """``(m, d)`` features of ``m`` pairings.  Row ``i`` of ``pairs`` is the
    first team's ``TEAM_ROW`` values followed by the second team's."""
    _, reads, minus = _SCHEMES[scheme]
    X = pairs.take(reads, axis=1)
    return X if minus is None else X - pairs.take(minus, axis=1)


def encode_pairings(rows: np.ndarray, first: Sequence[int], second: Sequence[int],
                    scheme: FeatureScheme | str) -> np.ndarray:
    """``(m, d)`` features of ``m`` pairings: row ``k`` is team row
    ``rows[first[k]]`` against ``rows[second[k]]`` (``TEAM_ROW`` order).
    Site is not part of the features; it travels as a separate categorical."""
    return _encode(np.concatenate([rows[first], rows[second]], axis=1), _scheme(scheme))


def encode_pairing(first: TeamSnapshot, second: TeamSnapshot,
                   scheme: FeatureScheme | str) -> np.ndarray:
    """The feature vector of one pairing of two snapshots."""
    return encode_pairings(np.stack([team_row(first), team_row(second)]), [0], [1], scheme)[0]


@dataclass(frozen=True, eq=False, slots=True)
class MatchInstance:
    """One encoded match: site + features (+ label when the game is played)."""

    scheme: FeatureScheme
    location: Site
    features: np.ndarray
    label: Label | None
    date: dt.date
    season: int
    team_first: str
    team_second: str


# Each location code's SITE_ORDER code for team_a.
_SITE_CODES = np.array([SITE_ORDER.index(site_for(loc, is_team_a=True)) for loc in LOCATIONS])


def encode_runs(runs: Sequence[SeasonRun], schemes: Sequence[FeatureScheme | str]
                ) -> tuple[dict[FeatureScheme, np.ndarray], np.ndarray, np.ndarray]:
    """Every game of ``runs``, in order, team_a first, encoded from each
    run's pre-match rows: ``(Xs, site, y)`` with one feature matrix per
    scheme in ``Xs``, the games' ``SITE_ORDER`` codes in ``site``, and ``y``
    1 where the first team won."""
    Xs = {scheme: np.concatenate([
        _encode(run.pre_rows.reshape(len(run.pre_rows), 2 * len(TEAM_ROW)), scheme)
        for run in runs]) for scheme in map(_scheme, schemes)}
    site = np.concatenate([_SITE_CODES[run.columns.location] for run in runs])
    y = np.concatenate([run.columns.first_won() for run in runs]).astype(int)
    return Xs, site, y


def training_seasons(store: SeasonStore, test_season: int) -> list[int]:
    """The stored seasons before ``test_season``, which must be stored and
    must not be the earliest."""
    if test_season not in store.seasons:
        raise GameLogError(f"season {test_season} not in store (have {store.seasons})")
    if test_season == store.seasons[0]:
        raise GameLogError(f"no training data: {test_season} is the earliest stored season")
    return store.seasons[:store.seasons.index(test_season)]


def split_runs(store: SeasonStore, runs: dict[int, SeasonRun],
               test_season: int) -> tuple[list[SeasonRun], SeasonRun]:
    """The runs of every season before ``test_season``, in order, and the
    test season's run; each must be the run of this store's games."""
    out = []
    for season in training_seasons(store, test_season) + [test_season]:
        run = runs.get(season)
        if run is None:
            raise FeatureError(f"no season run for {season}")
        if run.columns != store.columns(season):
            raise FeatureError(f"the season run for {season} is not of this store's games")
        out.append(run)
    return out[:-1], out[-1]


def build_dataset(store: SeasonStore, runs: dict[int, SeasonRun],
                  scheme: FeatureScheme | str,
                  test_season: int) -> tuple[list[MatchInstance], list[MatchInstance]]:
    """Encode every game, split into (train, test) around ``test_season``.

    Training instances come from all seasons before the test season, so
    advancing the test season one year grows the training set by exactly the
    previous test set; counts match the game counts of each partition.
    """
    scheme = _scheme(scheme)
    train_runs, test_run = split_runs(store, runs, test_season)

    def instances(run: SeasonRun) -> list[MatchInstance]:
        Xs, site, y = encode_runs([run], [scheme])
        return [MatchInstance(
            scheme=scheme, location=SITE_ORDER[s], features=x,
            label=Label.WIN if won else Label.LOSS,
            date=date, season=run.season, team_first=first, team_second=second)
            for (date, first, second), x, s, won in zip(
                run.columns.keys(), Xs[scheme], site.tolist(), y.tolist())]

    return [inst for run in train_runs for inst in instances(run)], instances(test_run)
