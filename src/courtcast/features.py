"""Encoding matches as labeled instances for the classifiers.

Each completed (or hypothetical) match becomes one instance: a game-site
categorical, a fixed-order numeric vector drawn from both teams' pre-match
snapshots, and — for completed games — a win/loss label.  Everything is
stated from the first team's perspective, and the first team is the
lexicographically smaller id, so every matchup encodes one way only.

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

import numpy as np

from courtcast.adjust import RawMeans, SeasonRun, TeamSnapshot
from courtcast.ingest import CourtcastError, GameRecord, SeasonStore, season_partition
from courtcast.stats import FourFactors, Site, site_for


class FeatureError(CourtcastError):
    """Raised for snapshot/game mismatches or unknown schemes."""


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


def feature_names(scheme: FeatureScheme) -> tuple[str, ...]:
    """The exact ordered feature-name list for a scheme."""
    if scheme is FeatureScheme.ADJ_EFF:
        return ("a_adj_oe", "a_adj_de", "b_adj_oe", "b_adj_de")
    if scheme is FeatureScheme.FOUR_FACTORS:
        return tuple(f"{side}_{kind}_{f}" for side in "ab"
                     for kind in ("off", "def") for f in _FACTORS)
    if scheme is FeatureScheme.ADJ_FOUR_FACTORS:
        return tuple(f"{side}_adj_{kind}_{f}" for side in "ab"
                     for kind in ("off", "def") for f in _FACTORS)
    if scheme is FeatureScheme.RAW:
        return tuple(f"{side}_{f}" for side in "ab" for f in RawMeans.field_names())
    if scheme is FeatureScheme.DIFF_OFF_VS_DEF:
        return (tuple(f"a_off_minus_b_def_{f}" for f in _FACTORS)
                + tuple(f"b_off_minus_a_def_{f}" for f in _FACTORS))
    if scheme is FeatureScheme.DIFF_LIKE_VS_LIKE:
        return (tuple(f"off_diff_{f}" for f in _FACTORS)
                + tuple(f"def_diff_{f}" for f in _FACTORS))
    raise FeatureError(f"unknown scheme {scheme!r}")


def _factor_block(ff: FourFactors) -> list[float]:
    return [getattr(ff, f) for f in _FACTORS]


def encode_pairing(first: TeamSnapshot, second: TeamSnapshot,
                   scheme: FeatureScheme) -> np.ndarray:
    """Numeric feature vector for (first vs second) under a scheme.

    Site is not part of the vector; it travels as a separate categorical.
    """
    a, b = first, second
    if scheme is FeatureScheme.ADJ_EFF:
        vals = [a.adj_oe, a.adj_de, b.adj_oe, b.adj_de]
    elif scheme is FeatureScheme.FOUR_FACTORS:
        vals = (_factor_block(a.avg_off_factors) + _factor_block(a.avg_def_factors)
                + _factor_block(b.avg_off_factors) + _factor_block(b.avg_def_factors))
    elif scheme is FeatureScheme.ADJ_FOUR_FACTORS:
        vals = (_factor_block(a.adj_off_factors) + _factor_block(a.adj_def_factors)
                + _factor_block(b.adj_off_factors) + _factor_block(b.adj_def_factors))
    elif scheme is FeatureScheme.RAW:
        vals = ([getattr(a.raw_means, f) for f in RawMeans.field_names()]
                + [getattr(b.raw_means, f) for f in RawMeans.field_names()])
    elif scheme is FeatureScheme.DIFF_OFF_VS_DEF:
        vals = ([ao - bd for ao, bd in zip(_factor_block(a.adj_off_factors),
                                           _factor_block(b.adj_def_factors))]
                + [bo - ad for bo, ad in zip(_factor_block(b.adj_off_factors),
                                             _factor_block(a.adj_def_factors))])
    elif scheme is FeatureScheme.DIFF_LIKE_VS_LIKE:
        vals = ([ao - bo for ao, bo in zip(_factor_block(a.adj_off_factors),
                                           _factor_block(b.adj_off_factors))]
                + [ad - bd for ad, bd in zip(_factor_block(a.adj_def_factors),
                                             _factor_block(b.adj_def_factors))])
    else:
        raise FeatureError(f"unknown scheme {scheme!r}")
    return np.asarray(vals, dtype=float)


@dataclass(frozen=True)
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

    def __eq__(self, other):
        if not isinstance(other, MatchInstance):
            return NotImplemented
        return (self.scheme == other.scheme and self.location == other.location
                and self.label == other.label and self.date == other.date
                and self.season == other.season
                and self.team_first == other.team_first
                and self.team_second == other.team_second
                and np.array_equal(self.features, other.features))

    def __hash__(self):
        return hash((self.scheme, self.location, self.date,
                     self.team_first, self.team_second))


def encode_match(game: GameRecord, snap_a: TeamSnapshot, snap_b: TeamSnapshot,
                 scheme: FeatureScheme, *, first_team: str | None = None) -> MatchInstance:
    """Encode a completed game, defaulting to canonical (team_a-first) order.

    The snapshots must be both teams' pre-match snapshots for the game's
    date; a mismatch is rejected rather than silently encoding stale or
    future information.
    """
    for snap, team in ((snap_a, game.team_a), (snap_b, game.team_b)):
        if snap.team != team:
            raise FeatureError(
                f"snapshot for {snap.team!r} paired with game team {team!r}")
        if snap.date != game.date:
            raise FeatureError(
                f"snapshot for {snap.team} dated {snap.date}, game is {game.date}")
        if snap.season != game.season:
            raise FeatureError(
                f"snapshot season {snap.season} != game season {game.season}")

    if first_team is None or first_team == game.team_a:
        first, second = (game.team_a, snap_a), (game.team_b, snap_b)
        first_is_a = True
    elif first_team == game.team_b:
        first, second = (game.team_b, snap_b), (game.team_a, snap_a)
        first_is_a = False
    else:
        raise FeatureError(f"{first_team!r} is not in this game")

    return MatchInstance(
        scheme=scheme,
        location=site_for(game.location, is_team_a=first_is_a),
        features=encode_pairing(first[1], second[1], scheme),
        label=Label.WIN if game.winner() == first[0] else Label.LOSS,
        date=game.date, season=game.season,
        team_first=first[0], team_second=second[0],
    )


def build_dataset(store: SeasonStore, runs: dict[int, SeasonRun],
                  scheme: FeatureScheme,
                  test_season: int) -> tuple[list[MatchInstance], list[MatchInstance]]:
    """Encode every game, split into (train, test) around ``test_season``.

    Training instances come from all seasons before the test season; counts
    match the game counts of each partition exactly.
    """
    train_games, test_games = season_partition(store, test_season)
    out: list[list[MatchInstance]] = [[], []]
    for part, games in enumerate((train_games, test_games)):
        for g in games:
            run = runs.get(g.season)
            if run is None:
                raise FeatureError(f"no season run for {g.season}")
            snaps = run.pre_match.get((g.date, g.team_a, g.team_b))
            if snaps is None:
                raise FeatureError(
                    f"missing pre-match snapshot for {g.team_a} vs {g.team_b} on {g.date}")
            out[part].append(encode_match(g, snaps[0], snaps[1], scheme))
    return out[0], out[1]


def to_arrays(instances: list[MatchInstance]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack instances into (X, site_codes, y) for model consumption.

    ``site_codes`` index into SITE_ORDER; ``y`` is 1 for a first-team win.
    Unlabeled instances get y = -1.
    """
    if not instances:
        raise FeatureError("empty instance list")
    X = np.stack([inst.features for inst in instances])
    site = np.array([SITE_ORDER.index(inst.location) for inst in instances], dtype=int)
    y = np.array([-1 if inst.label is None else int(inst.label is Label.WIN)
                  for inst in instances], dtype=int)
    return X, site, y
