"""Per-game derived statistics: pace, efficiencies, and the four factors.

Raw box-score counts depend on how fast a game was played, so teams are
compared on a per-possession basis.  Possessions are estimated from the box
score (shot attempts that were not kept alive by an offensive rebound, plus
turnovers, plus a fraction of free-throw trips):

    possessions = 0.96 * (FGA - OR - TO + ft_weight * FTA)

with ft_weight 0.475 by default (0.4 is the older NBA-calibrated choice).
Points scored and allowed per 100 possessions give a team's offensive and
defensive efficiency for the game; both are normalized by the team's OWN
possession estimate.

The "four factors" summarize how a team wins possessions and converts them,
in decreasing order of importance: shooting (eFG%), ball security (TO%),
offensive rebounding (OR%), and getting to the line (FTR).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple
import datetime as dt

import numpy as np

from courtcast.ingest import BOX_FIELDS, BoxScore, GameRecord, Location

PACE_FACTOR = 0.96
DEFAULT_FT_WEIGHT = 0.475
OLIVER_FT_WEIGHT = 0.4  # original NBA estimate


def possessions(box: BoxScore, ft_weight: float = DEFAULT_FT_WEIGHT) -> float:
    """Estimated possessions used by one team in one game."""
    return PACE_FACTOR * (box.fga - box.or_ - box.to + ft_weight * box.fta)


def raw_efficiencies(box: BoxScore, opp_box: BoxScore,
                     ft_weight: float = DEFAULT_FT_WEIGHT) -> tuple[float, float]:
    """(offensive, defensive) efficiency: points scored/allowed per 100 possessions.

    Both are normalized by the team's own possession count for the game.
    """
    poss = possessions(box, ft_weight)
    return box.points * 100.0 / poss, opp_box.points * 100.0 / poss


@dataclass(frozen=True)
class FourFactors:
    """eFG%, TO%, OR%, FTR — one team's four factors for one game (or averaged)."""

    efg: float
    to_pct: float
    or_pct: float
    ftr: float

    @staticmethod
    def field_names() -> tuple[str, str, str, str]:
        return ("efg", "to_pct", "or_pct", "ftr")


# Relative importance weights (shooting, turnovers, rebounding, free throws).
FOUR_FACTOR_WEIGHTS = FourFactors(efg=0.4, to_pct=0.25, or_pct=0.2, ftr=0.15)


def four_factors(box: BoxScore, opp_box: BoxScore,
                 ft_weight: float = DEFAULT_FT_WEIGHT) -> FourFactors:
    """One team's offensive four factors against a given opponent box."""
    poss = possessions(box, ft_weight)
    return FourFactors(
        efg=(box.fgm + 0.5 * box.fgm3) / box.fga,
        to_pct=box.to / poss,
        or_pct=box.or_ / (box.or_ + opp_box.dr),
        ftr=box.fta / box.fga,
    )


class Site(str, Enum):
    """Game site from a single team's perspective."""

    HOME = "home"
    AWAY = "away"
    NEUTRAL = "neutral"


def site_for(location: Location, is_team_a: bool) -> Site:
    if location is Location.NEUTRAL:
        return Site.NEUTRAL
    home_a = location is Location.HOME_A
    return Site.HOME if home_a == is_team_a else Site.AWAY


@dataclass(frozen=True)
class GameStats:
    """One team's derived statistics for one completed game.

    ``off_factors`` are the team's own four factors; ``def_factors`` are the
    opponent's factors from the same game, i.e. what the team allowed.  The
    raw boxes ride along; feature schemes read means from team rows instead.
    """

    team: str
    opponent: str
    date: dt.date
    season: int
    site: Site
    poss: float
    oe: float
    de: float
    off_factors: FourFactors
    def_factors: FourFactors
    won: bool
    box: BoxScore
    opp_box: BoxScore


def game_stats(record: GameRecord,
               ft_weight: float = DEFAULT_FT_WEIGHT) -> tuple[GameStats, GameStats]:
    """Derived statistics for both sides of a game, (team_a's, team_b's)."""
    out = []
    for is_a in (True, False):
        box, opp = (record.box_a, record.box_b) if is_a else (record.box_b, record.box_a)
        team, opponent = (record.team_a, record.team_b) if is_a else (record.team_b, record.team_a)
        oe, de = raw_efficiencies(box, opp, ft_weight)
        out.append(GameStats(
            team=team,
            opponent=opponent,
            date=record.date,
            season=record.season,
            site=site_for(record.location, is_a),
            poss=possessions(box, ft_weight),
            oe=oe,
            de=de,
            off_factors=four_factors(box, opp, ft_weight),
            def_factors=four_factors(opp, box, ft_weight),
            won=record.winner() == team,
            box=box,
            opp_box=opp,
        ))
    return out[0], out[1]


class GameArrays(NamedTuple):
    """Both sides' derived statistics for many games, as arrays.

    Axis 0 is the game, axis 1 the side (0 is ``team_a``, 1 is ``team_b``);
    factor arrays carry the four factors on a last axis in
    ``FourFactors.field_names()`` order, and ``box`` the integer box-score
    counts in ``BOX_FIELDS`` order.  A division by zero (no possessions, no
    field-goal attempts, no rebounds) leaves a non-finite value instead of
    raising, so callers check ``np.isfinite`` where it matters.
    """

    poss: np.ndarray          # (games, 2)
    oe: np.ndarray            # (games, 2)
    de: np.ndarray            # (games, 2)
    off_factors: np.ndarray   # (games, 2, 4)
    def_factors: np.ndarray   # (games, 2, 4)
    box: np.ndarray           # (games, 2, len(BOX_FIELDS)), int64


def game_arrays(box: np.ndarray, ft_weight: float = DEFAULT_FT_WEIGHT) -> GameArrays:
    """:func:`game_stats` for many games at once, equal to it bit for bit.

    ``box`` holds one row per game, side a's counts then side b's, each in
    ``BOX_FIELDS`` order: a store's box column, which is read as ``(games,
    2, 11)`` without a copy.  The box-score columns stand in for the scalar
    counts of one box, so the same functions evaluate the same expressions
    elementwise, and numpy rounds each operation exactly as Python does.
    """
    box = np.asarray(box, dtype=np.int64).reshape(len(box), 2, len(BOX_FIELDS))
    own = SimpleNamespace(**{f: box[:, :, k] for k, f in enumerate(BOX_FIELDS)})
    opp = SimpleNamespace(**{f: box[:, ::-1, k] for k, f in enumerate(BOX_FIELDS)})
    with np.errstate(divide="ignore", invalid="ignore"):
        poss = possessions(own, ft_weight)
        oe, de = raw_efficiencies(own, opp, ft_weight)
        ff = four_factors(own, opp, ft_weight)
    off = np.stack([getattr(ff, f) for f in FourFactors.field_names()], axis=-1)
    return GameArrays(poss=poss, oe=oe, de=de, off_factors=off,
                      def_factors=off[:, ::-1], box=box)
