"""Non-ML reference predictors and team rankings.

Pythagorean expectation turns a team's averaged efficiencies into a win
probability:  oe^y / (oe^y + de^y)  with exponent y = 11.5 by default.
Every scorer reads team rows (``adjust.TEAM_ROW``): walk-forward evaluation
each game's two pre-match rows, ``predict`` two teams' rows at a date, and a
ranking every team's final row; the snapshot functions are views of that code.
RPI, read from a season's game columns, blends a team's winning percentage
with its opponents' and its opponents' opponents' (0.25/0.50/0.25), excluding
games against the rated team from each opponent's record.  Rankings count
predicted wins over every hypothetical pairing, each predicted once at a
neutral site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from courtcast.adjust import TEAM_ROW, TeamSnapshot
from courtcast.features import SITE_ORDER, encode_pairings
from courtcast.ingest import CourtcastError, SeasonColumns
from courtcast.models import p_win
from courtcast.models.base import first_team_wins
from courtcast.stats import Site


class BaselineError(CourtcastError):
    """Raised for invalid ratings inputs (non-positive efficiencies, no games)."""


@dataclass(frozen=True)
class PythagParams:
    """Exponent for the Pythagorean expectation; higher = more decisive."""

    y: float = 11.5

    def __post_init__(self):
        if not 0 < self.y < math.inf:
            raise BaselineError(f"exponent must be positive and finite, got {self.y}")


def _rating(team: str, oe: float, de: float, params: PythagParams) -> float:
    """``team``'s win probability proxy from its averaged adjusted
    efficiencies ``oe`` and ``de``.

    Computed so that swapping offense and defense yields the exact
    complement: the weaker side's share is divided once and the stronger
    side is literally 1.0 minus it.  Powers whose sum under- or overflows
    raise :class:`BaselineError` naming the exponent.
    """
    if oe <= 0 or de <= 0:
        raise BaselineError(f"{team}: efficiencies must be positive (adj_oe={oe}, adj_de={de})")
    try:
        x, z = oe ** params.y, de ** params.y
    except OverflowError:
        x = z = math.inf
    if not 0.0 < x + z < math.inf:
        raise BaselineError(f"{team}: rating {'overflows' if x + z else 'underflows'} "
                            f"at exponent {params.y}")
    if x <= z:
        return x / (x + z)
    return 1.0 - z / (z + x)


def pythag_rating(snap: TeamSnapshot, params: PythagParams = PythagParams()) -> float:
    """Win probability proxy from a snapshot's averaged adjusted efficiencies."""
    return _rating(snap.team, snap.adj_oe, snap.adj_de, params)


def _head_to_head(ra: float, rb: float) -> float:
    """Classic log-odds combination: p = ra(1-rb) / (ra(1-rb) + rb(1-ra)).
    Equal ratings give 0.5; a rating of 1.0 wins with certainty."""
    num = ra * (1.0 - rb)
    den = num + rb * (1.0 - ra)
    if den == 0.0:  # both ratings are exactly 0 or exactly 1
        return 0.5
    return num / den


def pythag_pair_prob(snap_a: TeamSnapshot, snap_b: TeamSnapshot,
                     params: PythagParams = PythagParams()) -> float:
    """Head-to-head win probability for a from two Pythagorean ratings."""
    return _head_to_head(pythag_rating(snap_a, params), pythag_rating(snap_b, params))


_EFFICIENCIES = [TEAM_ROW.index("adj_oe"), TEAM_ROW.index("adj_de")]


#: The home-wins baseline: p(first team wins) by the first team's site.
HOME_WINS_P = {Site.HOME: 1.0, Site.AWAY: 0.0, Site.NEUTRAL: 0.5}


# ---------------------------------------------------------------------------
# RPI

def _wp(rec: dict[str, list[tuple[str, bool]]], team: str,
        exclude: str | None = None) -> float:
    games = [(opp, won) for opp, won in rec.get(team, []) if opp != exclude]
    if not games:
        return 0.5  # exclusion emptied the record: carries no information
    return sum(won for _, won in games) / len(games)


def rpi(games: SeasonColumns) -> dict[str, float]:
    """Each team's 0.25*WP + 0.50*OWP + 0.25*OOWP over one season's games.

    Opponents' winning percentages exclude their games against the rated
    team; each opponent counts once per game played (multiplicity matters).
    Every team's OWP is computed once and serves its opponents' OOWP.
    """
    rec: dict[str, list[tuple[str, bool]]] = {}   # each team's (opponent, won) results
    for (_, team_a, team_b), a_won in zip(games.keys(), games.first_won().tolist()):
        rec.setdefault(team_a, []).append((team_b, a_won))
        rec.setdefault(team_b, []).append((team_a, not a_won))
    if not rec:
        raise BaselineError("no games to rate")
    owp = {team: sum(_wp(rec, opp, exclude=team) for opp, _ in own) / len(own)
           for team, own in rec.items()}
    return {team: 0.25 * _wp(rec, team) + 0.50 * owp[team]
            + 0.25 * (sum(owp[opp] for opp, _ in own) / len(own))
            for team, own in rec.items()}


# ---------------------------------------------------------------------------
# Ranking by hypothetical round robin

# A pair predictor maps team ids, their team rows (row k is teams[k]'s) and
# two index arrays to p(first wins) of each pairing (first[k], second[k]) at
# a neutral site.  The ids name a team in an error.
PairPredictor = Callable[[Sequence[str], np.ndarray, np.ndarray, np.ndarray], Sequence[float]]


@dataclass(frozen=True)
class RankEntry:
    rank: int
    team: str
    score: float      # predicted wins across all pairings
    mean_p: float     # mean predicted win probability (tie-break key)


@dataclass(frozen=True)
class Ranking:
    entries: tuple[RankEntry, ...]


def pythag_predictor(params: PythagParams = PythagParams()) -> PairPredictor:
    """Rate every row once, in order, and combine the ratings per pairing."""
    def prob(teams: Sequence[str], rows: np.ndarray, first: np.ndarray,
             second: np.ndarray) -> list[float]:
        ratings = [_rating(team, oe, de, params)
                   for team, (oe, de) in zip(teams, rows[:, _EFFICIENCIES].tolist())]
        return [_head_to_head(ratings[i], ratings[j]) for i, j in zip(first, second)]

    return prob


def model_predictor(model) -> PairPredictor:
    """Adapt a trained classifier to hypothetical neutral-site pairings,
    encoded and scored in one batch."""
    def prob(teams: Sequence[str], rows: np.ndarray, first: np.ndarray,
             second: np.ndarray) -> np.ndarray:
        X = encode_pairings(rows, first, second, model.scheme)
        return p_win(model, X, np.full(len(X), SITE_ORDER.index(Site.NEUTRAL)))

    return prob


def round_robin_rank(predictor: PairPredictor, rows: Mapping[str, np.ndarray]) -> Ranking:
    """Rank teams by predicted wins over every hypothetical pairing of their
    team rows (``rows`` maps each team id to its row).

    Each unordered pair is predicted exactly once, at a neutral site, in
    canonical orientation (smaller team id first), all in one predictor
    call.  Ties in predicted wins break by mean win probability, then by
    team id.
    """
    names = sorted(rows)
    if len(names) < 2:
        raise BaselineError("ranking needs at least two teams")

    first, second = np.triu_indices(len(names), k=1)    # every i < j, i-major
    table = np.stack([rows[team] for team in names])
    probs = np.asarray(predictor(names, table, first, second), dtype=float)
    if probs.shape != first.shape:
        raise BaselineError(f"predictor returned an array of shape {probs.shape} "
                            f"for {len(first)} pairings")
    wins = [0] * len(names)
    prob_sum = [0.0] * len(names)
    firsts = first_team_wins(probs, SITE_ORDER.index(Site.NEUTRAL)).tolist()
    for i, j, p, first_wins in zip(first.tolist(), second.tolist(), probs.tolist(), firsts):
        if not 0.0 <= p <= 1.0:
            raise BaselineError(f"predictor returned invalid probability {p}")
        prob_sum[i] += p
        prob_sum[j] += 1.0 - p
        wins[i if first_wins else j] += 1

    n_pairings = len(names) - 1
    order = sorted(range(len(names)),
                   key=lambda t: (-wins[t], -prob_sum[t] / n_pairings, names[t]))
    entries = tuple(
        RankEntry(rank=rank, team=names[t], score=float(wins[t]),
                  mean_p=prob_sum[t] / n_pairings)
        for rank, t in enumerate(order, start=1))
    return Ranking(entries=entries)
