"""Synthetic leagues with known latent structure.

Each team carries an offensive and a defensive strength on the efficiency
scale (100 = average).  A game draws each side's realized efficiency around
``off * opp_def / 100`` (plus a home offset and Gaussian noise), converts it
to integer points on a fixed possession budget, and then builds a full box
score consistent with those points — so the possession and efficiency
formulas applied to the generated data recover the latent structure.

Because the winner is a deterministic function of the two point totals, the
generator can also grade itself: for every distinct matchup it records the
exact win probability (by Monte Carlo over the same outcome function) and
from those the best accuracy any predictor could reach on the schedule.
No model evaluated on the league should beat that number by more than
sampling error.

Generation works on tables, not one game at a time.  All games' realized
efficiencies come from one ``standard_normal((games, 2))`` draw, and their
points from one elementwise pass of the tie rule.  A box pair is built once
per distinct ``(points_a, points_b)``, and the store's box column is that
table's rows taken in game order; no per-game object is built.  The
Monte-Carlo bound simulates its matchups a block at a time, one
``standard_normal((k, 2, sims))`` draw per block of at most ``_BLOCK``
doubles (or of one matchup that needs more).  A
numpy ``Generator`` fills an array in order, so each game and each matchup
sees exactly the draws that a call of its own would give, and the league is
the same, bit for bit.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from courtcast.ingest import (
    BOX_FIELDS,
    LOCATIONS,
    MAX_COUNT,
    BoxScore,
    CourtcastError,
    Location,
    SeasonStore,
)
from courtcast.stats import PACE_FACTOR


class SyntheticError(CourtcastError):
    """Raised for infeasible league specifications."""


# Per-side possession budget (before the pace factor).  Points scale is
# points ~= eff * POINTS_PER_EFF, so one point ~ 2.6 efficiency units.
RAW_POSS = 40
POINTS_PER_EFF = PACE_FACTOR * RAW_POSS / 100.0


def team_names(n: int) -> tuple[str, ...]:
    width = max(2, len(str(n - 1)))
    return tuple(f"t{i:0{width}d}" for i in range(n))


def spread_strengths(n: int, spread: float = 10.0) -> tuple[tuple[float, float], ...]:
    """Evenly spaced (off, def) strengths: net strength spans +-2*spread.

    Assigned in weak/strong alternation so that team-id order carries no
    strength information (the canonical first team of a pairing must not be
    systematically the weaker side, or labels would be single-class).
    """
    deltas = np.linspace(-spread, spread, n)
    lo, hi, zigzag = 0, n - 1, []
    while lo <= hi:
        zigzag.append(deltas[lo])
        lo += 1
        if lo <= hi:
            zigzag.append(deltas[hi])
            hi -= 1
    return tuple((100.0 + d, 100.0 - d) for d in zigzag)


@dataclass(frozen=True)
class SyntheticLeagueSpec:
    """Parameters of a generated league.

    Team strengths come from ``strength_spread``: teams are evenly spaced
    over ``+-strength_spread``.  ``noise`` is the standard deviation of each
    side's per-game efficiency draw, and ``home_advantage`` is added to the
    home side's expected efficiency.
    """

    n_teams: int
    games_per_team: int
    strength_spread: float = 10.0
    noise: float = 6.0
    home_advantage: float = 0.0
    # fraction of rounds played within strength-tiered halves of the league;
    # 0 is a balanced rotation, higher values skew schedule strength so that
    # raw scoring averages mislead and opponent adjustment has work to do
    imbalance: float = 0.0
    n_seasons: int = 1
    first_season: int = 2021
    seed: int = 0

    def __post_init__(self):
        if self.n_teams < 2:
            raise SyntheticError(f"need at least 2 teams, got {self.n_teams}")
        if self.n_teams % 2:
            raise SyntheticError(
                f"odd team count {self.n_teams}: every team plays each round")
        if self.games_per_team < 1:
            raise SyntheticError("games_per_team must be >= 1")
        if not 0 <= self.noise < math.inf:
            raise SyntheticError(f"noise must be finite and >= 0, got {self.noise}")
        if not math.isfinite(self.home_advantage):
            raise SyntheticError(f"home_advantage must be finite, got {self.home_advantage}")
        if not 0.0 <= self.imbalance <= 1.0:
            raise SyntheticError(f"imbalance must be in [0, 1], got {self.imbalance}")
        if self.imbalance > 0 and self.n_teams % 4:
            raise SyntheticError(
                f"tiered scheduling splits the league into two even halves; "
                f"{self.n_teams} teams cannot form them")
        if self.n_seasons < 1:
            raise SyntheticError("n_seasons must be >= 1")
        if not abs(self.strength_spread) < 100.0:
            raise SyntheticError(f"strength_spread must be in (-100, 100) so that strengths "
                                 f"are positive and finite, got {self.strength_spread}")

    def resolved_strengths(self) -> dict[str, tuple[float, float]]:
        return dict(zip(team_names(self.n_teams),
                        spread_strengths(self.n_teams, self.strength_spread)))


@dataclass(frozen=True)
class LeagueTruth:
    """Hidden generative ground truth, kept out of the game log."""

    strengths: dict[str, tuple[float, float]]
    noise: float
    home_advantage: float
    bayes_accuracy: float     # mean over scheduled games of max(p, 1-p)
    bayes_sims: int
    matchup_probs: dict[tuple[str, str, Location], float]  # p(team_a wins)

    def net_order(self) -> list[str]:
        return sorted(self.strengths,
                      key=lambda t: (-(self.strengths[t][0] - self.strengths[t][1]), t))


def _circle_round(members: list[int], r: int) -> list[tuple[int, int, bool]]:
    """Round r of a circle-method rotation over ``members``.

    Each member plays exactly once; pairings repeat with home and away
    swapped once a full cycle of len-1 rounds is exhausted.
    """
    n = len(members)
    others = members[1:]
    shift = r % (n - 1)
    cycle = r // (n - 1)
    line = [members[0]] + others[shift:] + others[:shift]
    return [(line[k], line[n - 1 - k], (k + cycle) % 2 == 0)
            for k in range(n // 2)]


def _schedule(spec: SyntheticLeagueSpec) -> list[list[tuple[int, int, bool]]]:
    """Rounds of (i, j, home_is_i) index triples, one game per team per round.

    A fraction ``spec.imbalance`` of rounds is played within strength-tiered
    halves (top half vs itself, bottom half vs itself); the rest rotate over
    the whole league, which keeps the schedule graph connected.
    """
    strengths = list(spec.resolved_strengths().values())
    by_net = sorted(range(spec.n_teams),
                    key=lambda i: (-(strengths[i][0] - strengths[i][1]), i))
    top, bottom = by_net[:spec.n_teams // 2], by_net[spec.n_teams // 2:]

    rounds, err, r_tier, r_full = [], 0.0, 0, 0
    for _ in range(spec.games_per_team):
        err += spec.imbalance
        if err >= 1.0 - 1e-9:
            err -= 1.0
            rounds.append(_circle_round(top, r_tier) + _circle_round(bottom, r_tier))
            r_tier += 1
        else:
            rounds.append(_circle_round(list(range(spec.n_teams)), r_full))
            r_full += 1
    return rounds


def expected_efficiency(off: float, opp_def: float, home_edge: float = 0.0) -> float:
    return off * opp_def / 100.0 + home_edge


def _points(effs: np.ndarray) -> np.ndarray:
    """Realized efficiencies to integer points on the 4-point floor, in place."""
    effs *= POINTS_PER_EFF
    np.rint(effs, out=effs)
    return np.maximum(effs, 4.0, out=effs)


def _points_from_effs(effs: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Map each game's realized efficiencies, a ``(games, 2)`` row of
    ``effs``, to integer points, in place.  Ties go to the higher expectation
    in the same row of ``mus`` (the first side when expectations are equal);
    the rule applies row by row."""
    pts = _points(effs)
    tie = pts[:, 0] == pts[:, 1]
    a_favored = mus[:, 0] >= mus[:, 1]
    pts[:, 0] += tie & a_favored
    pts[:, 1] += tie & ~a_favored
    return pts


def _offense_line(points: int) -> dict[str, int]:
    """Shooting and turnover counts consistent with an integer point total.

    Rates are tied to the realized efficiency so that each factor carries
    signal: better offenses shoot a higher eFG% and turn the ball over less.
    The offensive rebound count is whatever the possession identity demands:
        RAW_POSS = fga - or - to + 0.475 * fta.
    """
    eff = points / POINTS_PER_EFF
    fta = round(0.25 * RAW_POSS)
    ft = min(round(0.2 * points), fta, points)
    field = points - ft
    fgm3 = min(round(field / 7.5), field // 3)
    if (field - 3 * fgm3) % 2:
        if 3 * (fgm3 + 1) <= field:
            fgm3 += 1
        elif fgm3 >= 1:
            fgm3 -= 1
        else:  # field == 1: shift the odd point onto the free-throw line
            ft, field = (ft + 1, field - 1) if ft < fta else (ft - 1, field + 1)
    fgm2 = (field - 3 * fgm3) // 2
    fgm = fgm2 + fgm3
    efg = 0.15 * (1.0 + eff / 100.0)
    fga = max(fgm, round((fgm + 0.5 * fgm3) / efg))
    to = max(2, round((0.26 - 0.08 * eff / 100.0) * RAW_POSS))
    or_ = max(2, round(fga - to + 0.475 * fta - RAW_POSS))
    return {"fgm": fgm, "fga": fga, "fgm3": fgm3, "ft": ft, "fta": fta,
            "or_": or_, "to": to, "points": points}


def _boxes(points_a: int, points_b: int) -> tuple[BoxScore, BoxScore]:
    a, b = _offense_line(points_a), _offense_line(points_b)
    stl, blk = round(0.07 * RAW_POSS), round(0.05 * RAW_POSS)
    box_a = BoxScore(dr=max(0, (b["fga"] - b["fgm"]) - b["or_"]), stl=stl, blk=blk, **a)
    box_b = BoxScore(dr=max(0, (a["fga"] - a["fgm"]) - a["or_"]), stl=stl, blk=blk, **b)
    box_a.validate()
    box_b.validate()
    return box_a, box_b


# doubles of one Monte-Carlo block; a matchup needing more is simulated alone
_BLOCK = 1 << 15


def _win_probs(mus: np.ndarray, noise: float, rng: np.random.Generator,
               sims: int) -> np.ndarray:
    """P(side a wins) for each ``(mu_a, mu_b)`` row of ``mus``, under the
    exact outcome function, by Monte Carlo over ``sims`` games (one game
    without draws when ``noise`` is 0, which decides the matchup).

    Rows are simulated in order, a block of rows per draw, so each sees the
    draws of its own ``standard_normal((2, sims))`` call.  Side a wins a game
    by outscoring side b, or on a tie when ``mu_a >= mu_b``.
    """
    per_block = max(1, _BLOCK // (2 * sims))
    probs = np.empty(len(mus))
    for lo in range(0, len(mus), per_block):
        block = mus[lo:lo + per_block, :, None]
        if noise == 0.0:
            pts = block.copy()
        else:
            pts = rng.standard_normal((len(block), 2, sims))
            pts *= noise
            pts += block
        _points(pts)
        pa, pb = pts[:, 0], pts[:, 1]
        won = np.where(block[:, 0] >= block[:, 1], pa >= pb, pa > pb)
        probs[lo:lo + len(block)] = np.count_nonzero(won, axis=1) / won.shape[1]
    return probs


#: A league's distinct matchups, each ``(first, second, location)`` key with
#: its two expected efficiencies, and every scheduled game's key in order.
Matchups = tuple[dict[tuple[str, str, Location], tuple[float, float]],
                 list[tuple[str, str, Location]]]


def generate_league(spec: SyntheticLeagueSpec,
                    bayes_sims: int = 100_000) -> tuple[SeasonStore, LeagueTruth]:
    """Simulate a league and record its generative ground truth.

    Returns the game log as a :class:`SeasonStore` plus a
    :class:`LeagueTruth` carrying the latent strengths, the exact win
    probability of every scheduled matchup, and the schedule-weighted best
    achievable accuracy (``bayes_sims`` Monte-Carlo outcomes per distinct
    matchup; at least 1e5 for a trustworthy third digit).  The two halves,
    :func:`league_games` and :func:`league_truth`, draw from separate
    streams, so either may run first, or elsewhere.
    """
    store, matchups = league_games(spec)
    return store, league_truth(spec, matchups, bayes_sims)


def _streams(spec: SyntheticLeagueSpec) -> list[np.random.Generator]:
    """The games' and the bound's random streams, in that order."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(2)]


def league_games(spec: SyntheticLeagueSpec) -> tuple[SeasonStore, Matchups]:
    """The game log of :func:`generate_league`, and the league's matchups
    that :func:`league_truth` grades."""
    names = team_names(spec.n_teams)
    strengths = spec.resolved_strengths()
    rounds = _schedule(spec)
    rng_games, _ = _streams(spec)

    # Expected efficiencies depend only on (matchup, site), not the season:
    # collect the distinct classes first so simulation effort is shared.
    # Every game of a class shares its key.
    classes: dict[tuple[str, str, Location], tuple[float, float]] = {}
    shared: dict[tuple[str, str, Location], tuple[str, str, Location]] = {}
    keys: list[tuple[str, str, Location]] = []
    seasons, days = [], []
    for season_idx in range(spec.n_seasons):
        season = spec.first_season + season_idx
        start = dt.date(season, 11, 1).toordinal()
        for r, games in enumerate(rounds):
            for i, j, home_is_i in games:
                first, second = names[i], names[j]
                loc = Location.HOME_A if home_is_i else Location.HOME_B
                if first > second:
                    first, second = second, first
                    loc = loc.swapped()
                key = shared.setdefault((first, second, loc), (first, second, loc))
                if key not in classes:
                    off_a, def_a = strengths[first]
                    off_b, def_b = strengths[second]
                    edge_a = spec.home_advantage if loc is Location.HOME_A else 0.0
                    edge_b = spec.home_advantage if loc is Location.HOME_B else 0.0
                    classes[key] = (expected_efficiency(off_a, def_b, edge_a),
                                    expected_efficiency(off_b, def_a, edge_b))
                keys.append(key)
                seasons.append(season)
                days.append(start + 2 * r)

    # one draw for all games, then one box pair per distinct score
    game_mus = np.array([classes[key] for key in keys])
    effs = game_mus.copy()
    with np.errstate(over="ignore"):  # a total that overflows to inf is refused below
        if spec.noise != 0.0:
            effs += spec.noise * rng_games.standard_normal(effs.shape)
        points = _points_from_effs(effs, game_mus)
    top = points.max()
    if not top <= MAX_COUNT:
        raise SyntheticError(
            f"noise {spec.noise} and home_advantage {spec.home_advantage} draw a point "
            f"total of {top:.7g}, over the box-score limit {MAX_COUNT}")
    scores, which = np.unique(points.astype(np.int64), axis=0, return_inverse=True)
    table = np.array([sum(_boxes(pa, pb), ()) for pa, pb in scores.tolist()],
                     dtype=np.int64).reshape(len(scores), 2 * len(BOX_FIELDS))

    # the columns in the store's order (season, date, team_a, team_b), so
    # that the box column is built once, from the table
    ids = np.array(sorted(names), dtype=object)
    rank = {team: k for k, team in enumerate(ids)}
    team_a, team_b = (np.array([rank[key[side]] for key in keys], dtype=np.intp)
                      for side in (0, 1))
    order = np.lexsort((team_b, team_a, days, seasons))
    store = SeasonStore.from_columns(
        [seasons[k] for k in order.tolist()], np.array(days, dtype=np.int64)[order],
        ids[team_a[order]], ids[team_b[order]],
        np.array([LOCATIONS.index(loc) for _, _, loc in keys], dtype=np.int8)[order],
        table[which.reshape(-1)[order]])
    return store, (classes, keys)


def league_truth(spec: SyntheticLeagueSpec, matchups: Matchups,
                 bayes_sims: int = 100_000) -> LeagueTruth:
    """The ground truth of :func:`generate_league`, from the ``matchups``
    that :func:`league_games` returns for ``spec``."""
    if bayes_sims < 1:
        raise SyntheticError("bayes_sims must be >= 1")
    classes, games = matchups
    # distinct matchups often share an expected-efficiency pair (equal-strength
    # leagues collapse to a handful), so simulate once per (mu_a, mu_b); a pair
    # whose mirror came first in key order takes the mirror's complement
    simulated, mirrored, seen = [], [], set()
    for mu_a, mu_b in dict.fromkeys(mus for _, mus in sorted(classes.items())):
        (mirrored if (mu_b, mu_a) in seen else simulated).append((mu_a, mu_b))
        seen.add((mu_a, mu_b))
    _, rng_bayes = _streams(spec)
    wins = _win_probs(np.array(simulated), spec.noise, rng_bayes, bayes_sims)
    by_mu = dict(zip(simulated, wins.tolist()))
    for mu_a, mu_b in mirrored:
        by_mu[(mu_a, mu_b)] = 1.0 - by_mu[(mu_b, mu_a)]
    probs = {key: by_mu[mus] for key, mus in sorted(classes.items())}
    per_game = [max(probs[key], 1.0 - probs[key]) for key in games]
    return LeagueTruth(
        strengths=spec.resolved_strengths(), noise=spec.noise,
        home_advantage=spec.home_advantage,
        bayes_accuracy=float(np.mean(per_game)), bayes_sims=bayes_sims,
        matchup_probs=probs)


# ---------------------------------------------------------------------------
# Calibration

def _favorite_prob(abs_mu_gap: float, noise: float) -> float:
    # ties go to the favorite, hence the +0.5 continuity correction on the
    # integer point margin
    margin_sd = noise * POINTS_PER_EFF * math.sqrt(2.0)
    return NormalDist().cdf((abs_mu_gap * POINTS_PER_EFF + 0.5) / margin_sd)


def calibrate_noise(spec: SyntheticLeagueSpec, target: float) -> float:
    """Noise level at which the schedule's best achievable accuracy ~= target.

    Uses the Gaussian form of the integer point margin; the Monte-Carlo
    number recorded at generation time lands within a few thousandths.
    """
    if not 0.5 < target < 1.0:
        raise SyntheticError(f"target accuracy must be in (0.5, 1), got {target}")
    off, dfn = np.array(list(spec.resolved_strengths().values())).T
    i, j, home_is_i = np.array([game for games in _schedule(spec) for game in games]).T
    home_i = np.where(home_is_i, spec.home_advantage, 0.0)
    home_j = np.where(home_is_i, 0.0, spec.home_advantage)
    gaps = np.abs(expected_efficiency(off[i], dfn[j], home_i)
                  - expected_efficiency(off[j], dfn[i], home_j))
    # Schedules repeat gaps (71 distinct in 480 games at 32 teams), so each step
    # scores a gap once and averages the same per-game array, in game order.
    distinct, per_game = np.unique(gaps, return_inverse=True)

    def mean_acc(noise: float) -> float:
        scores = np.array([_favorite_prob(g, noise) for g in distinct])
        return float(np.mean(scores[per_game]))

    lo, hi = 1e-6, 1.0
    try:    # the widest gap overflows first, at the smallest noise probed
        with np.errstate(over="raise"):
            _favorite_prob(distinct[-1], lo)
    except FloatingPointError:
        raise SyntheticError(f"home_advantage {spec.home_advantage} is too far from 0") from None
    if mean_acc(lo) < target:
        raise SyntheticError("strength gaps too small to reach the target accuracy")
    while mean_acc(hi) > target:
        hi *= 2.0
        if hi > 1e6:
            raise SyntheticError("target accuracy unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if mean_acc(mid) > target else (lo, mid)
        if bracket == (lo, hi):
            break   # a step depends only on (lo, hi), so every later one repeats this
        lo, hi = bracket
    return 0.5 * (lo + hi)


def calibrate_home_advantage(noise: float, target_home_rate: float) -> float:
    """Home-efficiency offset giving the target home-win rate when all
    teams are equally strong (point-margin ties go to the home side)."""
    if not noise > 0:
        raise SyntheticError("home-rate calibration needs noise > 0")
    if not 0.5 <= target_home_rate < 1.0:
        raise SyntheticError(f"target rate must be in [0.5, 1), got {target_home_rate}")
    margin_sd = noise * POINTS_PER_EFF * math.sqrt(2.0)
    z = NormalDist().inv_cdf(target_home_rate)
    edge = (z * margin_sd - 0.5) / POINTS_PER_EFF
    if not math.isfinite(edge):
        raise SyntheticError(f"noise {noise} is too large to calibrate a home advantage")
    return edge
