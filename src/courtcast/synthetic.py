"""Synthetic leagues with known latent structure.

Each team carries an offensive and a defensive strength on the efficiency
scale (100 = average).  A game draws each side's realized efficiency around
``off * opp_def / 100`` (plus a home offset and Gaussian noise), converts it
to integer points on a fixed possession budget, and then builds a full box
score consistent with those points — so the possession and efficiency
formulas applied to the generated data recover the latent structure.

Because the winner is a deterministic function of the two point totals, the
generator can also grade itself: for every distinct matchup it records the
exact win probability, summed over the two sides' point-total
distributions, and from those the best accuracy any predictor could reach
on the schedule.  No model evaluated on the league should beat that number
by more than sampling error.

Generation works on tables, not one game at a time.  Both halves read one
schedule table built from the spec: a season's games as arrays of rounds,
team indices, location codes and expected efficiencies, with no per-game
Python value.  The log repeats it over the seasons; all games' realized
efficiencies come from one ``standard_normal((games, 2))`` draw, and their
points from one elementwise pass of the tie rule.  A numpy ``Generator``
fills an array in order, so each game sees exactly the draws that a call of
its own would give, and the league is the same, bit for bit.  A box pair is
built once per distinct ``(points_a, points_b)``, and the store's box column
is that table's rows taken in game order.
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
    zigzag = np.empty(n)
    zigzag[::2] = deltas[:(n + 1) // 2]          # the low deltas in order
    zigzag[1::2] = deltas[(n + 1) // 2:][::-1]   # the high ones in reverse
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
        last = self.first_season + self.n_seasons - 1    # rounds 2 days apart from Nov 1
        if not (dt.MINYEAR <= self.first_season and last <= dt.MAXYEAR and
                dt.date(last, 11, 1).toordinal() + 2 * (self.games_per_team - 1)
                <= dt.date.max.toordinal()):
            raise SyntheticError(
                f"first_season {self.first_season}, n_seasons {self.n_seasons} and games_per_team "
                f"{self.games_per_team} schedule games outside {dt.date.min}..{dt.date.max}")
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


# the most noise the bound is summed for: its window of point totals grows
# with the noise, and at 1,000 the points' SD is about ten times the mean score
MAX_NOISE = 1_000.0
_REACH = 9.0            # SDs of the underdog's points summed over on each side
_BLOCK = 1 << 14        # offsets passed to erfc at a time


def _win_probs(mus: np.ndarray, noise: float) -> np.ndarray:
    """P(side a wins) for each ``(mu_a, mu_b)`` row of ``mus``, exactly.  A
    side scores ``max(rint(N(mu, noise) * POINTS_PER_EFF), 4)`` points and
    wins by outscoring the other, or on a tie when its expectation is the
    higher (side a's when equal); at noise 0 the expectations decide.

    Each distinct (favorite, underdog) pair is summed once, for a matchup
    and its mirror: the favorite wins with ``sum_k P(U = k) P(F >= k)`` over
    the underdog's totals within ``_REACH`` SDs of its mean (the first and
    last take the tails), where ``P(X <= k) = Phi((k + 0.5 - mean) / sd)``
    for ``k >= 4``.  Totals are offsets from a side's mean, exact at any
    magnitude, clipped where the normal tail is below any double.
    """
    a_favored = mus[:, 0] >= mus[:, 1]
    pairs, which = np.unique(np.where(a_favored[:, None], mus, mus[:, ::-1]), axis=0,
                             return_inverse=True)
    if noise == 0.0:
        pts = _points(pairs.copy())
        favorite = (pts[:, 0] >= pts[:, 1]).astype(float)
    else:
        sd = noise * POINTS_PER_EFF
        width = math.ceil(2.0 * _REACH * sd) + 2
        steps = np.arange(float(width))     # k - start, over the underdog's totals k
        scale = max(sd * math.sqrt(2.0), math.ulp(0.0))   # 0 at the least noise

        def half_erfc(offsets: np.ndarray) -> np.ndarray:   # P(N(0, sd) > offset)
            np.clip(offsets, -40.0 * scale, 40.0 * scale, out=offsets)
            offsets /= scale
            values = np.fromiter(map(math.erfc, offsets.ravel().tolist()), float, offsets.size)
            return np.multiply(values.reshape(offsets.shape), 0.5, out=offsets)

        favorite = np.empty(len(pairs))
        per_block = max(1, _BLOCK // width)
        for lo in range(0, len(pairs), per_block):
            fav, dog = (pairs[lo:lo + per_block, :, None] * POINTS_PER_EFF).transpose(1, 0, 2)
            start = np.maximum(np.floor(dog - _REACH * sd), 4.0)  # the underdog's first total
            below = half_erfc(dog - start - 0.5 - steps)          # P(U <= k)
            below[:, -1] = 1.0
            above = half_erfc(start - fav - 0.5 + steps)          # P(F >= k)
            above[start[:, 0] == 4.0, 0] = 1.0                    # F >= 4 always
            favorite[lo:lo + len(fav)] = np.einsum(
                "ij,ij->i", np.diff(below, axis=1, prepend=0.0), above)
    p = favorite[which.reshape(-1)]
    return np.where(a_favored, p, 1.0 - p)


def generate_league(spec: SyntheticLeagueSpec,
                    bayes_sims: int | None = None) -> tuple[SeasonStore, LeagueTruth]:
    """Simulate a league and record its generative ground truth.

    Returns the game log as a :class:`SeasonStore` plus a
    :class:`LeagueTruth` carrying the latent strengths, the exact win
    probability of every scheduled matchup, and the schedule-weighted best
    achievable accuracy.  The two halves, :func:`league_games` and
    :func:`league_truth`, each build the schedule table from ``spec``, so
    either may run first, or elsewhere.

    ``bayes_sims`` is ignored: the bound's Monte-Carlo draws per matchup
    before it was summed exactly, kept while the benchmark passes it.
    """
    return league_games(spec), league_truth(spec)


def _season(spec: SyntheticLeagueSpec) -> tuple[np.ndarray, ...]:
    """One season's games in schedule order, as arrays: each game's round,
    its teams' indices ``a < b`` (names sort as their indices), its location
    code, and its ``(mu_a, mu_b)`` row of expected efficiencies."""
    table = np.array(_schedule(spec))    # (rounds, games, (i, j, home_is_i))
    rounds = np.repeat(np.arange(len(table)), table.shape[1])
    i, j, home_is_i = table.reshape(-1, 3).T
    a, b = np.minimum(i, j), np.maximum(i, j)
    home_a = (home_is_i == 1) == (i < j)   # whether the home side is the lower index
    off, dfn = np.array(list(spec.resolved_strengths().values())).T
    mus = np.column_stack([
        expected_efficiency(off[a], dfn[b], np.where(home_a, spec.home_advantage, 0.0)),
        expected_efficiency(off[b], dfn[a], np.where(home_a, 0.0, spec.home_advantage))])
    loc = np.where(home_a, LOCATIONS.index(Location.HOME_A), LOCATIONS.index(Location.HOME_B))
    return rounds, a, b, loc, mus


def league_games(spec: SyntheticLeagueSpec) -> SeasonStore:
    """The game log of :func:`generate_league`: the season table repeated
    over the seasons, a season's rounds two days apart from November 1."""
    rounds, a, b, loc, mus = _season(spec)
    # the first stream spawned from the seed, so that a seed keeps its league
    rng_games = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
    n = spec.n_seasons
    starts = np.array([dt.date(spec.first_season + k, 11, 1).toordinal() for k in range(n)])
    seasons = np.repeat(spec.first_season + np.arange(n), len(rounds))
    days = (starts[:, None] + 2 * rounds).reshape(-1)

    # one draw for all games, then one box pair per distinct score
    game_mus = np.tile(mus, (n, 1))
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
    a, b = np.tile(a, n), np.tile(b, n)
    order = np.lexsort((b, a, days, seasons))
    names = np.array(team_names(spec.n_teams), dtype=object)
    return SeasonStore.from_columns(
        seasons[order].tolist(), days[order], names[a[order]], names[b[order]],
        np.tile(loc, n)[order], table[which.reshape(-1)[order]])


def league_truth(spec: SyntheticLeagueSpec) -> LeagueTruth:
    """The ground truth of :func:`generate_league`: each distinct matchup of
    the season table, summed once, graded over every scheduled game.  Noise
    over :data:`MAX_NOISE` is refused."""
    if spec.noise > MAX_NOISE:
        raise SyntheticError(f"noise {spec.noise} is over {MAX_NOISE}, the most noise "
                             f"the accuracy bound is summed for")
    _, a, b, loc, mus = _season(spec)
    keys, first, matchup = np.unique(np.column_stack([a, b, loc]), axis=0,
                                     return_index=True, return_inverse=True)
    probs = _win_probs(mus[first], spec.noise)
    per_game = np.maximum(probs, 1.0 - probs)[matchup.reshape(-1)]
    names = team_names(spec.n_teams)
    return LeagueTruth(
        strengths=spec.resolved_strengths(), noise=spec.noise,
        home_advantage=spec.home_advantage,
        bayes_accuracy=float(np.mean(np.tile(per_game, spec.n_seasons))),
        matchup_probs={(names[i], names[j], LOCATIONS[code]): p
                       for (i, j, code), p in zip(keys.tolist(), probs.tolist())})


# ---------------------------------------------------------------------------
# Calibration

def _favorite_prob(abs_mu_gap: float, noise: float) -> float:
    # ties go to the favorite, hence the +0.5 continuity correction on the
    # integer point margin
    margin_sd = noise * POINTS_PER_EFF * math.sqrt(2.0)
    return NormalDist().cdf((abs_mu_gap * POINTS_PER_EFF + 0.5) / margin_sd)


def calibrate_noise(spec: SyntheticLeagueSpec, target: float) -> float:
    """Noise level at which the schedule's best achievable accuracy ~= target.

    Uses the Gaussian form of the integer point margin, which leaves out
    the 4-point floor; the exact bound recorded at generation time lands
    within a few thousandths.
    """
    if not 0.5 < target < 1.0:
        raise SyntheticError(f"target accuracy must be in (0.5, 1), got {target}")
    *_, mus = _season(spec)
    gaps = np.abs(mus[:, 0] - mus[:, 1])
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
