"""Naive reference implementations of the adjustment pipeline, naive Bayes and RPI.

Deliberately structured unlike the production code: no incremental state.
Every quantity is recomputed from scratch by rescanning history — league
means by summing all earlier games, team averages by refolding the full
per-game value list through the scalar formulas below (``adjust_value``,
``alpha_update``, ``explicit_weighted_average``), which the engine never
calls: it computes the same expressions on arrays.  Matching the
production run *exactly* (bitwise) is the strongest check that the
incremental accumulators are right; both sides fold values in the same
chronological order, so float results must coincide operation for operation.
The no-leakage tests cut a store at a date with :func:`truncated`.

The same goes for the references at the end: naive Bayes scored one row at
a time, RPI recomputed from scratch for each team, and decision trees grown
by recursion, one node and one feature column at a time.  A threshold there
falls back to the value below the cut when the midpoint rounds onto the value
above it, as in production; without that, such a split sends every row left
and the recursion never ends.  Then comes the MLP trained on four separate
arrays (``W1``, ``b1``, ``w2`` and the scalar ``b2``), each with its own
velocity: the flat parameter vector must reproduce it weight for weight.
Then comes the game-log row parser: it decodes the whole log first,
then checks one ``csv.DictReader`` row at a time, and the streaming parser
must build the same store or raise the same error.  Then comes the noise
calibration that scores every game at every bisection step, for all 200
steps; scoring each distinct gap once and stopping at the bisection's fixed
point must return the same noise exactly.  Beside it sits the inverse of the
margin model, the home offset that gives a target home-win rate between
equal teams: no program code needs it, and the tests use it to set up
leagues.  Last comes the league generator that draws, scores and boxes one
game at a time: the box table and the single draw for all games must give
the same store, bit for bit.  Beside it, a matchup's win probability by
Monte Carlo over its games, which the exact bound must match within
sampling error.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from courtcast.adjust import (
    NEUTRAL_BASELINE,
    AdjustConfig,
    AdjustmentError,
    AveragingScheme,
    Seeding,
    TeamSnapshot,
)
from courtcast.baselines import BaselineError
from courtcast.ingest import (
    HEADER,
    BoxScore,
    GameLogError,
    GameRecord,
    Location,
    SeasonStore,
    _BOX_COLUMNS,
    _csv_errors,
    _parse_int,
)
from courtcast.models.mlp import _inputs
from courtcast.models.naive_bayes import KdeParams
from courtcast.models.tree import (
    LEAF,
    SITE_FEATURE,
    Tree,
    _Candidate,
    _entropy,
    _select_split,
)
from courtcast.stats import FourFactors, game_stats
from courtcast.synthetic import (
    POINTS_PER_EFF,
    SyntheticError,
    SyntheticLeagueSpec,
    _boxes,
    _favorite_prob,
    _schedule,
    expected_efficiency,
    team_names,
)

_FACTORS = FourFactors.field_names()
_KEYS = (["adj_oe", "adj_de"]
         + [f"adj_off_{f}" for f in _FACTORS] + [f"adj_def_{f}" for f in _FACTORS]
         + [f"avg_off_{f}" for f in _FACTORS] + [f"avg_def_{f}" for f in _FACTORS])
_COUNTS = ("fgm", "fga", "fgm3", "ft", "fta", "or_", "dr", "to", "stl", "blk")


def _seed_dict(means: tuple[float, ...]) -> dict[str, float]:
    oe, de, *factors = means
    seed = {"adj_oe": oe, "adj_de": de}
    for f, v in zip(_FACTORS, factors):
        for prefix in ("adj_off", "adj_def", "avg_off", "avg_def"):
            seed[f"{prefix}_{f}"] = v
    return seed


def naive_league_means(games, before: dt.date, ft_weight: float) -> tuple[float, ...]:
    """Full rescan of every game strictly before a date, in store order.

    The means come as a six-value tuple: oe, de, then the four factors.
    """
    count = 0
    oe = de = 0.0
    fac = {f: 0.0 for f in _FACTORS}
    for g in games:
        if g.date >= before:
            continue
        for stats in game_stats(g, ft_weight):
            count += 1
            oe += stats.oe
            de += stats.de
            for f in _FACTORS:
                fac[f] += getattr(stats.off_factors, f)
    if count == 0:
        return NEUTRAL_BASELINE
    n = float(count)
    return (oe / n, de / n) + tuple(fac[f] / n for f in _FACTORS)


def adjust_value(raw: float, national_avg: float, opp_adjusted_counter: float) -> float:
    """Rescale a raw per-game value by league context and opponent quality."""
    if national_avg <= 0.0:
        raise AdjustmentError(f"national average must be positive, got {national_avg}")
    if opp_adjusted_counter <= 0.0:
        raise AdjustmentError(
            f"opponent counter-statistic must be positive, got {opp_adjusted_counter}")
    return raw * national_avg / opp_adjusted_counter


def alpha_update(pre: float, game_value: float, alpha: float) -> float:
    """Exponentially-weighted update of a running average."""
    if not 0.0 <= alpha <= 1.0:
        raise AdjustmentError(f"alpha must be in [0, 1], got {alpha}")
    return (1.0 - alpha) * pre + alpha * game_value


def explicit_weighted_average(prior_season_value: float, game_values: list[float]) -> float:
    """Weighted mean where the seed has weight 1 and game i (1-based) weight i+1."""
    num = prior_season_value
    den = 1.0
    for i, v in enumerate(game_values):
        w = float(i + 2)
        num += w * v
        den += w
    return num / den


def _refold(seed: float, values: list[float], scheme: AveragingScheme, alpha: float) -> float:
    if scheme is AveragingScheme.ALPHA:
        acc = seed
        for v in values:
            acc = alpha_update(acc, v, alpha)
        return acc
    return explicit_weighted_average(seed, values)


def naive_season(store: SeasonStore, season: int, scheme: AveragingScheme,
                 seeding: Seeding, config: AdjustConfig | None = None,
                 prior_finals: dict[str, dict[str, float]] | None = None) -> dict:
    """Reference day-by-day pass; returns team states as dicts.

    Each team state dict maps every averaged key to its value plus
    'games_played' and a 'raw_means' tuple (10 counting means, ppg, pag).
    The result holds 'pre_match' (game key -> both states), 'final' (team ->
    state), 'post' (team -> [(date, state after that date's games)]),
    'seeds' (team -> the seed it started the season from) and
    'prior_finals' (the finals that seeded this season, if any).

    Under ``navg_source="adjusted"`` the national average on a morning is
    the mean of the averaged adjusted values of the teams that have played,
    each summed in sorted team order, every team adding its offensive and
    then its defensive factor to one factor sum.
    """
    config = config or AdjustConfig()
    if prior_finals is None:
        prior_finals = {}
        if seeding is Seeding.PRIOR_SEASON:
            for prev in [s for s in store.seasons if s < season]:
                prior_finals = naive_season(store, prev, scheme, seeding,
                                            config, prior_finals)["final"]

    games = store.games(season)
    seeds: dict[str, dict[str, float]] = {}
    values: dict[str, list[dict[str, float]]] = {}
    history: dict[str, list] = {}

    def team_state(team: str, date: dt.date) -> dict:
        vals = values[team]
        state = {key: _refold(seeds[team][key], [v[key] for v in vals],
                              scheme, config.alpha)
                 for key in _KEYS}
        state["games_played"] = len(vals)
        if vals:
            n = float(len(vals))
            sums = {c: 0.0 for c in _COUNTS}
            pts_for = pts_against = 0.0
            for stats in history[team]:
                for c in _COUNTS:
                    sums[c] += getattr(stats.box, c)
                pts_for += stats.box.points
                pts_against += stats.opp_box.points
            state["raw_means"] = tuple(sums[c] / n for c in _COUNTS) + (pts_for / n, pts_against / n)
        else:
            state["raw_means"] = (0.0,) * 12
        return state

    def adjusted_means(date: dt.date) -> tuple[float, ...]:
        played = sorted(t for t in seeds if values[t])
        if not played:
            return NEUTRAL_BASELINE
        n = float(len(played))
        oe = de = 0.0
        fac = {f: 0.0 for f in _FACTORS}
        for team in played:
            state = team_state(team, date)
            oe += state["adj_oe"]
            de += state["adj_de"]
            for f in _FACTORS:
                fac[f] += state[f"adj_off_{f}"]
                fac[f] += state[f"adj_def_{f}"]
        return (oe / n, de / n) + tuple(fac[f] / (2.0 * n) for f in _FACTORS)

    pre_match: dict[tuple, tuple[dict, dict]] = {}
    post: dict[str, list[tuple[dt.date, dict]]] = {}
    dates = sorted({g.date for g in games})
    for d in dates:
        day = [g for g in games if g.date == d]
        if config.navg_source == "adjusted":
            navg = adjusted_means(d)
        else:
            navg = naive_league_means(games, d, config.ft_weight)
        navg_oe, navg_de, *navg_factors = navg
        pending: list[tuple[str, dict, object]] = []
        for g in day:
            for team in (g.team_a, g.team_b):
                if team not in seeds:
                    if seeding is Seeding.PRIOR_SEASON and team in prior_finals:
                        seeds[team] = dict(prior_finals[team])
                    else:
                        seeds[team] = _seed_dict(navg)
                    values[team] = []
                    history[team] = []
            state_a = team_state(g.team_a, d)
            state_b = team_state(g.team_b, d)
            pre_match[(d, g.team_a, g.team_b)] = (state_a, state_b)
            stats_a, stats_b = game_stats(g, config.ft_weight)
            for stats, opp in ((stats_a, state_b), (stats_b, state_a)):
                gv = {
                    "adj_oe": adjust_value(stats.oe, navg_oe, opp["adj_de"]),
                    "adj_de": adjust_value(stats.de, navg_de, opp["adj_oe"]),
                }
                for f, n_f in zip(_FACTORS, navg_factors):
                    gv[f"adj_off_{f}"] = adjust_value(
                        getattr(stats.off_factors, f), n_f, opp[f"adj_def_{f}"])
                    gv[f"adj_def_{f}"] = adjust_value(
                        getattr(stats.def_factors, f), n_f, opp[f"adj_off_{f}"])
                    gv[f"avg_off_{f}"] = getattr(stats.off_factors, f)
                    gv[f"avg_def_{f}"] = getattr(stats.def_factors, f)
                pending.append((stats.team, gv, stats))
        for team, gv, stats in pending:
            values[team].append(gv)
            history[team].append(stats)
        for team in dict.fromkeys(team for team, _, _ in pending):
            post.setdefault(team, []).append((d, team_state(team, d)))

    final = {team: team_state(team, dt.date(season + 1, 1, 1)) for team in seeds}
    return {"pre_match": pre_match, "final": final, "post": post,
            "seeds": seeds, "prior_finals": prior_finals}


def linear_scan_at(ref: dict, games, team: str, date: dt.date, ft_weight: float) -> dict:
    """A team's state on the morning of ``date`` from a :func:`naive_season` result.

    Scans the team's post-game states for the last one dated before
    ``date``; with none, the team is at its seed: the one it started the
    season from, else its prior-season final, else the national average
    (``navg_source="raw"``) as of that morning.
    """
    played = [state for d, state in ref["post"].get(team, []) if d < date]
    if played:
        return played[-1]
    seed = (ref["seeds"].get(team) or ref["prior_finals"].get(team)
            or _seed_dict(naive_league_means(games, date, ft_weight)))
    return {**{key: seed[key] for key in _KEYS},
            "games_played": 0, "raw_means": (0.0,) * 12}


def state_row(state: dict) -> list[float]:
    """A :func:`naive_season` state's values in team-row order: the 18
    averaged values, then the 12 raw means."""
    return [state[key] for key in _KEYS] + list(state["raw_means"])


def truncated(store: SeasonStore, season: int, last_date: dt.date) -> SeasonStore:
    """``store`` without the games of ``season`` after ``last_date``; every
    season keeps its roster.  The no-leakage tests run the engine on it."""
    kept = [g for g in store.all_games() if g.season != season or g.date <= last_date]
    return SeasonStore(kept, rosters={s: set(store.teams(s)) for s in store.seasons})


def snapshot_as_dict(snap: TeamSnapshot) -> dict:
    """Flatten a production snapshot into the oracle's comparison shape."""
    state: dict = {"adj_oe": snap.adj_oe, "adj_de": snap.adj_de}
    for f in _FACTORS:
        state[f"adj_off_{f}"] = getattr(snap.adj_off_factors, f)
        state[f"adj_def_{f}"] = getattr(snap.adj_def_factors, f)
        state[f"avg_off_{f}"] = getattr(snap.avg_off_factors, f)
        state[f"avg_def_{f}"] = getattr(snap.avg_def_factors, f)
    state["games_played"] = snap.games_played
    state["raw_means"] = tuple(getattr(snap.raw_means, c) for c in _COUNTS) + (
        snap.raw_means.ppg, snap.raw_means.pag)
    return state


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def naive_log_kde(x: np.ndarray, pts: np.ndarray, h: np.ndarray) -> float:
    """Sum over features of log mean_i N(x_f; pts[i,f], h_f), for one row."""
    z = (x[None, :] - pts) / h[None, :]                      # (n, d)
    log_kernel = -0.5 * z * z - np.log(h)[None, :] - _LOG_SQRT_2PI
    # logsumexp over training points, per feature
    m = np.max(log_kernel, axis=0)
    log_density = m + np.log(np.sum(np.exp(log_kernel - m[None, :]), axis=0))
    log_density -= math.log(pts.shape[0])
    return float(np.sum(log_density))


def naive_bayes_p_win(p: KdeParams, X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Naive Bayes posterior p(win), one row at a time over all training points."""
    out = np.empty(len(X))
    for row, (x, site_code) in enumerate(zip(X, site)):
        log_post = []
        for cls in (0, 1):
            ll = p.log_priors[cls] + naive_log_kde(x, p.points[cls], p.bandwidths[cls])
            counts = p.site_counts[cls]
            ll += math.log((counts[site_code] + 1.0) / (counts.sum() + 3.0))
            log_post.append(ll)
        m = max(log_post)
        w = [math.exp(v - m) for v in log_post]
        out[row] = w[1] / (w[0] + w[1])
    return out


def naive_rpi(team: str, games) -> float:
    """One team's RPI, rebuilding every record and opponent percentage."""
    rec: dict[str, list[tuple[str, bool]]] = {}
    for g in games:
        winner = g.winner()
        rec.setdefault(g.team_a, []).append((g.team_b, winner == g.team_a))
        rec.setdefault(g.team_b, []).append((g.team_a, winner == g.team_b))
    own = rec.get(team)
    if not own:
        raise BaselineError(f"{team} played no games")

    def wp(t: str, exclude: str | None = None) -> float:
        kept = [(opp, won) for opp, won in rec.get(t, []) if opp != exclude]
        if not kept:
            return 0.5
        return sum(won for _, won in kept) / len(kept)

    def owp(t: str) -> float:
        opponents = [opp for opp, _ in rec[t]]
        return sum(wp(opp, exclude=t) for opp in opponents) / len(opponents)

    oo_wp = sum(owp(opp) for opp, _ in own) / len(own)
    return 0.25 * wp(team) + 0.50 * owp(team) + 0.25 * oo_wp


def _best_numeric_split(x: np.ndarray, y: np.ndarray, feature: int,
                        min_branch: int) -> _Candidate | None:
    """Best-gain threshold for one numeric column, scored by gain ratio."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = len(ys)
    # candidate cut positions: between consecutive distinct values, leaving
    # at least min_branch rows on each side
    diff = np.nonzero(xs[1:] != xs[:-1])[0]
    diff = diff[(diff + 1 >= min_branch) & (n - diff - 1 >= min_branch)]
    if diff.size == 0:
        return None
    total_wins = float(np.sum(ys))
    parent = _entropy(total_wins, n)
    cum_wins = np.cumsum(ys)

    left_n = (diff + 1).astype(float)
    left_wins = cum_wins[diff].astype(float)
    right_n = n - left_n
    right_wins = total_wins - left_wins

    def ent(w, m):
        out = np.zeros_like(m)
        ok = (m > 0) & (w > 0) & (w < m)
        p = np.divide(w, m, out=np.zeros_like(m), where=m > 0)
        pc = 1.0 - p
        out[ok] = -(p[ok] * np.log2(p[ok]) + pc[ok] * np.log2(pc[ok]))
        return out

    child = (left_n * ent(left_wins, left_n) + right_n * ent(right_wins, right_n)) / n
    gain = parent - child
    best = int(np.argmax(gain))     # first max -> lowest threshold on ties
    if gain[best] <= 1e-12:
        return None
    frac = left_n[best] / n
    split_info = -(frac * math.log2(frac) + (1 - frac) * math.log2(1 - frac))
    if split_info <= 0:
        return None
    thresh = (xs[diff[best]] + xs[diff[best] + 1]) / 2.0
    if not thresh < xs[diff[best] + 1]:     # the midpoint rounded onto the value above
        thresh = xs[diff[best]]
    return _Candidate(gain=float(gain[best]), ratio=float(gain[best]) / split_info,
                      feature=feature, threshold=float(thresh))


def _site_split(site: np.ndarray, y: np.ndarray, min_branch: int) -> _Candidate | None:
    """The three-way site split, one mask per site code."""
    n = len(y)
    parent = _entropy(float(np.sum(y)), n)
    child = 0.0
    split_info = 0.0
    n_sized = 0  # branches large enough to count toward admissibility
    for code in (0, 1, 2):
        mask = site == code
        m = int(np.sum(mask))
        if m == 0:
            continue
        if m >= min_branch:
            n_sized += 1
        child += m * _entropy(float(np.sum(y[mask])), m) / n
        frac = m / n
        split_info -= frac * math.log2(frac)
    gain = parent - child
    if n_sized < 2 or gain <= 1e-12 or split_info <= 0:
        return None
    return _Candidate(gain=gain, ratio=gain / split_info,
                      feature=SITE_FEATURE, threshold=None)


def grow_tree(X: np.ndarray, site: np.ndarray, y: np.ndarray,
              min_rows: int, rng: np.random.Generator | None = None,
              n_candidates: int | None = None,
              min_branch: int | None = None) -> Tree:
    """Recursive grower; rng/n_candidates enable forest-style feature sampling.

    ``min_branch`` is the per-branch admissibility minimum (defaults to
    ``max(2, min_rows)``); pass 1 to grow unrestricted forest-style trees.
    """
    d = X.shape[1]
    if min_branch is None:
        min_branch = max(2, min_rows)
    nodes: list[tuple[int, float, list[int], int, int]] = []

    def add(feature: int, threshold: float, n: int, wins: int) -> int:
        nodes.append((feature, threshold, [0, 0, 0], n, wins))
        return len(nodes) - 1

    def build(idx: np.ndarray) -> int:
        n = len(idx)
        wins = int(np.sum(y[idx]))
        if wins == 0 or wins == n or n < max(2, min_rows):
            return add(LEAF, 0.0, n, wins)

        features = list(range(d)) + [SITE_FEATURE]
        if n_candidates is not None and n_candidates < len(features):
            pick = rng.choice(len(features), size=n_candidates, replace=False)
            features = [features[i] for i in sorted(pick)]

        cands = []
        for f in features:
            cand = (_site_split(site[idx], y[idx], min_branch) if f == SITE_FEATURE
                    else _best_numeric_split(X[idx, f], y[idx], f, min_branch))
            if cand is not None:
                cands.append(cand)
        best = _select_split(cands)
        if best is None:
            return add(LEAF, 0.0, n, wins)

        if best.feature == SITE_FEATURE:
            node = add(SITE_FEATURE, 0.0, n, wins)
            for code in (0, 1, 2):
                sub = idx[site[idx] == code]
                # an empty branch falls back to the parent's stats
                nodes[node][2][code] = add(LEAF, 0.0, n, wins) if len(sub) == 0 else build(sub)
            return node

        node = add(best.feature, best.threshold, n, wins)
        mask = X[idx, best.feature] <= best.threshold
        nodes[node][2][:2] = build(idx[mask]), build(idx[~mask])
        return node

    build(np.arange(len(y)))
    feature, threshold, children, n, wins = zip(*nodes)
    return Tree(feature=np.array(feature), threshold=np.array(threshold, dtype=float),
                children=np.array(children), n=np.array(n), wins=np.array(wins))


def grow_forest(X: np.ndarray, site: np.ndarray, y: np.ndarray, n_trees: int,
                n_candidates: int, seed: int) -> list[Tree]:
    """A random forest one tree at a time, each on its own bootstrap sample."""
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        rows = rng.integers(0, len(y), size=len(y))
        trees.append(grow_tree(X[rows], site[rows], y[rows], min_rows=0, rng=rng,
                               n_candidates=n_candidates, min_branch=1))
    return trees


@dataclass
class FourArrayMlp:
    mins: np.ndarray
    ranges: np.ndarray
    W1: np.ndarray           # (hidden, d_in)
    b1: np.ndarray           # (hidden,)
    w2: np.ndarray           # (hidden,)
    b2: float


def _mlp_sigmoid(z):
    with np.errstate(over="ignore"):  # exp(-z) = inf saturates the output to 0.0
        return 1.0 / (1.0 + np.exp(-z))


def _mlp_forward(p: FourArrayMlp, x: np.ndarray) -> tuple[np.ndarray, float]:
    hidden = _mlp_sigmoid(p.W1 @ x + p.b1)
    out = float(_mlp_sigmoid(np.dot(p.w2, hidden) + p.b2))
    return hidden, out


def _mlp_gradients(p: FourArrayMlp, x: np.ndarray, target: float):
    """Backprop for E = 0.5 * (out - target)^2 at a single instance."""
    hidden, out = _mlp_forward(p, x)
    delta_out = (out - target) * out * (1.0 - out)
    grad_w2 = delta_out * hidden
    grad_b2 = delta_out
    delta_hidden = delta_out * p.w2 * hidden * (1.0 - hidden)
    grad_W1 = np.outer(delta_hidden, x)
    grad_b1 = delta_hidden
    return grad_W1, grad_b1, grad_w2, grad_b2


def mlp_fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> FourArrayMlp:
    """The MLP's online backpropagation with one velocity per weight array."""
    mins = np.min(X, axis=0)
    ranges = np.max(X, axis=0) - mins
    Xin = _inputs(X, site, mins, ranges)
    n, d_in = Xin.shape
    n_attr = X.shape[1] + 1
    hidden = hp["hidden"] if hp["hidden"] is not None else math.ceil((n_attr + 2) / 2)

    rng = np.random.default_rng(seed)
    p = FourArrayMlp(
        mins=mins, ranges=ranges,
        W1=rng.uniform(-0.5, 0.5, size=(hidden, d_in)),
        b1=rng.uniform(-0.5, 0.5, size=hidden),
        w2=rng.uniform(-0.5, 0.5, size=hidden),
        b2=float(rng.uniform(-0.5, 0.5)),
    )

    lr, mom = hp["learning_rate"], hp["momentum"]
    vel_W1 = np.zeros_like(p.W1)
    vel_b1 = np.zeros_like(p.b1)
    vel_w2 = np.zeros_like(p.w2)
    vel_b2 = 0.0
    targets = y.astype(float)
    for _ in range(hp["epochs"]):
        for i in range(n):
            g_W1, g_b1, g_w2, g_b2 = _mlp_gradients(p, Xin[i], targets[i])
            vel_W1 = mom * vel_W1 - lr * g_W1
            vel_b1 = mom * vel_b1 - lr * g_b1
            vel_w2 = mom * vel_w2 - lr * g_w2
            vel_b2 = mom * vel_b2 - lr * g_b2
            p.W1 += vel_W1
            p.b1 += vel_b1
            p.w2 += vel_w2
            p.b2 += vel_b2
    return p


def mlp_encode(p: FourArrayMlp) -> dict:
    """The model-file value of a four-array MLP, key for key."""
    return {
        "mins": p.mins.tolist(), "ranges": p.ranges.tolist(),
        "W1": p.W1.tolist(), "b1": p.b1.tolist(),
        "w2": p.w2.tolist(), "b2": p.b2,
    }


def oriented(date: dt.date, season: int, first: str, second: str, location: Location,
             box_first: BoxScore, box_second: BoxScore) -> GameRecord:
    """A record from either team order, canonicalized as the parser does."""
    if first > second:
        first, second = second, first
        box_first, box_second = box_second, box_first
        location = location.swapped()
    return GameRecord(date, season, first, second, location, box_first, box_second)


def _parse_row(row: dict[str, str], path: str, line: int) -> GameRecord:
    try:
        date = dt.date.fromisoformat(row["date"])
    except ValueError:
        raise GameLogError(f"bad ISO date {row['date']!r}",
                           path=path, line=line, field="date") from None
    season = _parse_int(row["season"], path=path, line=line, field="season")
    first, second = row["team_a"].strip(), row["team_b"].strip()
    if not first or not second:
        raise GameLogError("empty team id", path=path, line=line, field="team_a")
    try:
        location = Location(row["location"])
    except ValueError:
        raise GameLogError(
            f"location must be one of home_a/home_b/neutral, got {row['location']!r}",
            path=path, line=line, field="location") from None

    boxes: list[BoxScore] = []
    try:  # the file and line, for the bare errors of validate, the tie check and oriented
        for columns in _BOX_COLUMNS:
            boxes.append(BoxScore._make(
                [_parse_int(row[col], path=path, line=line, field=col) for col in columns]))
            boxes[-1].validate()
        if boxes[0].points == boxes[1].points:
            raise GameLogError(
                f"tied score {boxes[0].points}-{boxes[1].points}; games cannot end tied",
                field="ptsb")
        return oriented(date, season, first, second, location, *boxes)
    except GameLogError as e:
        raise GameLogError(e.detail, path=path, line=line, field=e.field) from None


def parse_rows(path: Path, rosters: dict[int, set[str]] | None) -> SeasonStore:
    """:func:`parse_game_log` one validated row at a time: raises the error
    that names the file, the physical line and the field of the first fault."""
    games: list[GameRecord] = []
    seen: set[tuple[dt.date, str, str]] = set()
    dropped = 0
    with path.open(newline="", encoding="utf-8") as fh, _csv_errors(path):
        data = [(n, ln) for n, ln in enumerate(fh, start=1)
                if not ln.startswith("#")]
    reader = csv.DictReader(ln for _, ln in data)
    # the physical line csv last read; blank lines count, as csv skips them
    with _csv_errors(path, lambda: data[reader.reader.line_num - 1][0]):
        if reader.fieldnames is None:
            raise GameLogError("empty file, header required", path=str(path), line=1)
        got = [c.strip() for c in reader.fieldnames]
        if got != HEADER:
            raise GameLogError(
                f"bad header: expected {','.join(HEADER)}", path=str(path), line=data[0][0])
        reader.fieldnames = HEADER  # key cells by position, not by padded names
        for row in reader:
            line = data[reader.line_num - 1][0]
            if any(v is None for v in row.values()) or None in row:
                raise GameLogError(f"expected {len(HEADER)} columns",
                                   path=str(path), line=line)
            record = _parse_row(row, str(path), line)
            key = (record.date, record.team_a, record.team_b)
            if key in seen:
                raise GameLogError(
                    f"duplicate game {record.team_a} vs {record.team_b} on {record.date}",
                    path=str(path), line=line, field="team_a")
            seen.add(key)
            if rosters is not None:
                pool = rosters.get(record.season, set())
                if record.team_a not in pool or record.team_b not in pool:
                    dropped += 1
                    continue
            games.append(record)
    return SeasonStore(games, rosters=rosters, off_roster_dropped=dropped)


def calibrate_noise_per_game(spec: SyntheticLeagueSpec, target: float) -> float:
    """``synthetic.calibrate_noise`` taking each game's gap one game at a time
    and scoring every game at every bisection step."""
    if not 0.5 < target < 1.0:
        raise SyntheticError(f"target accuracy must be in (0.5, 1), got {target}")
    strengths = spec.resolved_strengths()
    rounds = _schedule(spec)
    names = team_names(spec.n_teams)
    gaps = []
    for games in rounds:
        for i, j, home_is_i in games:
            off_i, def_i = strengths[names[i]]
            off_j, def_j = strengths[names[j]]
            mu_i = expected_efficiency(off_i, def_j, spec.home_advantage if home_is_i else 0.0)
            mu_j = expected_efficiency(off_j, def_i, 0.0 if home_is_i else spec.home_advantage)
            gaps.append(abs(mu_i - mu_j))
    gaps = np.asarray(gaps)

    def mean_acc(noise: float) -> float:
        return float(np.mean([_favorite_prob(g, noise) for g in gaps]))

    lo, hi = 1e-6, 1.0
    if mean_acc(lo) < target:
        raise SyntheticError("strength gaps too small to reach the target accuracy")
    while mean_acc(hi) > target:
        hi *= 2.0
        if hi > 1e6:
            raise SyntheticError("target accuracy unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_acc(mid) > target:
            lo = mid
        else:
            hi = mid
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


def _points_from_effs_scalar(eff_a: float, eff_b: float, mu_a: float, mu_b: float):
    """Integer points of one game, or of one matchup's simulations; ties go
    to the higher expectation (the first side when expectations are equal)."""
    pa = np.maximum(np.rint(np.asarray(eff_a) * POINTS_PER_EFF), 4.0)
    pb = np.maximum(np.rint(np.asarray(eff_b) * POINTS_PER_EFF), 4.0)
    tie = pa == pb
    if mu_a >= mu_b:
        pa = pa + tie
    else:
        pb = pb + tie
    return pa, pb


def simulated_win_prob(mu_a: float, mu_b: float, noise: float,
                       rng: np.random.Generator, sims: int) -> float:
    """P(side a wins) by Monte Carlo over ``sims`` games of the outcome
    function (one game without draws when ``noise`` is 0)."""
    if noise == 0.0:
        pa, pb = _points_from_effs_scalar(mu_a, mu_b, mu_a, mu_b)
        return 1.0 if pa > pb else 0.0
    draws = rng.standard_normal((2, sims))
    pa, pb = _points_from_effs_scalar(mu_a + noise * draws[0], mu_b + noise * draws[1],
                                      mu_a, mu_b)
    return float(np.mean(pa > pb))


def league_games_per_game(spec: SyntheticLeagueSpec) -> SeasonStore:
    """``synthetic.league_games`` one game at a time: a ``standard_normal(2)``
    draw and a fresh pair of boxes per game, from the seed's first child
    stream."""
    names = team_names(spec.n_teams)
    strengths = spec.resolved_strengths()
    rounds = _schedule(spec)
    rng_games = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])

    records = []
    for season_idx in range(spec.n_seasons):
        season = spec.first_season + season_idx
        start = dt.date(season, 11, 1)
        for r, games in enumerate(rounds):
            date = start + dt.timedelta(days=2 * r)
            for i, j, home_is_i in games:
                first, second = names[i], names[j]
                loc = Location.HOME_A if home_is_i else Location.HOME_B
                if first > second:
                    first, second = second, first
                    loc = loc.swapped()
                off_a, def_a = strengths[first]
                off_b, def_b = strengths[second]
                mu_a = expected_efficiency(
                    off_a, def_b, spec.home_advantage if loc is Location.HOME_A else 0.0)
                mu_b = expected_efficiency(
                    off_b, def_a, spec.home_advantage if loc is Location.HOME_B else 0.0)
                if spec.noise == 0.0:
                    eff_a, eff_b = mu_a, mu_b
                else:
                    z = rng_games.standard_normal(2)
                    eff_a, eff_b = mu_a + spec.noise * z[0], mu_b + spec.noise * z[1]
                pa, pb = _points_from_effs_scalar(eff_a, eff_b, mu_a, mu_b)
                box_a, box_b = _boxes(int(pa), int(pb))
                records.append(GameRecord(date, season, first, second, loc, box_a, box_b))
    return SeasonStore(records)
