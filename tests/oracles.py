"""Naive reference implementations of the adjustment pipeline, naive Bayes and RPI.

Deliberately structured unlike the production code: no incremental state.
Every quantity is recomputed from scratch by rescanning history — league
means by summing all earlier games, team averages by refolding the full
per-game value list through the public averaging functions.  Matching the
production run *exactly* (bitwise) is the strongest check that the
incremental accumulators are right; both sides fold values in the same
chronological order, so float results must coincide operation for operation.

The same goes for the references at the end: naive Bayes scored one row at
a time, RPI recomputed from scratch for each team, and decision trees grown
by recursion, one node and one feature column at a time.  A threshold there
falls back to the value below the cut when the midpoint rounds onto the value
above it, as in production; without that, such a split sends every row left
and the recursion never ends.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

from courtcast.adjust import (
    NEUTRAL_BASELINE,
    AdjustConfig,
    AveragingScheme,
    LeagueMeans,
    Seeding,
    TeamSnapshot,
    adjust_value,
    alpha_update,
    explicit_weighted_average,
)
from courtcast.baselines import BaselineError
from courtcast.ingest import SeasonStore
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

_FACTORS = FourFactors.field_names()
_KEYS = (["adj_oe", "adj_de"]
         + [f"adj_off_{f}" for f in _FACTORS] + [f"adj_def_{f}" for f in _FACTORS]
         + [f"avg_off_{f}" for f in _FACTORS] + [f"avg_def_{f}" for f in _FACTORS])
_COUNTS = ("fgm", "fga", "fgm3", "ft", "fta", "or_", "dr", "to", "stl", "blk")


def _seed_dict(means: LeagueMeans) -> dict[str, float]:
    seed = {"adj_oe": means.oe, "adj_de": means.de}
    for f in _FACTORS:
        v = getattr(means.factors, f)
        for prefix in ("adj_off", "adj_def", "avg_off", "avg_def"):
            seed[f"{prefix}_{f}"] = v
    return seed


def naive_league_means(games, before: dt.date, ft_weight: float) -> LeagueMeans:
    """Full rescan of every game strictly before a date, in store order."""
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
    return LeagueMeans(oe=oe / n, de=de / n,
                       factors=FourFactors(*(fac[f] / n for f in _FACTORS)))


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

    def adjusted_means(date: dt.date) -> LeagueMeans:
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
        return LeagueMeans(oe=oe / n, de=de / n,
                           factors=FourFactors(*(fac[f] / (2.0 * n) for f in _FACTORS)))

    pre_match: dict[tuple, tuple[dict, dict]] = {}
    post: dict[str, list[tuple[dt.date, dict]]] = {}
    dates = sorted({g.date for g in games})
    for d in dates:
        day = [g for g in games if g.date == d]
        if config.navg_source == "adjusted":
            navg = adjusted_means(d)
        else:
            navg = naive_league_means(games, d, config.ft_weight)
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
                    "adj_oe": adjust_value(stats.oe, navg.oe, opp["adj_de"]),
                    "adj_de": adjust_value(stats.de, navg.de, opp["adj_oe"]),
                }
                for f in _FACTORS:
                    n_f = getattr(navg.factors, f)
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
