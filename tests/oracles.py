"""Naive reference implementation of the adjustment pipeline.

Deliberately structured unlike the production code: no incremental state.
Every quantity is recomputed from scratch by rescanning history — league
means by summing all earlier games, team averages by refolding the full
per-game value list through the public averaging functions.  Matching the
production run *exactly* (bitwise) is the strongest check that the
incremental accumulators are right; both sides fold values in the same
chronological order, so float results must coincide operation for operation.
"""

from __future__ import annotations

import datetime as dt

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
from courtcast.ingest import SeasonStore
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
