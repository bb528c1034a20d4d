"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list means the output
passed.  The checks compare against numbers the benchmark computes on its
own (game counts and winners read from the CSV with the ``csv`` module, the
99% half-width, running per-team means) or against properties the method
must have (a round robin hands out exactly n(n-1)/2 wins).  They take plain
values, so ``selftest.py`` can feed each one a deliberately wrong output.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import random
from collections import defaultdict
from statistics import NormalDist

# Every model is expected to reach at least this accuracy.  A measured
# accuracy carries sampling noise, so it is held to the floor the way it is
# held to the bound: it fails only when it lies below the floor by more
# than the 99% half-width.  On the grid's 480 test games that half-width is
# 0.058, and a raw-feature cell of seed 16 reads 0.594.
ACCURACY_FLOOR = 0.60
Z99 = NormalDist().inv_cdf(0.995)


def halfwidth99(p: float, n: int) -> float:
    """Half-width of the 99% normal-approximation interval of a proportion."""
    return Z99 * math.sqrt(p * (1.0 - p) / n)


def accuracy_range(bound: float, n: int) -> tuple[float, float]:
    """[floor - half-width, bound + half-width] for an accuracy over ``n`` games."""
    return (ACCURACY_FLOOR - halfwidth99(ACCURACY_FLOOR, n),
            bound + halfwidth99(bound, n))


def read_csv(path) -> list[dict[str, str]]:
    """Rows of a CSV file the program wrote, skipping its ``#`` comment lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        text = "".join(ln for ln in fh if not ln.startswith("#"))
    return list(csv.DictReader(io.StringIO(text)))


def csv_winner(row: dict[str, str]) -> str:
    return row["team_a"] if int(row["ptsa"]) > int(row["ptsb"]) else row["team_b"]


# ---------------------------------------------------------------------------
# grid

def check_ceiling(report, *, n_test: int, n_cells: int, target: float,
                  target_tol: float = 0.012) -> list[str]:
    """The accuracy-ceiling grid against its known bound."""
    problems = []
    if report.n_test != n_test:
        problems.append(f"n_test {report.n_test} != {n_test}")
    if len(report.cells) != n_cells:
        problems.append(f"{len(report.cells)} cells, expected {n_cells}")
    if abs(report.bound - target) > target_tol:
        problems.append(f"bound {report.bound} not within {target_tol} of {target}")
    hw = halfwidth99(report.bound, n_test)
    if not math.isclose(report.halfwidth, hw, rel_tol=1e-12):
        problems.append(f"halfwidth {report.halfwidth} != {hw}")
    lo, hi = accuracy_range(report.bound, n_test)
    for c in report.cells:
        if not lo <= c.accuracy <= hi:
            problems.append(f"cell {c.kind}/{c.scheme} accuracy {c.accuracy} outside "
                            f"[{lo}, {hi}]")
        if c.n_test != n_test:
            problems.append(f"cell {c.kind}/{c.scheme} n_test {c.n_test} != {n_test}")
    return problems


# ---------------------------------------------------------------------------
# d1

def check_store(parsed, generated) -> list[str]:
    """The parsed game log equals the generated league record for record."""
    got, want = parsed.all_games(), generated.all_games()
    if len(got) != len(want):
        return [f"parsed {len(got)} games, generated {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return [f"game {i} differs: parsed {g}, generated {w}"]
    return []


def check_eval_report(report, rows: list[dict[str, str]], bound: float) -> list[str]:
    """A walk-forward report against the CSV it was computed from."""
    season = report.test_season
    n_test = sum(int(r["season"]) == season for r in rows)
    n_train = sum(int(r["season"]) < season for r in rows)
    problems = []
    if report.n_test != n_test:
        problems.append(f"n_test {report.n_test} != {n_test} CSV rows of {season}")
    if report.n_train != n_train:
        problems.append(f"n_train {report.n_train} != {n_train} CSV rows before {season}")
    winners = {(r["date"], r["team_a"], r["team_b"]): csv_winner(r)
               for r in rows if int(r["season"]) == season}
    for p in report.predictions:
        winner = winners.get((p.date.isoformat(), p.team_first, p.team_second))
        want = "win" if winner == p.team_first else "loss"
        if winner is None or p.actual.value != want:
            problems.append(f"{p.date} {p.team_first}-{p.team_second}: actual "
                            f"{p.actual.value}, CSV winner {winner}")
            break
    conf = report.confusion
    if sum(conf.values()) != report.n_test:
        problems.append(f"confusion {conf} does not sum to n_test {report.n_test}")
    diagonal = conf["pred_win_actual_win"] + conf["pred_loss_actual_loss"]
    if report.accuracy != diagonal / report.n_test:
        problems.append(f"accuracy {report.accuracy} != {diagonal}/{report.n_test}")
    lo, hi = accuracy_range(bound, report.n_test)
    if not lo <= report.accuracy <= hi:
        problems.append(f"{report.kind} accuracy {report.accuracy} outside "
                        f"[{lo}, {hi}]")
    return problems


def check_pre_match(runs, rows: list[dict[str, str]], sample: int,
                    seed: int) -> list[str]:
    """Sampled pre-match games_played, ppg and pag against the CSV.

    For each sampled game, both teams' snapshots must reflect exactly the
    team's earlier games of that season: their count and mean points for
    and against.  Sums of integer points are exact in floating point, so
    the comparison is exact.
    """
    history = defaultdict(list)      # (season, team) -> [(date, for, against)]
    for r in rows:
        key = int(r["season"])
        pa, pb = int(r["ptsa"]), int(r["ptsb"])
        history[(key, r["team_a"])].append((r["date"], pa, pb))
        history[(key, r["team_b"])].append((r["date"], pb, pa))
    picked = random.Random(seed).sample(rows, min(sample, len(rows)))
    for r in picked:
        season = int(r["season"])
        snaps = runs[season].pre_match[(dt.date.fromisoformat(r["date"]),
                                        r["team_a"], r["team_b"])]
        for team, snap in zip((r["team_a"], r["team_b"]), snaps):
            earlier = [h for h in history[(season, team)] if h[0] < r["date"]]
            n = len(earlier)
            ppg = sum(h[1] for h in earlier) / n if n else 0.0
            pag = sum(h[2] for h in earlier) / n if n else 0.0
            got = (snap.games_played, snap.raw_means.ppg, snap.raw_means.pag)
            if got != (n, ppg, pag):
                return [f"{team} before {r['date']}: snapshot (games, ppg, pag) "
                        f"{got}, CSV {(n, ppg, pag)}"]
    return []


# ---------------------------------------------------------------------------
# query

def check_ranking(rows: list[dict[str, str]], teams: set[str]) -> list[str]:
    """A round-robin ranking: every team once, ranks 1..n, n(n-1)/2 wins."""
    n = len(teams)
    problems = []
    listed = [r["team"] for r in rows]
    if sorted(listed) != sorted(teams):
        missing = sorted(teams - set(listed))
        problems.append(f"ranking lists {len(listed)} teams for {n}"
                        + (f", missing {missing[:3]}" if missing else ""))
    if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("ranks are not 1..n in order")
    total = sum(float(r["score"]) for r in rows)
    if total != n * (n - 1) / 2:
        problems.append(f"scores sum to {total}, not {n * (n - 1) / 2}")
    return problems


def check_order(rows: list[dict[str, str]], ratings: dict[str, float]) -> list[str]:
    """Ranking order equals the order by rating (ties by team id)."""
    want = sorted(ratings, key=lambda t: (-ratings[t], t))
    got = [r["team"] for r in rows]
    return [] if got == want else [f"order {got[:3]}... != rating order {want[:3]}..."]


def check_rpi(rows: list[dict[str, str]], teams: set[str]) -> list[str]:
    problems = []
    if sorted(r["team"] for r in rows) != sorted(teams):
        problems.append(f"RPI lists {len(rows)} teams for {len(teams)}")
    bad = [r for r in rows if not 0.0 <= float(r["score"]) <= 1.0]
    if bad:
        problems.append(f"RPI {bad[0]['score']} of {bad[0]['team']} outside [0, 1]")
    return problems


def check_prediction(row: dict[str, str]) -> list[str]:
    """Probability in [0, 1]; the winner follows it and the home tie rule."""
    p = float(row["p_first_wins"])
    if not 0.0 <= p <= 1.0:
        return [f"probability {p} outside [0, 1]"]
    first_wins = p > 0.5 or (p == 0.5 and row["location"] in ("home", "neutral"))
    want = row["team_first"] if first_wins else row["team_second"]
    if row["predicted_winner"] != want:
        return [f"{row['predictor']}: winner {row['predicted_winner']} at "
                f"p={p} ({row['location']}), expected {want}"]
    return []
