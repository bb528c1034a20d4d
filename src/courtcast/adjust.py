"""Opponent adjustment and seasonal averaging, computed day by day.

A team's per-game efficiency says little on its own: 110 points per 100
possessions against a porous defense is less impressive than the same line
against a stingy one.  Each game value is therefore rescaled by

    adjusted = raw * national_average / opponent_counter_statistic

where the opponent's counter-statistic is their *averaged adjusted* value on
the other side of the ball (their adjusted defensive efficiency when
adjusting an offensive efficiency, and vice versa; same pattern factor by
factor).  The league definition is circular, so it is resolved forward in
time: every game on date d is adjusted against opponent averages and
national averages as of the *morning* of d — only games strictly before d
contribute.  That makes the whole series deterministic and leakage-free.

Two seasonal averaging schemes fold the per-game adjusted values into a
running team average:

  * ``alpha``    — exponential update, post = (1-a)*pre + a*game (a = 0.2);
  * ``explicit`` — weighted mean where the pre-season seed has weight 1 and
                   the i-th game of the season (1-based) has weight i+1, so
                   recent games count more and the seed fades.

The seed is either the team's end-of-prior-season averages (``prior_season``)
or the national average on the morning of the team's first game
(``from_scratch``).  Scheme and seeding are arguments of :func:`season_runs`,
the engine's one entry point, which yields one :class:`SeasonRun` per season
as each season ends; :func:`run_seasons` collects them in a dict.  Between
seasons the engine keeps only the teams' final state values that seed the
next, so a caller that drops each run once it has read it holds one run
while the next is built.

The engine works on arrays.  It reads a season's games from the store's
columns (:class:`~courtcast.ingest.SeasonColumns`), and their per-game stats
come from one vectorised pass over the box column
(:func:`courtcast.stats.game_arrays`).  Team state is one
``(teams, 18)`` float64 row per team — the 18 averaged values, or under
``explicit`` their weighted numerators with a ``den`` vector beside them —
plus integer games-played and box-sum arrays.  Each day records both teams'
morning team rows (``TEAM_ROW``: the 18 values, then the 12 raw means) of
every game into a ``(games, 2, 30)`` pre-match array, adjusts all of the
day's game values at once, and scatters the folds back.  League means are
rows too: each morning's six values (oe, de, then the four factors) go into
one ``(days + 1, 6)`` array, closed by the end of the season, and a
from_scratch seed is such a row spread over the 18 state values.  A run
keeps every team's final row beside the pre-match array (``final_rows``,
``final_played``), and its season's columns; ``TeamSnapshot`` views of them
are built on read, for the benchmark and the tests.

Floating-point note: every accumulator folds values in one canonical order
(games by (date, team_a, team_b), side a before side b).  Elementwise numpy
operations round exactly as the scalar expressions do, a team that plays
twice on one date folds its games one after the other, and the league sums
are one sequential ``np.add.accumulate``, never a pairwise sum.  A run is
therefore exactly reproducible operation by operation, not merely to
rounding error.
"""

from __future__ import annotations

import bisect
import datetime as dt
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter

import numpy as np

from courtcast.ingest import CourtcastError, SeasonColumns, SeasonStore, named
from courtcast.stats import DEFAULT_FT_WEIGHT, FourFactors, GameArrays, game_arrays


class AdjustmentError(CourtcastError):
    """Raised when an adjustment divisor or multiplier is not positive, or a
    game's per-game statistics divide by zero."""


class AveragingScheme(str, Enum):
    ALPHA = "alpha"
    EXPLICIT = "explicit"


class Seeding(str, Enum):
    PRIOR_SEASON = "prior_season"
    FROM_SCRATCH = "from_scratch"


@dataclass(frozen=True)
class AdjustConfig:
    """Knobs for the adjustment pipeline.

    ``navg_source`` picks what the daily national average is computed from:
    ``"raw"`` (season-to-date per-game values; the default) or ``"adjusted"``
    (the mean of current team averaged adjusted values).  The choice is
    exposed because either reading is defensible; downstream defaults never
    rely on ``"adjusted"``.
    """

    ft_weight: float = DEFAULT_FT_WEIGHT
    alpha: float = 0.2
    navg_source: str = "raw"

    def __post_init__(self):
        # ft_weight is the share of free-throw attempts that end a possession
        for name in ("ft_weight", "alpha"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise AdjustmentError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.navg_source not in ("raw", "adjusted"):
            raise AdjustmentError(f"navg_source must be 'raw' or 'adjusted', got {self.navg_source!r}")


# League means are a six-value row: oe, de, then the four factors in
# FourFactors order.  This one is used only before any game has been played
# (no data to average yet): round league-typical values, identical for every
# team, so they cancel in any within-day comparison.
NEUTRAL_BASELINE = (100.0, 100.0, 0.5, 0.2, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class RawMeans:
    """Season-to-date per-game means of counting stats plus points for/against.

    All zeros before a team's first game (there is nothing to average);
    callers that feed these to a model must tolerate the cold start.
    """

    fgm: float = 0.0
    fga: float = 0.0
    fgm3: float = 0.0
    ft: float = 0.0
    fta: float = 0.0
    or_: float = 0.0
    dr: float = 0.0
    to: float = 0.0
    stl: float = 0.0
    blk: float = 0.0
    ppg: float = 0.0
    pag: float = 0.0

    @staticmethod
    def field_names() -> tuple[str, ...]:
        return ("fgm", "fga", "fgm3", "ft", "fta", "or_", "dr", "to", "stl", "blk", "ppg", "pag")


@dataclass(frozen=True)
class TeamSnapshot:
    """One team's averaged profile as of a date (morning-of; pre-game).

    Built from games strictly before ``date`` only.  ``games_played`` counts
    this season's games folded in so far; at 0 every averaged field equals
    the seed.
    """

    team: str
    season: int
    date: dt.date
    games_played: int
    adj_oe: float
    adj_de: float
    adj_off_factors: FourFactors
    adj_def_factors: FourFactors
    avg_off_factors: FourFactors
    avg_def_factors: FourFactors
    raw_means: RawMeans


# The 18 seasonally-averaged values a team carries, in state-row order.  The
# first ten are opponent-adjusted; ``_COUNTER`` names, for each of them, the
# opponent's value it is divided by: adj_oe by the opponent's adj_de and vice
# versa, each offensive factor by the opponent's defensive one and vice versa.
_FACTORS = FourFactors.field_names()
_BLOCKS = ("adj_off", "adj_def", "avg_off", "avg_def")
STATE_KEYS = ("adj_oe", "adj_de") + tuple(f"{b}_{f}" for b in _BLOCKS for f in _FACTORS)
_N_ADJ = 10
_COUNTER = np.array([1, 0, 6, 7, 8, 9, 2, 3, 4, 5])
# For each state value, the league mean it is seeded from: a from_scratch
# seed is ``league_row[_SEED]``, each factor's mean serving all four blocks.
_SEED = np.array([0, 1] + [2, 3, 4, 5] * len(_BLOCKS))

# A team row: the 18 state values, then the 12 raw means.  Every array of
# team profiles (a run's pre-match rows, a feature encoder's input) uses it.
TEAM_ROW = STATE_KEYS + RawMeans.field_names()

# The TeamSnapshot attribute that holds each TEAM_ROW value, in order.
_ROW_VALUES = attrgetter("adj_oe", "adj_de",
                         *(f"{b}_factors.{f}" for b in _BLOCKS for f in _FACTORS),
                         *(f"raw_means.{f}" for f in RawMeans.field_names()))


def team_row(snap: TeamSnapshot) -> np.ndarray:
    """A snapshot's values in ``TEAM_ROW`` order."""
    return np.array(_ROW_VALUES(snap))


def _team_rows(values: np.ndarray, played: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """State ``values`` beside the raw means of the box ``sums`` over ``played``
    games; the means are zeros for a team yet to play."""
    n = played[..., None].astype(np.float64)
    means = np.divide(sums, n, out=np.zeros(sums.shape), where=n > 0)
    return np.concatenate([values, means], axis=-1)


def _running_sums(rows: np.ndarray) -> np.ndarray:
    """Running column sums of ``rows``: entry k adds the first k rows one after
    another, starting at 0.0 (a sequential fold, never a pairwise sum)."""
    return np.add.accumulate(np.concatenate([np.zeros((1,) + rows.shape[1:]), rows]))


def _adjusted_means(values: np.ndarray) -> np.ndarray:
    """Mean averaged adjusted values over the rows of the teams that have
    played (the neutral baseline if none has).

    The rows are in sorted team order; each team adds its offensive factor
    and then its defensive one to the same factor sum.
    """
    if len(values) == 0:
        return np.array(NEUTRAL_BASELINE)
    n = float(len(values))
    return np.concatenate([_running_sums(values[:, :2])[-1] / n,
                           _running_sums(values[:, 2:_N_ADJ].reshape(-1, 4))[-1] / (2.0 * n)])


class _PreMatch(Mapping):
    """Game key ``(date, team_a, team_b)`` -> both teams' morning snapshots.

    A read-only view of a run's pre-match array that builds the snapshots
    on every read.  It is made anew for each ``SeasonRun.pre_match``: a run
    holding its view would be a cycle, left for the cyclic collector.
    """

    def __init__(self, run: SeasonRun):
        self._run = run

    def __getitem__(self, key) -> tuple[TeamSnapshot, TeamSnapshot]:
        return self._run._pre_snapshots(self._run._index[key])

    def __iter__(self):
        return iter(self._run._index)

    def __len__(self) -> int:
        return len(self._run._index)


class _Series(Sequence):
    """One team's pre-match snapshots in chronological order, built when read."""

    def __init__(self, run: SeasonRun, rows: list[tuple[int, int]]):
        self._run = run
        self._rows = rows

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        game, side = self._rows[i]
        return self._run._pre_snapshots(game)[side]

    def __len__(self) -> int:
        return len(self._rows)


@dataclass(eq=False)
class SeasonRun:
    """One season's day-by-day results as arrays (its settings stay with the caller).

    Teams are indexed in sorted order (``teams``), and ``columns`` are the
    store's columns of the season, its games in canonical order.  ``days``
    are the season's game dates; ``league_means[k]`` is the six-value league row
    (oe, de, then the four factors) on the morning of ``days[k]``, and its
    last row the league after the final day.  ``pre_rows[i, side]`` is the
    morning team row (``TEAM_ROW`` order) of game ``i``'s team_a (side 0)
    or team_b (side 1); ``_pre_played`` holds the games played beside it.
    ``final_rows`` and ``final_played`` hold the same for each team after
    its last game, and ``_prior`` the prior-season final state values used
    as seeds.  ``rows_at`` gives any teams' rows on the morning of a date.

    The program reads those rows and columns.  The benchmark and the tests
    read snapshot views of them, built when read: ``pre_match`` maps each
    game's key to both teams' snapshots, built on every read; ``final`` holds
    each team's snapshot after its last game, built on first read; ``series``
    gives each team's pre-match snapshots in date order.
    """

    season: int
    days: list[dt.date] = field(repr=False)
    league_means: np.ndarray = field(repr=False)
    columns: SeasonColumns = field(repr=False)
    pre_rows: np.ndarray = field(repr=False)
    teams: list[str] = field(repr=False)
    _pre_played: np.ndarray = field(repr=False)
    final_rows: np.ndarray = field(repr=False)
    final_played: np.ndarray = field(repr=False)
    _prior: dict[str, np.ndarray] = field(repr=False)

    def _snapshot(self, team: str, date: dt.date, n: int, v: list[float]) -> TeamSnapshot:
        """The snapshot of team row ``v`` after ``n`` games."""
        return TeamSnapshot(
            team, self.season, date, n, v[0], v[1],
            FourFactors(*v[2:6]), FourFactors(*v[6:10]),
            FourFactors(*v[10:14]), FourFactors(*v[14:18]), RawMeans(*v[18:]))

    def _pre_snapshots(self, i: int) -> tuple[TeamSnapshot, TeamSnapshot]:
        """Both teams' morning snapshots for game ``i``."""
        date, team_a, team_b = self.columns.key(i)
        v, n = self.pre_rows[i].tolist(), self._pre_played[i].tolist()
        return (self._snapshot(team_a, date, n[0], v[0]),
                self._snapshot(team_b, date, n[1], v[1]))

    @cached_property
    def final(self) -> dict[str, TeamSnapshot]:
        """Each team's snapshot after its last game, dated that game's date."""
        return {team: self._snapshot(team, self._by_team[team][0][-1],
                                     int(self.final_played[t]), self.final_rows[t].tolist())
                for t, team in enumerate(self.teams)}

    @property
    def pre_match(self) -> Mapping[tuple[dt.date, str, str], tuple[TeamSnapshot, TeamSnapshot]]:
        return _PreMatch(self)

    @cached_property
    def _index(self) -> dict[tuple[dt.date, str, str], int]:
        """Each game's key -> its row in ``columns``."""
        return {key: i for i, key in enumerate(self.columns.keys())}

    @cached_property
    def _by_team(self) -> dict[str, tuple[list[dt.date], list[tuple[int, int]]]]:
        """Each team's game dates and (game, side) rows, in date order."""
        out: dict[str, tuple[list[dt.date], list[tuple[int, int]]]] = {
            team: ([], []) for team in self.teams}
        for i, (date, *teams) in enumerate(self.columns.keys()):
            for side, team in enumerate(teams):
                out[team][0].append(date)
                out[team][1].append((i, side))
        return out

    @property
    def series(self) -> dict[str, Sequence[TeamSnapshot]]:
        return {team: _Series(self, rows) for team, (_, rows) in self._by_team.items()}

    def rows_at(self, teams: Sequence[str], date: dt.date) -> np.ndarray:
        """``(len(teams), 30)`` team rows on the morning of ``date`` (games
        strictly before it), one per team in ``teams`` order.

        A team's row is its morning row of its first game on or after
        ``date``, or its final row if it has none.  A team with no games
        this season is at its seed; under from_scratch seeding (or with no
        prior season) that is the national average as of the morning.
        """
        out = np.zeros((len(teams), len(TEAM_ROW)))
        for k, team in enumerate(teams):
            dates, rows = self._by_team.get(team, ([], []))
            at = bisect.bisect_left(dates, date)
            if at < len(rows):
                out[k] = self.pre_rows[rows[at]]
            elif rows:
                out[k] = self.final_rows[self.teams.index(team)]
            else:
                out[k, :len(STATE_KEYS)] = self._prior.get(
                    team, self.league_means[bisect.bisect_left(self.days, date)][_SEED])
        return out


def checked_game_arrays(columns: SeasonColumns,
                        ft_weight: float = DEFAULT_FT_WEIGHT) -> GameArrays:
    """:func:`game_arrays` of a season's box column, rejecting the first
    game whose statistics divide by zero."""
    stats = game_arrays(columns.box, ft_weight)
    finite = np.isfinite(np.concatenate([stats.oe[..., None], stats.de[..., None],
                                         stats.off_factors], axis=-1))
    broken = ~finite.all(axis=(1, 2))
    if broken.any():
        date, team_a, team_b = columns.key(int(np.argmax(broken)))
        raise AdjustmentError(
            f"{team_a} vs {team_b} on {date}: a per-game statistic divides by "
            "zero (no possessions, no field-goal attempts or no rebounds)")
    return stats


def _run_season(columns: SeasonColumns, scheme: AveragingScheme, config: AdjustConfig,
                prior_rows: dict[str, np.ndarray]) -> SeasonRun:
    """One season's day-by-day pass; ``prior_rows`` holds the final state
    values of the prior season's teams, which seed them."""
    ids = np.union1d(columns.team_a, columns.team_b)     # sorted, as the names are
    teams = [columns.names[t] for t in ids.tolist()]
    n, n_teams = len(columns), len(teams)
    sides = np.searchsorted(ids, np.stack([columns.team_a, columns.team_b], axis=1))

    stats = checked_game_arrays(columns, config.ft_weight)
    raw = np.concatenate([stats.oe[..., None], stats.de[..., None],
                          stats.off_factors, stats.def_factors,
                          stats.off_factors, stats.def_factors], axis=-1)
    box = stats.box
    box_sums = np.concatenate([box[..., :10], box[..., 10:], box[:, ::-1, 10:]], axis=-1)

    # Team state: the averaged values (alpha) or their weighted numerators
    # over ``den`` (explicit), games played, and integer box sums.  Teams
    # with a prior-season final start from it; the rest are seeded on the
    # morning of their first game.
    seeded = np.array([t in prior_rows for t in teams], dtype=bool)
    acc = np.array([prior_rows.get(t, np.zeros(len(STATE_KEYS))) for t in teams]
                   ).reshape(n_teams, len(STATE_KEYS))
    den = np.ones(n_teams) if scheme is AveragingScheme.EXPLICIT else None
    played = np.zeros(n_teams, dtype=np.int64)
    sums = np.zeros((n_teams, box_sums.shape[-1]), dtype=np.int64)

    def values(rows: np.ndarray) -> np.ndarray:
        return acc[rows] if den is None else acc[rows] / den[rows][..., None]

    def fold(rows: np.ndarray, game_values: np.ndarray, box_rows: np.ndarray) -> None:
        played[rows] += 1
        if den is None:
            acc[rows] = (1.0 - config.alpha) * acc[rows] + config.alpha * game_values
        else:
            w = (played[rows] + 1).astype(np.float64)    # game i (1-based) weighs i+1
            acc[rows] += w[:, None] * game_values
            den[rows] += w
        sums[rows] += box_rows

    if config.navg_source == "raw":
        # Running league sums of every side's raw oe, de and offensive
        # factors, in canonical order: the morning of a day whose first game
        # is s sees the first 2*s sides.
        side_rows = np.concatenate([stats.oe[..., None], stats.de[..., None],
                                    stats.off_factors], axis=-1).reshape(2 * n, 6)
        league = _running_sums(side_rows)

    def morning(s: int) -> np.ndarray:
        """The league row on the morning that has seen the first ``s`` games."""
        if config.navg_source == "adjusted":
            return _adjusted_means(values(np.flatnonzero(played)))
        return league[2 * s] / float(2 * s) if s else np.array(NEUTRAL_BASELINE)

    pre = np.empty((n, 2, len(TEAM_ROW)))
    pre_played = np.empty((n, 2), dtype=np.int64)
    starts = np.flatnonzero(np.diff(columns.dates, prepend=-1)).tolist()
    league_means = np.empty((len(starts) + 1, len(NEUTRAL_BASELINE)))
    for k, (s, e) in enumerate(zip(starts, starts[1:] + [n])):
        league_means[k] = morning(s)
        navg_row = league_means[k][_SEED]
        scale = navg_row[:_N_ADJ]
        if (scale <= 0.0).any():
            raise AdjustmentError(
                f"national average must be positive, got {scale[scale <= 0.0][0]}")

        # Morning: seed teams playing their first game, record both teams'
        # rows, and adjust the day's games against them.
        day = sides[s:e]
        fresh = day[~seeded[day]]
        acc[fresh] = navg_row
        seeded[fresh] = True
        rows = values(day)
        pre[s:e] = _team_rows(rows, played[day], sums[day])
        pre_played[s:e] = played[day]
        counter = rows[:, ::-1][..., _COUNTER]
        bad = np.argwhere(counter <= 0.0)
        if len(bad):
            i, side, k = bad[0]
            date, *pair = columns.key(s + i)
            team, opp = pair[side], pair[1 - side]
            raise AdjustmentError(
                f"opponent counter-statistic must be positive, got {counter[i, side, k]} "
                f"({opp}'s {STATE_KEYS[_COUNTER[k]]} against {team} on {date})")
        game_values = raw[s:e].copy()
        game_values[..., :_N_ADJ] = raw[s:e, :, :_N_ADJ] * scale / counter

        # Evening: fold the games into team state, side a before side b.  A
        # team with two games on this date folds them one after the other.
        flat = day.ravel()
        game_values = game_values.reshape(len(flat), -1)
        box_rows = box_sums[s:e].reshape(len(flat), -1)
        if np.unique(flat).size == flat.size:
            fold(flat, game_values, box_rows)
        else:
            for j in range(flat.size):
                fold(flat[j:j + 1], game_values[j:j + 1], box_rows[j:j + 1])

    league_means[-1] = morning(n)
    return SeasonRun(
        season=columns.season,
        days=[dt.date.fromordinal(o) for o in columns.dates[starts].tolist()],
        league_means=league_means, columns=columns, pre_rows=pre, teams=teams,
        _pre_played=pre_played, final_played=played,
        final_rows=_team_rows(values(np.arange(n_teams)), played, sums), _prior=prior_rows)


def season_runs(store: SeasonStore,
                scheme: AveragingScheme = AveragingScheme.EXPLICIT,
                seeding: Seeding = Seeding.PRIOR_SEASON,
                config: AdjustConfig = AdjustConfig(),
                through: int | None = None) -> Iterator[SeasonRun]:
    """Run every stored season in order, through ``through``, yielding each
    run as its season ends: under prior_season seeding each seeds the next,
    and a team new to the league starts from scratch.  Between seasons only
    the final state values that seed the next season are kept.  An unknown
    ``scheme`` or ``seeding`` value raises :class:`AdjustmentError`."""
    (scheme,) = named([scheme], AveragingScheme, "averaging", AdjustmentError)
    (seeding,) = named([seeding], Seeding, "seeding", AdjustmentError)
    seeds: dict[str, np.ndarray] = {}
    for season in store.seasons:
        if through is not None and season > through:
            return
        run = _run_season(store.columns(season), scheme, config, seeds)
        if seeding is Seeding.PRIOR_SEASON:
            seeds = {t: run.final_rows[i, :len(STATE_KEYS)] for i, t in enumerate(run.teams)}
        yield run
        del run     # the next season is built without this one's arrays


def run_seasons(store: SeasonStore,
                scheme: AveragingScheme = AveragingScheme.EXPLICIT,
                seeding: Seeding = Seeding.PRIOR_SEASON,
                config: AdjustConfig = AdjustConfig(),
                through: int | None = None) -> dict[int, SeasonRun]:
    """Every run of :func:`season_runs`, by season."""
    return {run.season: run for run in season_runs(store, scheme, seeding, config, through)}
