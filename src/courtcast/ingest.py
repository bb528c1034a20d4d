"""Game-log ingestion: parsing, validation, and the columnar game store.

The data layer works from a flat CSV game log, one row per completed game
with both teams' box scores on the row:

    date,season,team_a,team_b,location,
    fgma,fgaa,fgm3a,fta,ftaa,ora,dra,toa,stla,blka,ptsa,
    fgmb,fgab,fgm3b,ftb,ftab,orb,drb,tob,stlb,blkb,ptsb

``date`` is ISO-8601 (YYYY-MM-DD), ``season`` an integer year label, and
``location`` one of ``home_a``, ``home_b``, ``neutral``.  Games are stored
in canonical orientation: the lexicographically smaller team id is always
``team_a`` (box scores and home/away flags are swapped on ingestion when a
row arrives the other way around).

An optional roster file (CSV ``season,team``) restricts each season to a
known pool of teams; games involving an off-roster side are dropped so that
exhibition-style matches cannot distort the averages downstream.

A :class:`SeasonStore` keeps each season's games as columns
(:class:`SeasonColumns`): date ordinals, both teams as indices into one
sorted tuple of team ids, location codes, and one ``(games, 22)`` int64 box
array, side a's ``BOX_FIELDS`` then side b's.  A :class:`GameRecord` is a
view of one row, built only for the benchmark and the tests.

:func:`parse_game_log` reads the file once, as a stream: ``csv.reader``
splits each line, and one pass over each row converts its cells to Python
ints and validates them, field by field in column order.  The first fault
raises the error naming the field, to which the loop adds the file and the
physical line.  Before any error is raised the rest of the file is read, so
an undecodable byte anywhere outranks every other fault.  A valid row's
values go straight into the columns; no per-game object is built.
"""

from __future__ import annotations

import csv
import datetime as dt
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class CourtcastError(ValueError):
    """Base of every courtcast error: input the program cannot use, which
    the CLI reports as a data error (exit 2)."""


class GameLogError(CourtcastError):
    """Raised for malformed or inconsistent game-log input.

    Carries the offending file, line number, and field so callers can point
    at the exact cell that failed validation; ``detail`` is the bare message.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, field: str | None = None):
        self.path = path
        self.line = line
        self.field = field
        self.detail = message
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        if field is not None:
            message = f"field '{field}': {message}"
        super().__init__(prefix + message)


class Location(str, Enum):
    """Game site, relative to the stored (canonical) team order."""

    HOME_A = "home_a"
    HOME_B = "home_b"
    NEUTRAL = "neutral"

    def swapped(self) -> "Location":
        if self is Location.HOME_A:
            return Location.HOME_B
        if self is Location.HOME_B:
            return Location.HOME_A
        return Location.NEUTRAL


#: Every location in code order: a store's location column indexes this.
LOCATIONS = tuple(Location)
_LOCATION_CODES = {loc.value: code for code, loc in enumerate(LOCATIONS)}
_SWAPPED = tuple(LOCATIONS.index(loc.swapped()) for loc in LOCATIONS)

# Column order for one side's box score in the CSV schema.
BOX_FIELDS = ("fgm", "fga", "fgm3", "ft", "fta", "or_", "dr", "to", "stl", "blk", "points")
_BOX_SUFFIX = {"or_": "or", "points": "pts"}
MAX_COUNT = 10**6  # no box count comes near; larger ones would overflow int64 sums
_POINTS = BOX_FIELDS.index("points")


# Each side's box-score column names, in BOX_FIELDS order: side a, then b.
_BOX_COLUMNS = tuple([f"{_BOX_SUFFIX.get(f, f)}{side}" for f in BOX_FIELDS] for side in "ab")
HEADER = ["date", "season", "team_a", "team_b", "location"] + _BOX_COLUMNS[0] + _BOX_COLUMNS[1]


class BoxScore(NamedTuple):
    """One team's raw counting statistics for one game, in ``BOX_FIELDS`` order."""

    fgm: int
    fga: int
    fgm3: int
    ft: int
    fta: int
    or_: int
    dr: int
    to: int
    stl: int
    blk: int
    points: int

    def validate(self) -> None:
        """Check internal consistency; raise :class:`GameLogError` if violated."""
        _check_box(self)


def _check_box(counts: Sequence[int]) -> None:
    """Check one side's counts, in ``BOX_FIELDS`` order; the first
    inconsistency raises a :class:`GameLogError` that names its field."""
    if min(counts) < 0 or max(counts) > MAX_COUNT:
        for name, count in zip(BOX_FIELDS, counts):
            if not 0 <= count <= MAX_COUNT:
                raise GameLogError(f"count {count} outside [0, {MAX_COUNT}]", field=name)
    fgm, fga, fgm3, ft, fta, *_, points = counts
    if fgm > fga:
        raise GameLogError(f"fgm={fgm} exceeds fga={fga}", field="fgm")
    if fgm3 > fgm:
        raise GameLogError(f"fgm3={fgm3} exceeds fgm={fgm}", field="fgm3")
    if ft > fta:
        raise GameLogError(f"ft={ft} exceeds fta={fta}", field="ft")
    computed = 2 * (fgm - fgm3) + 3 * fgm3 + ft
    if computed != points:
        raise GameLogError(
            f"stated points {points} do not match the box "
            f"(2*(fgm-fgm3) + 3*fgm3 + ft = {computed})",
            field="points",
        )


class _GameFields(NamedTuple):
    """The fields of :class:`GameRecord`, which checks them on construction."""

    date: dt.date
    season: int
    team_a: str
    team_b: str
    location: Location
    box_a: BoxScore
    box_b: BoxScore


class GameRecord(_GameFields):
    """A completed match in canonical orientation (team_a < team_b)."""

    __slots__ = ()

    def __new__(cls, date: dt.date, season: int, team_a: str, team_b: str,
                location: Location, box_a: BoxScore, box_b: BoxScore) -> "GameRecord":
        if team_a == team_b:
            raise GameLogError(f"team plays itself: {team_a}", field="team_b")
        if team_a > team_b:
            raise GameLogError(
                f"not canonically oriented: {team_a!r} > {team_b!r}", field="team_a")
        return super().__new__(cls, date, season, team_a, team_b, location, box_a, box_b)

    def winner(self) -> str:
        return self.team_a if self.box_a.points > self.box_b.points else self.team_b


@dataclass(frozen=True, eq=False)
class SeasonColumns:
    """One season's games in canonical order, one array per column.

    ``dates`` holds date ordinals; ``team_a`` and ``team_b`` index
    ``names``, the store's sorted team ids; ``location`` indexes
    :data:`LOCATIONS`; and row ``i`` of ``box`` is game ``i``'s side a
    counts, then its side b counts, each in ``BOX_FIELDS`` order.  Two
    column sets are equal when they hold the same games.
    """

    season: int
    names: tuple[str, ...]
    dates: np.ndarray       # (games,) int64
    team_a: np.ndarray      # (games,) intp
    team_b: np.ndarray      # (games,) intp
    location: np.ndarray    # (games,) int8
    box: np.ndarray         # (games, 22) int64

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeasonColumns):
            return NotImplemented
        return (self.season == other.season and len(self) == len(other)
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in ("dates", "location", "box"))
                and self._teams() == other._teams())

    def _teams(self) -> list[tuple[str, str]]:
        """Each game's ``(team_a, team_b)`` ids."""
        return [(self.names[a], self.names[b])
                for a, b in zip(self.team_a.tolist(), self.team_b.tolist())]

    def keys(self) -> list[tuple[dt.date, str, str]]:
        """Each game's ``(date, team_a, team_b)``, one date object per day."""
        ordinals = self.dates.tolist()
        days = {o: dt.date.fromordinal(o) for o in set(ordinals)}
        return [(days[o], a, b) for o, (a, b) in zip(ordinals, self._teams())]

    def key(self, i: int) -> tuple[dt.date, str, str]:
        """Game ``i``'s ``(date, team_a, team_b)``."""
        return (dt.date.fromordinal(int(self.dates[i])),
                self.names[self.team_a[i]], self.names[self.team_b[i]])

    def first_won(self) -> np.ndarray:
        """``(games,)`` bools: whether team_a outscored team_b."""
        return self.box[:, _POINTS] > self.box[:, len(BOX_FIELDS) + _POINTS]

    def records(self) -> tuple[GameRecord, ...]:
        """The games as records of Python values, built on each call."""
        n = len(BOX_FIELDS)
        return tuple(GameRecord(date, self.season, a, b, LOCATIONS[loc],
                                BoxScore._make(box[:n]), BoxScore._make(box[n:]))
                     for (date, a, b), loc, box in zip(
                         self.keys(), self.location.tolist(), self.box.tolist()))


class SeasonStore:
    """Immutable-after-construction store of games by season, as columns.

    Games within a season are sorted by date, with ties ordered by the
    (team_a, team_b) pair so day-by-day processing is deterministic.
    ``columns`` gives a season's :class:`SeasonColumns`; ``games`` and
    ``all_games``, for the benchmark and the tests, build records on each call.
    ``off_roster_dropped`` counts the games a roster filter left out.  A
    store is built from records, or column by column (:meth:`from_columns`).
    """

    def __init__(self, games: Iterable[GameRecord],
                 rosters: dict[int, set[str]] | None = None,
                 off_roster_dropped: int = 0):
        games = list(games)
        self._fill([g.season for g in games], [g.date.toordinal() for g in games],
                   [g.team_a for g in games], [g.team_b for g in games],
                   [_LOCATION_CODES[g.location.value] for g in games],
                   [g.box_a + g.box_b for g in games], rosters, off_roster_dropped)

    @classmethod
    def from_columns(cls, seasons: Sequence[int], dates, team_a: Sequence[str],
                     team_b: Sequence[str], location, box,
                     rosters: dict[int, set[str]] | None = None,
                     off_roster_dropped: int = 0) -> "SeasonStore":
        """A store of canonically oriented games, given in any order, one
        sequence per column: each game's season, date ordinal, team ids
        (``team_a < team_b``), location code and 22 box counts."""
        store = cls.__new__(cls)
        store._fill(seasons, dates, team_a, team_b, location, box,
                    rosters, off_roster_dropped)
        return store

    def _fill(self, seasons, dates, team_a, team_b, location, box, rosters, dropped) -> None:
        self.off_roster_dropped = dropped
        names = tuple(sorted(set(team_a).union(team_b)))
        index = {team: i for i, team in enumerate(names)}
        labels = sorted(set(seasons))   # Python ints: a season label has no size limit
        code = {season: k for k, season in enumerate(labels)}
        columns = [np.array([code[s] for s in seasons], dtype=np.intp),
                   np.asarray(dates, dtype=np.int64),
                   np.array([index[t] for t in team_a], dtype=np.intp),
                   np.array([index[t] for t in team_b], dtype=np.intp),
                   np.asarray(location, dtype=np.int8),
                   np.asarray(box, dtype=np.int64).reshape(-1, 2 * len(BOX_FIELDS))]
        order = np.lexsort(columns[3::-1])     # by season, date, team_a, team_b
        if (np.diff(order) != 1).any():        # a log this program wrote is in order
            columns = [c[order] for c in columns]
        for c in columns:
            c.flags.writeable = False
        season_of = columns[0]
        starts = np.flatnonzero(np.diff(season_of, prepend=-1)).tolist()
        self._columns = {
            labels[season_of[lo]]: SeasonColumns(labels[season_of[lo]], names,
                                                 *(c[lo:hi] for c in columns[1:]))
            for lo, hi in zip(starts, starts[1:] + [len(order)])}
        if rosters is not None:
            self._rosters = {s: frozenset(t) for s, t in rosters.items()}
        else:
            self._rosters = {
                s: frozenset(names[t] for t in np.union1d(c.team_a, c.team_b).tolist())
                for s, c in self._columns.items()}

    @property
    def seasons(self) -> list[int]:
        return list(self._columns)

    def columns(self, season: int) -> SeasonColumns:
        """A stored season's columns."""
        return self._columns[season]

    def games(self, season: int) -> tuple[GameRecord, ...]:
        cols = self._columns.get(season)
        return cols.records() if cols is not None else ()

    def all_games(self) -> list[GameRecord]:
        return [g for cols in self._columns.values() for g in cols.records()]

    def teams(self, season: int) -> frozenset[str]:
        return self._rosters.get(season, frozenset())

    @property
    def n_games(self) -> int:
        return sum(len(cols) for cols in self._columns.values())


@contextmanager
def _csv_errors(path: Path, line: Callable[[], int] | None = None) -> Iterator[None]:
    """Undecodable bytes and malformed CSV in ``path`` as a :class:`GameLogError`."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise GameLogError(f"not UTF-8 text ({err})", path=str(path)) from None
    except csv.Error as err:
        raise GameLogError(f"malformed CSV ({err})", path=str(path),
                           line=line() if line else None) from None


def _parse_int(raw: str, *, path: str | None = None, line: int | None = None,
               field: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise GameLogError(f"expected integer, got {raw!r}",
                           path=path, line=line, field=field) from None


class _DataLines:
    """The lines of ``fh`` that are not ``#`` comments; ``start`` and ``line``
    number the first and the latest one handed out in the file (0 before any)."""

    def __init__(self, fh):
        self._fh = fh
        self.start = self.line = 0

    def __iter__(self) -> Iterator[str]:
        for number, text in enumerate(self._fh, 1):
            if not text.startswith("#"):
                self.start, self.line = self.start or number, number
                yield text


_ROSTER_HEADER = ["season", "team"]


def parse_roster(path: str | Path) -> dict[int, set[str]]:
    """Read a roster CSV (``season,team``) into season -> team-id sets.
    Lines starting with ``#`` are comments, as in a game log."""
    path = Path(path)
    rosters: dict[int, set[str]] = {}
    with path.open(newline="", encoding="utf-8") as fh, _csv_errors(path, lambda: lines.line):
        lines = _DataLines(fh)
        rows = csv.reader(lines)
        header = next(rows, None)
        if header is None or [c.strip() for c in header] != _ROSTER_HEADER:
            raise GameLogError(f"roster header must be 'season,team', got {header}",
                               path=str(path), line=lines.start or 1)
        for row in rows:
            if not row:
                continue  # csv reads a blank line as []
            if len(row) != len(_ROSTER_HEADER):
                raise GameLogError("expected 2 columns", path=str(path), line=lines.line)
            season = _parse_int(row[0], path=str(path), line=lines.line, field="season")
            team = row[1].strip()
            if not team:
                raise GameLogError("empty team id", path=str(path), line=lines.line, field="team")
            rosters.setdefault(season, set()).add(team)
    return rosters


def _counts(cells: list[str], columns: list[str]) -> list[int]:
    """One side's validated counts from its cells; ``columns`` name them."""
    try:
        counts = list(map(int, cells))
    except ValueError:  # name the first cell that is not an integer
        counts = [_parse_int(raw, field=col) for raw, col in zip(cells, columns)]
    _check_box(counts)
    return counts


def _game(row: list[str], ordinals: dict[str, int], teams: dict[str, str]):
    """The game on one CSV row, canonically oriented: ``(date ordinal,
    season, team_a, team_b, location code, 22 box counts)``.  The row is
    checked in column order; the first fault raises a :class:`GameLogError`
    that names its field.  ``ordinals`` caches each date string's
    conversion, and ``teams`` each team id, so a store holds one object per
    team id."""
    day = ordinals.get(row[0])
    if day is None:
        try:
            day = ordinals[row[0]] = dt.date.fromisoformat(row[0]).toordinal()
        except ValueError:
            raise GameLogError(f"bad ISO date {row[0]!r}", field="date") from None
    season = _parse_int(row[1], field="season")
    first, second = row[2].strip(), row[3].strip()
    if not first or not second:
        raise GameLogError("empty team id", field="team_a")
    first, second = teams.setdefault(first, first), teams.setdefault(second, second)
    location = _LOCATION_CODES.get(row[4])
    if location is None:
        raise GameLogError(
            f"location must be one of home_a/home_b/neutral, got {row[4]!r}", field="location")
    box_a, box_b = _counts(row[5:16], _BOX_COLUMNS[0]), _counts(row[16:], _BOX_COLUMNS[1])
    if box_a[-1] == box_b[-1]:
        raise GameLogError(
            f"tied score {box_a[-1]}-{box_b[-1]}; games cannot end tied", field="ptsb")
    if first == second:
        raise GameLogError(f"team plays itself: {first}", field="team_b")
    if first > second:
        return day, season, second, first, _SWAPPED[location], box_b + box_a
    return day, season, first, second, location, box_a + box_b


def parse_game_log(path: str | Path,
                   rosters: dict[int, set[str]] | None = None) -> SeasonStore:
    """Parse and validate a game-log CSV into a :class:`SeasonStore`.

    Every row is validated (counts, points consistency, no ties, no
    duplicates) and canonically oriented.  Lines starting with ``#`` are
    comments (artifacts carry their run configuration that way); reported
    line numbers always refer to the physical file.  When ``rosters`` is
    given, games with an off-roster team are dropped; the count of dropped
    rows is available as ``store.off_roster_dropped``.
    """
    path = Path(path)
    if not path.exists():
        raise GameLogError("file not found", path=str(path))
    where = str(path)
    seasons: list[int] = []
    dates, locations, boxes = array("q"), array("b"), array("q")
    firsts: list[str] = []
    seconds: list[str] = []
    seen: set[tuple[int, str, str]] = set()
    ordinals: dict[str, int] = {}
    teams: dict[str, str] = {}
    dropped = 0

    with path.open(newline="", encoding="utf-8") as fh, _csv_errors(path, lambda: lines.line):
        lines = _DataLines(fh)
        try:
            rows = csv.reader(lines)
            header = next(rows, None)
            if header is None:
                raise GameLogError("empty file, header required", path=where, line=1)
            if [c.strip() for c in header] != HEADER:
                raise GameLogError(
                    f"bad header: expected {','.join(HEADER)}", path=where, line=lines.start)
            for row in rows:
                if not row:
                    continue  # csv reads a blank line as []
                if len(row) != len(HEADER):
                    raise GameLogError(f"expected {len(HEADER)} columns",
                                       path=where, line=lines.line)
                try:
                    day, season, first, second, location, counts = _game(row, ordinals, teams)
                except GameLogError as e:
                    raise GameLogError(e.detail, path=where, line=lines.line,
                                       field=e.field) from None
                key = (day, first, second)
                if key in seen:
                    raise GameLogError(
                        f"duplicate game {first} vs {second} on {dt.date.fromordinal(day)}",
                        path=where, line=lines.line, field="team_a")
                seen.add(key)
                if rosters is not None:
                    pool = rosters.get(season, set())
                    if first not in pool or second not in pool:
                        dropped += 1
                        continue
                seasons.append(season)
                dates.append(day)
                firsts.append(first)
                seconds.append(second)
                locations.append(location)
                boxes.extend(counts)
        except (GameLogError, csv.Error):
            for _ in fh:  # an undecodable byte anywhere outranks every other fault
                pass
            raise
    return SeasonStore.from_columns(seasons, dates, firsts, seconds, locations, boxes,
                                    rosters=rosters, off_roster_dropped=dropped)


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[object]], comments: Sequence[str] = ()) -> None:
    """Write every CSV artifact: ``comments`` as ``# ``-prefixed lines, then
    ``header``, then ``rows``.  :func:`parse_game_log` skips the comments."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_game_log(store: SeasonStore, path: str | Path,
                   comments: Sequence[str] = ()) -> None:
    """Serialize a store back to the game-log CSV schema (round-trip safe)."""
    def rows() -> Iterator[list]:
        for season in store.seasons:
            cols = store.columns(season)
            for (date, a, b), location, box in zip(cols.keys(), cols.location.tolist(),
                                                   cols.box.tolist()):
                yield [date.isoformat(), season, a, b, LOCATIONS[location].value, *box]
    write_csv(path, HEADER, rows(), comments)
