"""Game-log ingestion: parsing, validation, and season partitioning.

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

:func:`parse_game_log` reads the file once, as a stream: ``csv.reader``
splits each line, and one pass over each row converts its cells, builds the
record and validates it, field by field in column order.  The first fault
raises the error naming the field, to which the loop adds the file and the
physical line.  Before any error is raised the rest of the file is read, so
an undecodable byte anywhere outranks every other fault.
"""

from __future__ import annotations

import csv
import datetime as dt
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


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


# Column order for one side's box score in the CSV schema.
BOX_FIELDS = ("fgm", "fga", "fgm3", "ft", "fta", "or_", "dr", "to", "stl", "blk", "points")
_BOX_SUFFIX = {"or_": "or", "points": "pts"}
MAX_COUNT = 10**6  # no box count comes near; larger ones would overflow int64 sums


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
        for name, count in zip(BOX_FIELDS, self):
            if not 0 <= count <= MAX_COUNT:
                raise GameLogError(f"count {count} outside [0, {MAX_COUNT}]", field=name)
        if self.fgm > self.fga:
            raise GameLogError(f"fgm={self.fgm} exceeds fga={self.fga}", field="fgm")
        if self.fgm3 > self.fgm:
            raise GameLogError(f"fgm3={self.fgm3} exceeds fgm={self.fgm}", field="fgm3")
        if self.ft > self.fta:
            raise GameLogError(f"ft={self.ft} exceeds fta={self.fta}", field="ft")
        computed = 2 * (self.fgm - self.fgm3) + 3 * self.fgm3 + self.ft
        if computed != self.points:
            raise GameLogError(
                f"stated points {self.points} do not match the box "
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

    @staticmethod
    def oriented(date: dt.date, season: int, first: str, second: str,
                 location: Location, box_first: BoxScore, box_second: BoxScore) -> "GameRecord":
        """Build a record from either team order, canonicalizing as needed."""
        if first > second:
            first, second = second, first
            box_first, box_second = box_second, box_first
            location = location.swapped()
        return GameRecord(date, season, first, second, location, box_first, box_second)

    def winner(self) -> str:
        return self.team_a if self.box_a.points > self.box_b.points else self.team_b


def _sort_key(g: GameRecord):
    return (g.date, g.team_a, g.team_b)


class SeasonStore:
    """Immutable-after-construction container of game records by season.

    Games within a season are sorted by date, with ties ordered by the
    (team_a, team_b) pair so day-by-day processing is deterministic.
    ``off_roster_dropped`` counts the games a roster filter left out.
    """

    def __init__(self, games: Iterable[GameRecord],
                 rosters: dict[int, set[str]] | None = None,
                 off_roster_dropped: int = 0):
        self.off_roster_dropped = off_roster_dropped
        by_season: dict[int, list[GameRecord]] = {}
        for g in games:
            by_season.setdefault(g.season, []).append(g)
        for season, rows in by_season.items():
            rows.sort(key=_sort_key)
        self._by_season = {s: tuple(by_season[s]) for s in sorted(by_season)}
        if rosters is not None:
            self._rosters = {s: frozenset(t) for s, t in rosters.items()}
        else:
            self._rosters = {
                s: frozenset(t for g in rows for t in (g.team_a, g.team_b))
                for s, rows in self._by_season.items()
            }

    @property
    def seasons(self) -> list[int]:
        return list(self._by_season)

    def games(self, season: int) -> tuple[GameRecord, ...]:
        return self._by_season.get(season, ())

    def all_games(self) -> list[GameRecord]:
        return [g for s in self._by_season for g in self._by_season[s]]

    def teams(self, season: int) -> frozenset[str]:
        return self._rosters.get(season, frozenset())

    @property
    def n_games(self) -> int:
        return sum(len(v) for v in self._by_season.values())

    def truncated(self, season: int, last_date: dt.date) -> "SeasonStore":
        """Copy of the store with every game in ``season`` after ``last_date`` removed."""
        kept = [g for g in self.all_games()
                if g.season != season or g.date <= last_date]
        return SeasonStore(kept, rosters=dict(self._rosters))


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


_ROSTER_HEADER = ["season", "team"]


def parse_roster(path: str | Path) -> dict[int, set[str]]:
    """Read a roster CSV (``season,team``) into season -> team-id sets."""
    path = Path(path)
    rosters: dict[int, set[str]] = {}
    with path.open(newline="", encoding="utf-8") as fh, \
            _csv_errors(path, lambda: reader.reader.line_num):
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != _ROSTER_HEADER:
            raise GameLogError(f"roster header must be 'season,team', got {reader.fieldnames}",
                               path=str(path), line=1)
        reader.fieldnames = _ROSTER_HEADER  # key cells by position, not by padded names
        for row in reader:
            line = reader.line_num  # the physical line; csv skips blank ones
            if None in row.values() or None in row:
                raise GameLogError("expected 2 columns", path=str(path), line=line)
            season = _parse_int(row["season"], path=str(path), line=line, field="season")
            team = row["team"].strip()
            if not team:
                raise GameLogError("empty team id", path=str(path), line=line, field="team")
            rosters.setdefault(season, set()).add(team)
    return rosters


_LOCATIONS = {loc.value: loc for loc in Location}


def _box(cells: list[str], columns: list[str]) -> BoxScore:
    """One side's validated box from its cells; ``columns`` name them."""
    try:
        box = BoxScore._make(map(int, cells))
    except ValueError:  # name the first cell that is not an integer
        box = BoxScore._make([_parse_int(raw, field=col) for raw, col in zip(cells, columns)])
    box.validate()
    return box


def _record(row: list[str], dates: dict[str, dt.date]) -> GameRecord:
    """The game on one CSV row, checked in column order; the first fault
    raises a :class:`GameLogError` that names its field.  ``dates`` caches
    each date string's conversion."""
    date = dates.get(row[0])
    if date is None:
        try:
            date = dates[row[0]] = dt.date.fromisoformat(row[0])
        except ValueError:
            raise GameLogError(f"bad ISO date {row[0]!r}", field="date") from None
    season = _parse_int(row[1], field="season")
    first, second = row[2].strip(), row[3].strip()
    if not first or not second:
        raise GameLogError("empty team id", field="team_a")
    location = _LOCATIONS.get(row[4])
    if location is None:
        raise GameLogError(
            f"location must be one of home_a/home_b/neutral, got {row[4]!r}", field="location")
    box_a, box_b = _box(row[5:16], _BOX_COLUMNS[0]), _box(row[16:], _BOX_COLUMNS[1])
    if box_a.points == box_b.points:
        raise GameLogError(
            f"tied score {box_a.points}-{box_b.points}; games cannot end tied", field="ptsb")
    return GameRecord.oriented(date, season, first, second, location, box_a, box_b)


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
    games: list[GameRecord] = []
    seen: set[tuple[dt.date, str, str]] = set()
    dates: dict[str, dt.date] = {}
    dropped = 0
    start = line = 0  # physical lines: the header's first, and the last csv read

    def data_lines(fh):
        nonlocal start, line
        for number, text in enumerate(fh, 1):
            if not text.startswith("#"):
                start, line = start or number, number
                yield text

    with path.open(newline="", encoding="utf-8") as fh, _csv_errors(path, lambda: line):
        try:
            rows = csv.reader(data_lines(fh))
            header = next(rows, None)
            if header is None:
                raise GameLogError("empty file, header required", path=where, line=1)
            if [c.strip() for c in header] != HEADER:
                raise GameLogError(
                    f"bad header: expected {','.join(HEADER)}", path=where, line=start)
            for row in rows:
                if not row:
                    continue  # csv reads a blank line as []
                if len(row) != len(HEADER):
                    raise GameLogError(f"expected {len(HEADER)} columns", path=where, line=line)
                try:
                    record = _record(row, dates)
                except GameLogError as e:
                    raise GameLogError(e.detail, path=where, line=line, field=e.field) from None
                key = (record.date, record.team_a, record.team_b)
                if key in seen:
                    raise GameLogError(
                        f"duplicate game {record.team_a} vs {record.team_b} on {record.date}",
                        path=where, line=line, field="team_a")
                seen.add(key)
                if rosters is not None:
                    pool = rosters.get(record.season, set())
                    if record.team_a not in pool or record.team_b not in pool:
                        dropped += 1
                        continue
                games.append(record)
        except (GameLogError, csv.Error):
            for _ in fh:  # an undecodable byte anywhere outranks every other fault
                pass
            raise
    return SeasonStore(games, rosters=rosters, off_roster_dropped=dropped)


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
    write_csv(path, HEADER, ([g.date.isoformat(), g.season, g.team_a, g.team_b,
                              g.location.value, *g.box_a, *g.box_b]
                             for g in store.all_games()), comments)
