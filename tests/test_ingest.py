"""Game-log parsing, validation, canonical orientation, and round-tripping."""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from courtcast import ingest
from courtcast.ingest import (
    HEADER,
    MAX_COUNT,
    BoxScore,
    GameLogError,
    GameRecord,
    Location,
    SeasonStore,
    parse_game_log,
    parse_roster,
    write_game_log,
)
from courtcast.synthetic import SyntheticLeagueSpec, generate_league
from tests.conftest import BOX_A, BOX_B, make_box
from tests.oracles import oriented, parse_rows, truncated
from tests.test_exit_codes import EDITS, corrupted


def game_row(date="2011-01-15", season="2011", team_a="aardvarks", team_b="bobcats",
             location="home_a", box_a=BOX_A, box_b=BOX_B, **overrides):
    cells = [date, season, team_a, team_b, location]
    for box in (box_a, box_b):
        cells += [str(getattr(box, f)) for f in
                  ("fgm", "fga", "fgm3", "ft", "fta", "or_", "dr", "to", "stl", "blk", "points")]
    row = dict(zip(HEADER, cells))
    row.update(overrides)
    return ",".join(row[c] for c in HEADER)


def write_log(tmp_path, rows, header=None):
    path = tmp_path / "games.csv"
    path.write_text("\n".join([header or ",".join(HEADER)] + rows) + "\n")
    return path


class TestValidation:
    def test_happy_path(self, tmp_path):
        store = parse_game_log(write_log(tmp_path, [game_row()]))
        assert store.n_games == 1
        (g,) = store.games(2011)
        assert g.team_a == "aardvarks" and g.box_a.points == 67
        assert g.winner() == "aardvarks"

    def test_bad_header_rejected(self, tmp_path):
        path = write_log(tmp_path, [game_row()], header="date,team_a,team_b")
        with pytest.raises(GameLogError, match="header"):
            parse_game_log(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GameLogError, match="not found"):
            parse_game_log(tmp_path / "nope.csv")

    @pytest.mark.parametrize("overrides,field", [
        ({"date": "01/15/2011"}, "date"),
        ({"season": "twenty-eleven"}, "season"),
        ({"location": "moon"}, "location"),
        ({"fgaa": "-3"}, "fga"),
        ({"fgaa": "4.5"}, "fgaa"),
    ])
    def test_bad_cells_carry_line_and_field(self, tmp_path, overrides, field):
        bad = dict({"date": "2011-01-16"}, **overrides)
        path = write_log(tmp_path, [game_row(), game_row(**bad)])
        with pytest.raises(GameLogError) as exc:
            parse_game_log(path)
        assert exc.value.line == 3
        assert exc.value.field == field
        assert ":3:" in str(exc.value)

    def test_points_inconsistency_rejected(self, tmp_path):
        path = write_log(tmp_path, [game_row(ptsa="99")])
        with pytest.raises(GameLogError) as exc:
            parse_game_log(path)
        assert str(exc.value) == (
            f"{path}:2: field 'points': stated points 99 do not match the box "
            "(2*(fgm-fgm3) + 3*fgm3 + ft = 67)")

    def test_made_exceeding_attempted_rejected(self):
        with pytest.raises(GameLogError, match="fgm3"):
            BoxScore(fgm=5, fga=10, fgm3=6, ft=0, fta=0, or_=0, dr=0,
                     to=0, stl=0, blk=0, points=13).validate()

    def test_tie_rejected(self, tmp_path):
        tied = make_box(fgm=26, fga=55, fgm3=6, ft=9, fta=20)  # 67 points, same as BOX_A
        path = write_log(tmp_path, [game_row(box_b=tied)])
        with pytest.raises(GameLogError, match="tied"):
            parse_game_log(path)

    def test_duplicate_game_rejected(self, tmp_path):
        # Same pairing same date, even with teams listed in the other order.
        swapped = game_row(team_a="bobcats", team_b="aardvarks")
        path = write_log(tmp_path, [game_row(), swapped])
        with pytest.raises(GameLogError, match="duplicate"):
            parse_game_log(path)

    def test_self_play_rejected(self, tmp_path):
        path = write_log(tmp_path, [game_row(team_b="aardvarks")])
        with pytest.raises(GameLogError) as exc:
            parse_game_log(path)
        assert str(exc.value) == f"{path}:2: field 'team_b': team plays itself: aardvarks"

    def test_each_row_is_parsed_once(self, tmp_path, monkeypatch):
        # five good rows, then one whose box b breaks the points identity
        rows = [game_row(date=f"2011-01-1{d}") for d in range(5)]
        path = write_log(tmp_path, rows + [game_row(date="2011-01-15", ptsb="99")])
        validated = []
        check = ingest._check_box
        monkeypatch.setattr(ingest, "_check_box",
                            lambda counts: validated.append(counts) or check(counts))
        with pytest.raises(GameLogError) as err:
            parse_game_log(path)
        assert err.value.line == 7 and err.value.field == "points"
        assert len(validated) == 12  # each box read once: a second pass over the row makes 14

    def test_padded_header_parses_like_a_clean_one(self, tmp_path):
        rows = [game_row(), game_row(date="2011-01-16", team_a="bobcats", team_b="aardvarks")]
        clean = parse_game_log(write_log(tmp_path, rows))
        padded_header = ",".join(f" {c}" for c in HEADER)
        padded = parse_game_log(write_log(tmp_path, rows, header=padded_header))
        assert padded.all_games() == clean.all_games() and len(clean.all_games()) == 2


class TestOrientation:
    def test_reversed_row_is_canonicalized(self, tmp_path):
        row = game_row(team_a="zebras", team_b="aardvarks", location="home_a")
        store = parse_game_log(write_log(tmp_path, [row]))
        (g,) = store.games(2011)
        assert (g.team_a, g.team_b) == ("aardvarks", "zebras")
        # zebras were listed first and at home; after the swap home flips to side b
        assert g.location is Location.HOME_B
        assert g.box_b == BOX_A and g.box_a == BOX_B

    def test_neutral_site_survives_swap(self):
        g = oriented(dt.date(2011, 1, 1), 2011, "z", "a", Location.NEUTRAL, BOX_A, BOX_B)
        assert g.location is Location.NEUTRAL

    def test_direct_construction_enforces_order(self):
        with pytest.raises(GameLogError, match="canonically"):
            GameRecord(dt.date(2011, 1, 1), 2011, "z", "a",
                       Location.NEUTRAL, BOX_A, BOX_B)

    def test_fields_cannot_be_assigned(self, example_game):
        with pytest.raises(AttributeError):
            example_game.team_a = "zebras"
        with pytest.raises(AttributeError):
            example_game.box_a.points = 0


class TestStoreAndPartition:
    def test_games_sorted_by_date_then_pair(self, two_season_store):
        for season in two_season_store.seasons:
            games = two_season_store.games(season)
            keys = [(g.date, g.team_a, g.team_b) for g in games]
            assert keys == sorted(keys)

    def test_roster_filter_drops_off_roster_games(self, tmp_path):
        rows = [game_row(),
                game_row(date="2011-01-16", team_b="exhibition-all-stars")]
        rosters = {2011: {"aardvarks", "bobcats"}}
        store = parse_game_log(write_log(tmp_path, rows), rosters=rosters)
        assert store.n_games == 1
        assert store.off_roster_dropped == 1
        assert store.teams(2011) == {"aardvarks", "bobcats"}
        assert parse_game_log(write_log(tmp_path, rows)).off_roster_dropped == 0
        assert SeasonStore([]).off_roster_dropped == 0

    def test_roster_round_trip(self, tmp_path):
        path = tmp_path / "roster.csv"
        path.write_text("season,team\n2010,b\n2010,a\n2011,c\n")
        back = parse_roster(path)
        assert back == {2010: {"a", "b"}, 2011: {"c"}}

    def test_padded_roster_header(self, tmp_path):
        path = tmp_path / "roster.csv"
        path.write_text(" season, team \n2010,b\n2011,c\n")
        assert parse_roster(path) == {2010: {"b"}, 2011: {"c"}}

    def test_roster_comments_are_skipped(self, tmp_path):
        # every CSV the program writes starts with "#" lines
        plain = tmp_path / "plain.csv"
        plain.write_text("season,team\n2010,b\n2010,a\n2011,c\n")
        commented = tmp_path / "commented.csv"
        commented.write_text("# seed = 0\n# out = x\nseason,team\n2010,b\n"
                             "# a mid-file note, with a comma\n2010,a\n#\n2011,c\n")
        assert parse_roster(commented) == parse_roster(plain) == {2010: {"a", "b"},
                                                                  2011: {"c"}}

    def test_truncated_drops_later_games(self, two_season_store):
        games = two_season_store.games(2011)
        cut = games[2].date
        shorter = truncated(two_season_store, 2011, cut)
        assert all(g.date <= cut for g in shorter.games(2011))
        assert shorter.games(2010) == two_season_store.games(2010)


class TestRoundTrip:
    def test_write_then_parse_is_identity(self, two_season_store, tmp_path):
        path = tmp_path / "out.csv"
        write_game_log(two_season_store, path)
        back = parse_game_log(path)
        assert back.all_games() == two_season_store.all_games()

    def test_rewrite_is_byte_identical(self, two_season_store, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_game_log(two_season_store, p1)
        write_game_log(parse_game_log(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comment_header_survives_the_round_trip(self, two_season_store, tmp_path):
        path = tmp_path / "out.csv"
        write_game_log(two_season_store, path,
                       comments=["seed = 0", "scheme = adj_eff"])
        assert path.read_text().startswith("# seed = 0\n# scheme = adj_eff\n")
        back = parse_game_log(path)
        assert back.all_games() == two_season_store.all_games()

    def test_errors_report_physical_line_numbers_past_comments(self, tmp_path):
        bad = game_row(date="2011-01-17", ptsa="999")  # breaks the points identity
        path = tmp_path / "games.csv"
        path.write_text("\n".join(["# one comment", "# two comments",
                                   ",".join(HEADER), game_row(), bad]) + "\n")
        with pytest.raises(GameLogError) as err:
            parse_game_log(path)
        assert ":5:" in str(err.value)

    def test_errors_report_physical_line_numbers_past_blank_lines(self, tmp_path):
        rows = [game_row(date="2011-01-10"), game_row(date="2011-01-11"),
                game_row(date="2011-01-12", season="20x1")]
        path = tmp_path / "blank.csv"
        # line 1 header, line 2 blank, the broken row on physical line 5
        path.write_text("\n".join([",".join(HEADER), ""] + rows) + "\n")
        with pytest.raises(GameLogError) as err:
            parse_game_log(path)
        assert str(err.value) == f"{path}:5: field 'season': expected integer, got '20x1'"


@st.composite
def box_scores(draw):
    fga = draw(st.integers(min_value=1, max_value=90))
    fgm = draw(st.integers(min_value=0, max_value=fga))
    fgm3 = draw(st.integers(min_value=0, max_value=fgm))
    fta = draw(st.integers(min_value=0, max_value=50))
    ft = draw(st.integers(min_value=0, max_value=fta))
    other = {f: draw(st.integers(min_value=0, max_value=30))
             for f in ("or_", "dr", "to", "stl", "blk")}
    return BoxScore(fgm=fgm, fga=fga, fgm3=fgm3, ft=ft, fta=fta,
                    points=2 * (fgm - fgm3) + 3 * fgm3 + ft, **other)


@given(box_scores())
def test_consistent_boxes_always_validate(box):
    box.validate()


@given(box_scores(), box_scores(), st.sampled_from(list(Location)))
def test_orientation_is_involution_free(box1, box2, loc):
    # Building from either listing order yields the identical record.
    g1 = oriented(dt.date(2011, 1, 1), 2011, "m", "q", loc, box1, box2)
    g2 = oriented(dt.date(2011, 1, 1), 2011, "q", "m", loc.swapped(), box2, box1)
    assert g1 == g2


def outcome(parse, path, rosters=None):
    """What ``parse`` makes of ``path``: the store's contents or the error it raises."""
    try:
        store = parse(path, rosters)
    except GameLogError as err:
        return "raises", type(err), str(err)
    return ("parses", store.seasons, [store.games(s) for s in store.seasons],
            [store.teams(s) for s in store.seasons], store.off_roster_dropped)


SIMULATED = SyntheticLeagueSpec(n_teams=6, games_per_team=6, n_seasons=2, seed=1)


@pytest.fixture(scope="module")
def simulated_log(tmp_path_factory):
    store, _ = generate_league(SIMULATED)
    path = tmp_path_factory.mktemp("differential") / "games.csv"
    write_game_log(store, path)
    return path


def test_a_parsed_store_holds_one_object_per_team_id(simulated_log, tmp_path):
    store = parse_game_log(simulated_log)
    assert store.all_games() == generate_league(SIMULATED)[0].all_games()
    # a padded id and a reversed row name the same teams as the clean rows
    rows = [game_row(), game_row(date="2011-01-16", team_a=" bobcats", team_b="aardvarks "),
            game_row(date="2011-01-17", team_a="cougars", team_b="aardvarks")]
    hand = parse_game_log(write_log(tmp_path, rows))
    for parsed, n_teams in ((store, SIMULATED.n_teams), (hand, 3)):
        ids: dict[str, str] = {}
        for g in parsed.all_games():
            for team in (g.team_a, g.team_b):
                assert ids.setdefault(team, team) is team, team
        assert len(ids) == n_teams


ROUND_TRIP_ROWS = [  # a padded id, reversed rows, and a neutral site
    game_row(), game_row(date="2011-01-16", team_a=" bobcats", team_b="aardvarks "),
    game_row(date="2011-01-15", team_a="cougars", team_b="aardvarks", location="home_b"),
    game_row(date="2011-01-14", team_a="cougars", team_b="bobcats", location="neutral",
             season="2010")]


@pytest.mark.parametrize("case", ["simulated", "hand", "roster"])
def test_the_columns_round_trip(simulated_log, tmp_path, case):
    rosters = None
    if case == "simulated":
        path = simulated_log
    elif case == "hand":
        path = write_log(tmp_path, ROUND_TRIP_ROWS)
    else:
        path = simulated_log
        rosters = {2021: {"t00", "t01", "t02", "t03"}, 2022: {"t01", "t02", "t04", "t05"}}
    store = parse_game_log(path, rosters)
    games = store.all_games()
    assert games and games == parse_rows(path, rosters).all_games()
    for g in games:   # Python values, as a record built by hand holds them
        assert [type(v) for v in g[:5]] == [dt.date, int, str, str, Location]
        assert {type(v) for v in g.box_a + g.box_b} == {int}

    # a store built from the records holds the same columns
    again = SeasonStore(games, rosters=rosters)
    assert again.seasons == store.seasons
    for season in store.seasons:
        a, b = again.columns(season), store.columns(season)
        assert a == b and a.names == b.names
        for name in ("dates", "team_a", "team_b", "location", "box"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
    write_game_log(store, once)
    write_game_log(parse_game_log(once), twice)
    assert once.read_bytes() == twice.read_bytes()
    if case == "simulated":    # the log was written from the generated store
        assert once.read_bytes() == path.read_bytes()


_COL = {c: k for k, c in enumerate(HEADER)}
_BOX_A = slice(_COL["fgma"], _COL["ptsa"] + 1)
_BOX_B = slice(_COL["fgmb"], _COL["ptsb"] + 1)

# Each edit changes a log's lines in place, at data line ``k`` (line 0 is the header).


def _cells(change):
    """An edit that applies ``change`` to the cells of line ``k``."""
    def edit(lines, k):
        cells = lines[k].split(",")
        change(cells)
        lines[k] = ",".join(cells)
    edit.__name__ = change.__name__
    return edit


@_cells
def _reverse(cells):
    """The same game listed the other way around."""
    cells[2], cells[3] = cells[3], cells[2]
    cells[_BOX_A], cells[_BOX_B] = cells[_BOX_B], cells[_BOX_A]
    cells[4] = {"home_a": "home_b", "home_b": "home_a"}.get(cells[4], cells[4])


@_cells
def _tie(cells):
    cells[_BOX_B] = cells[_BOX_A]


@_cells
def _fgm_over_fga(cells):
    cells[_COL["fgaa"]] = str(int(cells[_COL["fgma"]]) - 1)


@_cells
def _fgm3_over_fgm(cells):
    """More threes than field goals, with points that still add up."""
    extra = int(cells[_COL["fgma"]]) - int(cells[_COL["fgm3a"]]) + 1
    for column in ("fgm3a", "ptsa"):
        cells[_COL[column]] = str(int(cells[_COL[column]]) + extra)


@_cells
def _ft_over_fta(cells):
    extra = int(cells[_COL["ftaa"]]) - int(cells[_COL["fta"]]) + 1
    for column in ("fta", "ptsa"):
        cells[_COL[column]] = str(int(cells[_COL[column]]) + extra)


@_cells
def _bad_points(cells):
    cells[_COL["ptsa"]] = str(int(cells[_COL["ptsa"]]) + 1)


@_cells
def _negative_count(cells):
    cells[_COL["stla"]] = "-1"


@_cells
def _count_over_max(cells):
    cells[_COL["blkb"]] = str(MAX_COUNT + 1)


@_cells
def _count_over_int64(cells):
    cells[_COL["drb"]] = str(2**63)


@_cells
def _non_integer(cells):
    cells[_COL["tob"]] = "4.5"


@_cells
def _bad_date(cells):
    cells[_COL["date"]] = "2021-02-30"


@_cells
def _bad_location(cells):
    cells[_COL["location"]] = "moon"


@_cells
def _self_play(cells):
    cells[_COL["team_b"]] = cells[_COL["team_a"]]


@_cells
def _empty_team(cells):
    cells[_COL["team_a"]] = " "


@_cells
def _empty_opponent(cells):
    cells[_COL["team_b"]] = ""


@_cells
def _padded_team(cells):
    cells[_COL["team_b"]] = f" {cells[_COL['team_b']]} "


@_cells
def _quoted_newline(cells):
    """A quoted count cell that runs onto a second physical line."""
    cells[_COL["stla"]] = '"1\n2"'


@_cells
def _missing_column(cells):
    del cells[-1]


@_cells
def _extra_column(cells):
    cells.append("0")


def _duplicate(lines, k):
    lines.append(lines[k])


def _duplicate_reversed(lines, k):
    lines.append(lines[k])
    _reverse(lines, len(lines) - 1)


@_cells
def _next_season(cells):
    cells[_COL["season"]] = str(int(cells[_COL["season"]]) + 1)


def _duplicate_in_another_season(lines, k):
    lines.append(lines[k])
    _next_season(lines, len(lines) - 1)


def _blank_line(lines, k):
    lines.insert(k, "")


def _comment_line(lines, k):
    lines.insert(k, "# a comment")


def _padded_header(lines, k):
    lines[0] = ",".join(f" {c}" for c in HEADER)


def _quoted_header(lines, k):
    """A bad header cell quoted across two physical lines: the error names the first."""
    lines[0] = '"da\nte"' + lines[0][len("date"):]


def _quote_open_at_the_end(lines, k):
    """A quote opened in the last data line's last cell, left open past a comment line."""
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ',"1.5'
    lines.append("# a comment")


def _set_cell(column: int, value: str):
    def cell(cells):
        cells[column] = value
    return _cells(cell)


LOG_EDITS = [_reverse, _tie, _fgm_over_fga, _fgm3_over_fgm, _ft_over_fta, _bad_points,
             _negative_count, _count_over_max, _count_over_int64, _non_integer, _bad_date,
             _bad_location, _self_play, _empty_team, _empty_opponent, _padded_team,
             _quoted_newline, _missing_column, _extra_column, _duplicate, _duplicate_reversed,
             _duplicate_in_another_season, _next_season, _blank_line, _comment_line,
             _padded_header, _quoted_header, _quote_open_at_the_end]
CELLS = st.sampled_from(["x", "4.5", "", " 7", "-3", str(MAX_COUNT + 1), str(2**63), "0",
                         "2021-02-30", "2021-11-03", "moon", "neutral", "t01"])
TEAMS = [f"t{k:02d}" for k in range(6)]
ROSTERS = st.none() | st.dictionaries(st.sampled_from([2021, 2022]),
                                      st.sets(st.sampled_from(TEAMS)))


@st.composite
def edited_logs(draw, text: str) -> bytes:
    """``text`` after a few log edits and, at times, byte edits."""
    lines = text.splitlines()
    unedited = set(lines)
    for _ in range(draw(st.integers(1, 3))):
        intact = [k for k, line in enumerate(lines) if k and line in unedited]
        edit = draw(st.sampled_from(LOG_EDITS)
                    | st.builds(_set_cell, st.integers(0, len(HEADER) - 1), CELLS))
        edit(lines, draw(st.sampled_from(intact)))
    data = ("\n".join(lines) + "\n").encode()
    return corrupted(data, draw(EDITS)) if draw(st.booleans()) else data


def assert_parsers_agree(path, rosters):
    assert outcome(parse_game_log, path, rosters) == outcome(parse_rows, path, rosters)


@pytest.mark.parametrize("edit", LOG_EDITS, ids=lambda edit: edit.__name__.strip("_"))
@pytest.mark.parametrize("rosters", [None, {2021: set(TEAMS[:4]), 2022: set(TEAMS)}])
def test_each_log_edit_parses_as_the_row_parser_does(simulated_log, tmp_path, edit, rosters):
    lines = simulated_log.read_text().splitlines()
    edit(lines, 5)
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_parsers_agree(path, rosters)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rosters=ROSTERS)
def test_fast_path_agrees_with_the_row_parser(simulated_log, data, rosters):
    path = simulated_log.with_name("edited.csv")
    path.write_bytes(data.draw(edited_logs(simulated_log.read_text())))
    assert_parsers_agree(path, rosters)


def test_an_undecodable_byte_outranks_an_earlier_bad_cell(tmp_path):
    # 300 rows put the byte past the first 8 KiB the decoder reads, well after row 1
    rows = [game_row(date=str(dt.date(2011, 1, 1) + dt.timedelta(days=d))) for d in range(300)]
    rows[0] = game_row(date="2011-01-01", season="20x1")
    path = write_log(tmp_path, rows)
    path.write_bytes(path.read_bytes() + b"\xff\n")
    want = outcome(parse_rows, path)
    assert want[0] == "raises" and want[2].startswith(f"{path}: not UTF-8 text")
    assert outcome(parse_game_log, path) == want
