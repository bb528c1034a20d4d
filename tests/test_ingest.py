"""Game-log parsing, validation, canonical orientation, and round-tripping."""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from courtcast.ingest import (
    HEADER,
    BoxScore,
    GameLogError,
    GameRecord,
    Location,
    SeasonStore,
    parse_game_log,
    parse_roster,
    season_partition,
    write_game_log,
)
from tests.conftest import BOX_A, BOX_B, make_box


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
        with pytest.raises(GameLogError):
            parse_game_log(path)


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
        g = GameRecord.oriented(dt.date(2011, 1, 1), 2011, "z", "a",
                                Location.NEUTRAL, BOX_A, BOX_B)
        assert g.location is Location.NEUTRAL

    def test_direct_construction_enforces_order(self):
        with pytest.raises(GameLogError, match="canonically"):
            GameRecord(dt.date(2011, 1, 1), 2011, "z", "a",
                       Location.NEUTRAL, BOX_A, BOX_B)


class TestStoreAndPartition:
    def test_games_sorted_by_date_then_pair(self, two_season_store):
        for season in two_season_store.seasons:
            games = two_season_store.games(season)
            keys = [(g.date, g.team_a, g.team_b) for g in games]
            assert keys == sorted(keys)

    def test_partition_accumulates_training_seasons(self, two_season_store):
        train, test = season_partition(two_season_store, 2011)
        assert all(g.season == 2010 for g in train)
        assert all(g.season == 2011 for g in test)
        assert len(train) == len(test) == 6

    def test_partition_rejects_unknown_and_earliest(self, two_season_store):
        with pytest.raises(GameLogError, match="not in store"):
            season_partition(two_season_store, 1999)
        with pytest.raises(GameLogError, match="earliest"):
            season_partition(two_season_store, 2010)

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

    def test_truncated_drops_later_games(self, two_season_store):
        games = two_season_store.games(2011)
        cut = games[2].date
        shorter = two_season_store.truncated(2011, cut)
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
    g1 = GameRecord.oriented(dt.date(2011, 1, 1), 2011, "m", "q", loc, box1, box2)
    g2 = GameRecord.oriented(dt.date(2011, 1, 1), 2011, "q", "m", loc.swapped(), box2, box1)
    assert g1 == g2
