"""Shared fixtures: hand-built box scores and a tiny two-season league."""

from __future__ import annotations

import datetime as dt

import pytest

from courtcast.ingest import BoxScore, GameRecord, Location, SeasonStore
from tests.oracles import oriented


def make_box(fgm=20, fga=50, fgm3=5, ft=10, fta=15, or_=10, dr=20,
             to=8, stl=5, blk=3) -> BoxScore:
    """A valid box score; points are always derived from the shooting line."""
    return BoxScore(fgm=fgm, fga=fga, fgm3=fgm3, ft=ft, fta=fta, or_=or_,
                    dr=dr, to=to, stl=stl, blk=blk,
                    points=2 * (fgm - fgm3) + 3 * fgm3 + ft)


# The worked-example pair of boxes used across stats tests.  Team A:
# 26/55 FG with 6 threes, 9/20 FT, 10 OR, 22 DR, 7 TO -> 67 points and
# 0.96*(55-10-7+0.475*20) = 45.6 possessions.
BOX_A = make_box(fgm=26, fga=55, fgm3=6, ft=9, fta=20, or_=10, dr=22, to=7)
BOX_B = make_box(fgm=23, fga=52, fgm3=5, ft=10, fta=16, or_=8, dr=20, to=9)


@pytest.fixture
def box_pair():
    return BOX_A, BOX_B


@pytest.fixture
def example_game():
    return GameRecord(
        date=dt.date(2011, 1, 15), season=2011,
        team_a="aardvarks", team_b="bobcats",
        location=Location.HOME_A, box_a=BOX_A, box_b=BOX_B,
    )


def tiny_store() -> SeasonStore:
    """Two seasons, four teams, deterministic hand-written games."""
    teams = ["ants", "bees", "cats", "dogs"]
    games = []
    day = dt.date(2010, 11, 20)
    rng_boxes = [
        (make_box(fgm=24, fga=52, fgm3=4, ft=8, fta=12, or_=9, dr=21, to=8),
         make_box(fgm=21, fga=50, fgm3=6, ft=7, fta=10, or_=7, dr=19, to=10)),
        (make_box(fgm=27, fga=58, fgm3=7, ft=11, fta=16, or_=11, dr=23, to=6),
         make_box(fgm=22, fga=54, fgm3=3, ft=9, fta=14, or_=8, dr=20, to=9)),
        (make_box(fgm=25, fga=55, fgm3=5, ft=10, fta=15, or_=10, dr=22, to=7),
         make_box(fgm=23, fga=53, fgm3=4, ft=6, fta=9, or_=9, dr=18, to=11)),
    ]
    for season in (2010, 2011):
        k = 0
        for i in range(len(teams)):
            for j in range(i + 1, len(teams)):
                box_h, box_v = rng_boxes[k % len(rng_boxes)]
                games.append(oriented(day, season, teams[i], teams[j],
                                      Location.HOME_A, box_h, box_v))
                day += dt.timedelta(days=3)
                k += 1
        day = dt.date(season + 1, 11, 20)
    return SeasonStore(games)


@pytest.fixture
def two_season_store():
    return tiny_store()
