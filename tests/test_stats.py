"""Possession, efficiency, and four-factor arithmetic against hand-computed values.

Expected numbers were worked out by hand from the defining formulas for the
fixture boxes in conftest (team A: 26/55 FG, 6 threes, 9/20 FT, 10 OR,
22 DR, 7 TO -> 67 points; team B: 23/52, 5 threes, 10/16 FT, 8 OR, 20 DR,
9 TO -> 61 points).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

import numpy as np

from courtcast.ingest import BOX_FIELDS, Location
from courtcast.stats import (
    DEFAULT_FT_WEIGHT,
    FOUR_FACTOR_WEIGHTS,
    OLIVER_FT_WEIGHT,
    Site,
    four_factors,
    game_arrays,
    game_stats,
    possessions,
    raw_efficiencies,
    site_for,
)
from courtcast.synthetic import SyntheticLeagueSpec, generate_league
from tests.test_ingest import box_scores

TOL = 1e-9


class TestPossessions:
    def test_worked_example(self, box_pair):
        box_a, box_b = box_pair
        # 0.96 * (55 - 10 - 7 + 0.475*20) = 0.96 * 47.5
        assert possessions(box_a) == pytest.approx(45.6, abs=TOL)
        # 0.96 * (52 - 8 - 9 + 0.475*16) = 0.96 * 42.6
        assert possessions(box_b) == pytest.approx(40.896, abs=TOL)

    def test_oliver_ft_weight(self, box_pair):
        box_a, _ = box_pair
        # 0.96 * (55 - 10 - 7 + 0.4*20) = 0.96 * 46
        assert possessions(box_a, ft_weight=OLIVER_FT_WEIGHT) == pytest.approx(44.16, abs=TOL)


class TestEfficiencies:
    def test_worked_example(self, box_pair):
        box_a, box_b = box_pair
        oe_a, de_a = raw_efficiencies(box_a, box_b)
        assert oe_a == pytest.approx(6700 / 45.6, abs=TOL)   # 146.9298245614035
        assert de_a == pytest.approx(6100 / 45.6, abs=TOL)   # 133.7719298245614

    def test_both_sides_use_own_possessions(self, box_pair):
        box_a, box_b = box_pair
        oe_b, de_b = raw_efficiencies(box_b, box_a)
        assert oe_b == pytest.approx(149.15884194053208, abs=TOL)
        assert de_b == pytest.approx(163.8302034428795, abs=TOL)
        # A's defensive view is NOT B's offensive view: pace denominators differ.
        _, de_a = raw_efficiencies(box_a, box_b)
        assert de_a != pytest.approx(oe_b, abs=1.0)


class TestFourFactors:
    def test_worked_example_team_a(self, box_pair):
        box_a, box_b = box_pair
        ff = four_factors(box_a, box_b)
        assert ff.efg == pytest.approx(29 / 55, abs=TOL)       # (26 + 3)/55
        assert ff.to_pct == pytest.approx(7 / 45.6, abs=TOL)   # 0.15350877192982457
        assert ff.or_pct == pytest.approx(10 / 30, abs=TOL)    # 10/(10 + 20)
        assert ff.ftr == pytest.approx(20 / 55, abs=TOL)

    def test_worked_example_team_b(self, box_pair):
        box_a, box_b = box_pair
        ff = four_factors(box_b, box_a)
        assert ff.efg == pytest.approx(0.49038461538461536, abs=TOL)
        assert ff.to_pct == pytest.approx(0.22007042253521125, abs=TOL)
        assert ff.or_pct == pytest.approx(8 / 30, abs=TOL)     # 8/(8 + 22)
        assert ff.ftr == pytest.approx(16 / 52, abs=TOL)

    def test_importance_weights_sum_to_one(self):
        w = FOUR_FACTOR_WEIGHTS
        assert w.efg == 0.4 and w.to_pct == 0.25 and w.or_pct == 0.2 and w.ftr == 0.15
        assert w.efg + w.to_pct + w.or_pct + w.ftr == 1.0


class TestGameStats:
    def test_both_perspectives(self, example_game):
        sa, sb = game_stats(example_game)
        assert sa.team == "aardvarks" and sa.opponent == "bobcats"
        assert sa.site is Site.HOME and sb.site is Site.AWAY
        assert sa.won and not sb.won
        assert sa.oe == pytest.approx(sa.box.points * 100 / sa.poss, abs=TOL)
        # One side's defensive factors are the other side's offensive factors.
        assert sa.def_factors == sb.off_factors
        assert sb.def_factors == sa.off_factors

    def test_site_mapping(self):
        assert site_for(Location.HOME_B, is_team_a=False) is Site.HOME
        assert site_for(Location.HOME_B, is_team_a=True) is Site.AWAY
        assert site_for(Location.NEUTRAL, is_team_a=True) is Site.NEUTRAL


@given(box_scores(), box_scores())
def test_efficiency_scale_invariants(box, opp):
    poss = possessions(box)
    if poss <= 0:
        return  # degenerate boxes fall outside the formula's domain
    oe, de = raw_efficiencies(box, opp)
    assert oe >= 0 and de >= 0
    assert oe == pytest.approx(box.points * 100 / poss)


@given(box_scores(), box_scores())
def test_four_factor_ranges(box, opp):
    if possessions(box) <= 0 or box.or_ + opp.dr == 0:
        return
    ff = four_factors(box, opp)
    assert 0.0 <= ff.efg <= 1.5      # eFG can top 1 only via threes
    assert 0.0 <= ff.or_pct <= 1.0
    assert ff.ftr >= 0.0


class TestGameArrays:
    """The vectorised per-game stats against ``game_stats``, bit for bit."""

    @pytest.mark.parametrize("ft_weight", [DEFAULT_FT_WEIGHT, OLIVER_FT_WEIGHT])
    def test_every_game_of_a_league_matches_bitwise(self, ft_weight):
        spec = SyntheticLeagueSpec(n_teams=24, games_per_team=20, n_seasons=2, seed=5)
        store = generate_league(spec, bayes_sims=1)[0]
        games = store.all_games()
        got = game_arrays(np.concatenate([store.columns(s).box for s in store.seasons]),
                          ft_weight)
        sides = [game_stats(g, ft_weight) for g in games]
        want = {
            "poss": [[s.poss for s in pair] for pair in sides],
            "oe": [[s.oe for s in pair] for pair in sides],
            "de": [[s.de for s in pair] for pair in sides],
            "off_factors": [[dataclasses.astuple(s.off_factors) for s in pair]
                            for pair in sides],
            "def_factors": [[dataclasses.astuple(s.def_factors) for s in pair]
                            for pair in sides],
        }
        for name, values in want.items():
            a, b = np.asarray(getattr(got, name)), np.asarray(values)
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        boxes = [[[getattr(s.box, f) for f in BOX_FIELDS] for s in pair] for pair in sides]
        assert got.box.tolist() == boxes

    def test_no_games(self):
        got = game_arrays(np.zeros((0, 2 * len(BOX_FIELDS)), dtype=np.int64))
        assert got.oe.shape == (0, 2) and got.off_factors.shape == (0, 2, 4)
