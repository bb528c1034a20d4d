"""Top-level acceptance gates, one test per numbered shipping criterion.

Every test prints its own ``criterion N: PASS/FAIL`` line outside pytest's
capture, so a plain ``pytest tests/test_acceptance.py`` run doubles as the
release checklist.  Tolerances and sizes are pinned here on purpose — do not
loosen them to make a regression pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import time

import numpy as np
import pytest

from courtcast.adjust import (
    AdjustConfig,
    AveragingScheme,
    Seeding,
    run_seasons,
    team_row,
)
from courtcast.baselines import (
    PythagParams,
    pythag_predictor,
    pythag_rating,
    round_robin_rank,
    rpi,
)
from courtcast.evaluate import glass_ceiling_experiment, walk_forward_evaluate
from courtcast.features import FeatureScheme, Label, build_dataset
from courtcast.ingest import Location, SeasonStore
from courtcast.models import ModelError, ModelKind, predict, train
from courtcast.stats import (
    FOUR_FACTOR_WEIGHTS,
    four_factors,
    possessions,
    raw_efficiencies,
)
from courtcast.synthetic import (
    SyntheticLeagueSpec,
    calibrate_noise,
    generate_league,
)
from tests.conftest import BOX_A, BOX_B, make_box
from tests.oracles import (
    adjust_value,
    alpha_update,
    calibrate_home_advantage,
    explicit_weighted_average,
    naive_season,
    oriented,
    snapshot_as_dict,
    truncated,
)
from tests.test_cli import run_cli
from tests.test_features import make_snap
from tests.test_models import check_gradients, make_instance, separable_instances


@contextlib.contextmanager
def criterion(capsys, number: int, title: str):
    start, verdict = time.perf_counter(), "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"criterion {number}: {verdict} - {title} "
                  f"({time.perf_counter() - start:.1f}s)")


ALL_COMBOS = [(sch, sd) for sch in AveragingScheme for sd in Seeding]


def test_criterion_1_formula_oracles(capsys):
    with criterion(capsys, 1, "formula oracles match hand values to 1e-9 in <1s"):
        start = time.perf_counter()
        tol = 1e-9

        # possessions: 0.96*(60 - 10 - 12 + 0.475*20) worked by hand
        box = make_box(fgm=20, fga=60, fgm3=8, ft=9, fta=20, or_=10, to=12)
        assert box.points == 57
        assert possessions(box, 0.475) == pytest.approx(45.6, abs=tol)
        assert possessions(box, 0.4) == pytest.approx(44.16, abs=tol)

        # efficiencies: 57 points on 45.6 possessions is exactly 125.0
        opp = make_box(fgm=16, fga=50, fgm3=2, ft=4, fta=8, or_=5, to=10)
        assert opp.points == 38
        oe, de = raw_efficiencies(box, opp)
        assert oe == pytest.approx(125.0, abs=tol)
        assert de == pytest.approx(3800.0 / 45.6, abs=tol)
        zero = make_box(fgm=0, fgm3=0, ft=0, fta=0)
        assert raw_efficiencies(zero, opp)[0] == pytest.approx(0.0, abs=tol)
        poss_a = possessions(BOX_A)
        oe_a, _ = raw_efficiencies(BOX_A, BOX_B)
        assert oe_a * poss_a / 100.0 == pytest.approx(BOX_A.points, abs=tol)

        # four factors, each against its hand-reduced fraction
        shoot = make_box(fgm=25, fga=55, fgm3=8)
        ff = four_factors(shoot, opp)
        assert ff.efg == pytest.approx(29.0 / 55.0, abs=tol)
        ff = four_factors(box, make_box(dr=20), 0.475)
        assert ff.to_pct == pytest.approx(12.0 / 45.6, abs=tol)
        assert ff.or_pct == pytest.approx(1.0 / 3.0, abs=tol)
        assert ff.ftr == pytest.approx(1.0 / 3.0, abs=tol)
        assert FOUR_FACTOR_WEIGHTS == type(FOUR_FACTOR_WEIGHTS)(0.4, 0.25, 0.2, 0.15)
        assert sum(dataclasses.astuple(FOUR_FACTOR_WEIGHTS)) == 1.0

        # opponent adjustment: raw * navg / counter
        assert adjust_value(110.0, 100.0, 95.0) == pytest.approx(11000.0 / 95.0, abs=tol)
        assert adjust_value(104.37, 101.3, 101.3) == pytest.approx(104.37, abs=tol)
        assert adjust_value(0.0, 100.0, 95.0) == pytest.approx(0.0, abs=tol)

        # seasonal averaging updates
        assert alpha_update(100.0, 110.0, 0.2) == pytest.approx(102.0, abs=tol)
        assert alpha_update(100.0, 110.0, 0.0) == pytest.approx(100.0, abs=tol)
        assert alpha_update(100.0, 110.0, 1.0) == pytest.approx(110.0, abs=tol)
        assert explicit_weighted_average(100.0, []) == pytest.approx(100.0, abs=tol)
        assert explicit_weighted_average(100.0, [110.0]) == pytest.approx(320.0 / 3.0, abs=tol)
        assert explicit_weighted_average(100.0, [110.0, 120.0]) == pytest.approx(680.0 / 6.0, abs=tol)

        # rating curve
        even = dataclasses.replace(make_snap("t", 100.0), adj_oe=104.25, adj_de=104.25)
        assert pythag_rating(even) == 0.5
        snap = dataclasses.replace(make_snap("t", 100.0), adj_oe=110.0, adj_de=100.0)
        want = 1.1**11.5 / (1.1**11.5 + 1.0)
        assert pythag_rating(snap, PythagParams(y=11.5)) == pytest.approx(want, abs=tol)
        r1, r2, r3 = (pythag_rating(snap, PythagParams(y=y)) for y in (1.0, 11.5, 50.0))
        assert 0.5 < r1 < r2 < r3 < 1.0
        flipped = dataclasses.replace(snap, adj_oe=100.0, adj_de=110.0)
        assert pythag_rating(snap, PythagParams(y=11.5)) + pythag_rating(
            flipped, PythagParams(y=11.5)) == 1.0

        assert time.perf_counter() - start < 1.0


def test_criterion_2_adjustment_matches_naive_reference(capsys):
    with criterion(capsys, 2, "incremental adjustment == rescan reference, "
                              "exactly, both schemes x both seedings, <5s"):
        start = time.perf_counter()
        spec = SyntheticLeagueSpec(n_teams=4, games_per_team=6, n_seasons=1,
                                   noise=4.0, seed=11)
        store, _ = generate_league(spec, bayes_sims=1)
        assert store.n_games == 12
        two_spec = dataclasses.replace(spec, n_seasons=2)
        two_store, _ = generate_league(two_spec, bayes_sims=1)

        for st in (store, two_store):
            for scheme, seeding in ALL_COMBOS:
                for season in st.seasons:
                    run = run_seasons(st, scheme, seeding, through=season)[season]
                    ref = naive_season(st, season, scheme, seeding)
                    assert run.pre_match.keys() == ref["pre_match"].keys()
                    for key, (snap_a, snap_b) in run.pre_match.items():
                        assert snapshot_as_dict(snap_a) == ref["pre_match"][key][0]
                        assert snapshot_as_dict(snap_b) == ref["pre_match"][key][1]
                    for team, snap in run.final.items():
                        assert snapshot_as_dict(snap) == ref["final"][team]
        assert time.perf_counter() - start < 5.0


def test_criterion_3_no_leakage_at_random_truncations(capsys):
    with criterion(capsys, 3, "20 random truncations leave earlier snapshots "
                              "bitwise unchanged"):
        spec = SyntheticLeagueSpec(n_teams=12, games_per_team=16, n_seasons=1,
                                   noise=5.0, seed=21)
        store, _ = generate_league(spec, bayes_sims=1)
        season = store.seasons[0]
        full = {(sch, sd): run_seasons(store, sch, sd, through=season)[season]
                for sch, sd in ALL_COMBOS}
        games = store.games(season)
        rng = np.random.default_rng(123)
        for draw in range(20):
            cut = games[int(rng.integers(len(games)))].date
            sch, sd = ALL_COMBOS[draw % len(ALL_COMBOS)]
            part = run_seasons(truncated(store, season, cut), sch, sd,
                               through=season)[season]
            assert part.pre_match  # the cut never empties the season
            for key, snaps in part.pre_match.items():
                assert key[0] <= cut
                assert full[(sch, sd)].pre_match[key] == snaps


def test_criterion_4_mlp_gradients_match_finite_differences(capsys):
    with criterion(capsys, 4, "100 random network/instance draws: backprop vs "
                              "central differences <= 1e-4"):
        worst = 0.0
        for seed in range(100):
            insts = separable_instances(12, seed=seed)
            model = train(insts, ModelKind.MLP,
                          hyper={"epochs": seed % 4, "hidden": (2, 4, 7)[seed % 3]},
                          seed=seed)
            err = check_gradients(model, insts[seed % len(insts)], epsilon=1e-5)
            worst = max(worst, err)
        assert worst <= 1e-4


def test_criterion_5_all_kinds_learn_a_separable_league(capsys):
    with criterion(capsys, 5, "noise-free league (500 train / 200 test): every "
                              "kind >= 0.95; constant labels error out"):
        spec = SyntheticLeagueSpec(n_teams=20, games_per_team=25, n_seasons=3,
                                   noise=0.0, seed=17)
        store, _ = generate_league(spec, bayes_sims=1)
        runs = run_seasons(store, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON,
                           AdjustConfig())
        train_set, test_set = build_dataset(store, runs, FeatureScheme.ADJ_EFF,
                                            store.seasons[-1])
        assert len(train_set) == 500 and len(test_set) >= 200
        test_set = test_set[:200]
        for kind in ModelKind:
            model = train(train_set, kind, seed=0)
            hits = sum(predict(model, inst)[0] is inst.label for inst in test_set)
            assert hits / len(test_set) >= 0.95, kind

        flat = [make_instance([100.0 + i, 95.0, 102.0, 98.0], Label.WIN)
                for i in range(12)]
        for kind in ModelKind:
            with pytest.raises(ModelError):
                train(flat, kind, seed=0)


def test_criterion_6_home_baseline_hits_the_observed_band(capsys):
    with criterion(capsys, 6, "league calibrated to 63% home wins: home-picks "
                              "accuracy in [0.60, 0.66] at n >= 2000"):
        offset = calibrate_home_advantage(8.0, 0.63)
        spec = SyntheticLeagueSpec(n_teams=40, games_per_team=100, n_seasons=2,
                                   noise=8.0, home_advantage=offset,
                                   strength_spread=0.0, seed=29)
        store, _ = generate_league(spec, bayes_sims=1)
        report = walk_forward_evaluate(store, store.seasons[-1], "home_wins",
                                       FeatureScheme.ADJ_EFF)
        assert report.n_test >= 2000
        assert 0.60 <= report.accuracy <= 0.66


def test_criterion_7_every_cell_respects_the_accuracy_ceiling(capsys):
    with criterion(capsys, 7, "32-team grid: all model x scheme cells inside "
                              "[0.60, bound + halfwidth] in <60s"):
        base = SyntheticLeagueSpec(n_teams=32, games_per_team=30, n_seasons=3,
                                   noise=1.0, imbalance=0.75, seed=7)
        noise = calibrate_noise(base, 0.75)
        assert noise == pytest.approx(9.9601, abs=1e-3)
        start = time.perf_counter()
        report = glass_ceiling_experiment(
            dataclasses.replace(base, noise=noise),
            list(ModelKind),
            [FeatureScheme.ADJ_EFF, FeatureScheme.ADJ_FOUR_FACTORS,
             FeatureScheme.RAW],
            AveragingScheme.ALPHA, Seeding.PRIOR_SEASON, seed=7,
            hyper_overrides={"decision_tree": {"min_node_fraction": 0.05}})
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert report.bound == pytest.approx(0.75, abs=0.012)
        assert report.n_test == 480
        assert len(report.cells) == 12
        for cell in report.cells:
            assert 0.60 <= cell.accuracy <= 0.75 + report.halfwidth, cell
            assert cell.accuracy <= report.bound + report.halfwidth, cell


def test_criterion_8_rankings_cohere_with_their_ratings(capsys):
    with criterion(capsys, 8, "round-robin ranking == rating order on 50 random "
                              "sets; all-.500 league RPI == 0.5"):
        rng = np.random.default_rng(31)
        params = PythagParams()
        for _ in range(50):
            n = int(rng.integers(4, 13))
            snaps = [dataclasses.replace(
                make_snap(f"team{i:02d}", 100.0),
                adj_oe=float(rng.uniform(85.0, 120.0)),
                adj_de=float(rng.uniform(85.0, 120.0))) for i in range(n)]
            ranking = round_robin_rank(pythag_predictor(params),
                                       {s.team: team_row(s) for s in snaps})
            by_rating = sorted(snaps, key=lambda s: (-pythag_rating(s, params), s.team))
            assert [e.team for e in ranking.entries] == [s.team for s in by_rating]

        # every team 1-1 in a four-team cycle: all RPI components are .500
        teams = ["ants", "bees", "cats", "dogs"]
        cycle = []
        for i, (winner, loser) in enumerate(zip(teams, teams[1:] + teams[:1])):
            cycle.append(oriented(dt.date(2011, 1, 5 + i), 2011, winner, loser,
                                  Location.NEUTRAL, BOX_A, BOX_B))
        assert {g.winner() for g in cycle} == set(teams)
        ratings = rpi(SeasonStore(cycle).columns(2011))
        for team in teams:
            assert ratings[team] == pytest.approx(0.5, abs=1e-12)


def test_criterion_9_cli_pipeline_is_byte_deterministic(capsys, tmp_path):
    with criterion(capsys, 9, "two identical CLI pipeline runs produce "
                              "byte-identical artifacts"):
        flags = ["--n-teams", "8", "--games-per-team", "14", "--n-seasons", "2",
                 "--noise", "5", "--seed", "3"]
        pipeline = [
            ["simulate", "--out", "sim", *flags],
            ["train", "--data", "sim/games.csv", "--out", "out",
             "--kind", "mlp", "--seed", "4"],
            ["evaluate", "--data", "sim/games.csv", "--out", "out",
             "--kind", "mlp", "--seed", "4"],
            ["rank", "--data", "sim/games.csv", "--out", "out",
             "--kind", "pythag"],
        ]
        artifacts = ["sim/games.csv", "sim/league_truth.csv", "out/model.json",
                     "out/eval_report.csv", "out/eval_curve.csv",
                     "out/rankings.csv", "out/run_config.cfg"]
        contents = []
        for name in ("first", "second"):
            cwd = tmp_path / name
            cwd.mkdir()
            for args in pipeline:
                proc = run_cli(args, cwd=cwd)
                assert proc.returncode == 0, proc.stderr
            contents.append([(cwd / a).read_bytes() for a in artifacts])
        for path, one, two in zip(artifacts, *contents):
            assert one == two, f"{path} differs between runs"
