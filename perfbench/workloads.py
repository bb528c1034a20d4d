"""The benchmark's workloads: inputs, one pass of user-facing calls, checks.

Each workload makes its inputs from the seed alone (``setup``), runs one
pass of the program's public entry points with no tracing (``run``), and
checks the outputs (``check``).  ``run_traced`` makes the same calls with a
span around each call into a layer; its outputs must equal ``run``'s.

* ``grid``  — the accuracy-ceiling experiment; model training dominates.
* ``d1``    — a Division-I-sized game log read from CSV; parse and the
              adjust engine dominate, and memory grows with the history.
* ``query`` — the command-line flow, in process: train, save, load,
              predict one matchup, rank every team.
"""

from __future__ import annotations

import contextlib
import dataclasses
import filecmp
import io
import random
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import courtcast.cli as cli
import courtcast.models as models
from courtcast.adjust import AdjustConfig, AveragingScheme, Seeding, run_seasons
from courtcast.baselines import PythagParams, pythag_pair_prob, pythag_rating
from courtcast.evaluate import (
    binomial_halfwidth,
    evaluate_predictor,
    glass_ceiling_experiment,
    walk_forward_evaluate,
)
from courtcast.features import FeatureScheme, build_dataset, encode_pairing
from courtcast.ingest import parse_game_log, write_game_log
from courtcast.models import ModelKind, predict, resolve_label, train
from courtcast.stats import DEFAULT_FT_WEIGHT, game_stats
from courtcast.synthetic import SyntheticLeagueSpec, calibrate_noise, generate_league

import checks

BOUND_TARGET = 0.75        # best achievable accuracy every league is calibrated to
IMBALANCE = 0.75
# Monte-Carlo draws per distinct matchup for the bound of the d1 and query
# leagues.  Their checks need the bound to about 1e-3, and at 5,276 distinct
# d1 matchups the program's default of 100k draws alone takes 26 s.
LOG_BAYES_SIMS = 2_000
ENCODE_PROBE_PAIRS = 2_016   # every pairing of 64 teams
PRE_MATCH_SAMPLE = 400       # d1 games whose snapshots are recomputed from CSV


@dataclass
class Outcome:
    """What one pass produced; ``failed`` counts operations that failed."""

    failed: int
    out: dict = field(default_factory=dict)


def _failed(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def league_spec(seed: int, n_teams: int, n_seasons: int) -> SyntheticLeagueSpec:
    base = SyntheticLeagueSpec(n_teams=n_teams, games_per_team=30,
                               n_seasons=n_seasons, noise=1.0,
                               imbalance=IMBALANCE, seed=seed)
    return dataclasses.replace(base, noise=calibrate_noise(base, BOUND_TARGET))


def _counted_runs(t, store, averaging, through):
    """``run_seasons`` in a span that counts games and snapshots."""
    with t.span("adjust.run_seasons") as s:
        runs = run_seasons(store, averaging, Seeding.PRIOR_SEASON, AdjustConfig(),
                           through=through)
    s.counts["games"] = sum(len(store.games(y)) for y in runs)
    s.counts["snapshots"] = sum(len(v) for r in runs.values() for v in r.series.values())
    return runs


def _traced_predict(t, model):
    name = f"models.{model.kind.value}.predict"

    def predict_fn(inst):
        with t.span(name):
            return predict(model, inst)
    return predict_fn


def _traced_cell(t, runs, train_set, test_set, test_season, kind, scheme,
                 averaging, seed, hyper):
    """The calls ``evaluate._evaluate_cell`` makes, one span each."""
    if kind == "pythag":
        params = PythagParams()
        resolved = {"y": params.y}
        run = runs[test_season]

        def predict_fn(inst):
            snap_a, snap_b = run.pre_match[(inst.date, inst.team_first, inst.team_second)]
            with t.span("baselines.pythag_pair_prob"):
                p = pythag_pair_prob(snap_a, snap_b, params)
            return resolve_label(p, inst.location), p
        kind_name = kind
    else:
        with t.span(f"models.{kind.value}.train", rows=len(train_set)):
            model = train(train_set, kind, hyper=dict(hyper) if hyper else None,
                          seed=seed)
        predict_fn = _traced_predict(t, model)
        kind_name, resolved = model.kind.value, dict(model.hyper)
    config = AdjustConfig()
    echo = {"alpha": config.alpha, "ft_weight": config.ft_weight,
            "navg_source": config.navg_source, "hyper": resolved}
    with t.span("evaluate.evaluate_predictor", instances=len(test_set)):
        return evaluate_predictor(
            test_set, predict_fn, test_season=test_season, kind=kind_name,
            scheme=scheme.value, averaging=averaging.value,
            seeding=Seeding.PRIOR_SEASON.value, seed=seed,
            n_train=len(train_set), config=echo)


def _dataset(t, store, runs, scheme, test_season):
    with t.span("features.build_dataset") as s:
        train_set, test_set = build_dataset(store, runs, scheme, test_season)
    s.counts["instances"] = len(train_set) + len(test_set)
    return train_set, test_set


def _probe_layers(t, store, run, scheme):
    """Per-call cost of two layers the pass reaches only from inside others.

    ``game_stats`` runs inside ``run_seasons`` and ``encode_pairing`` inside
    ``build_dataset`` and the rankers, so each is timed here on its own: over
    every game of the store, and over every pairing of the first 64 teams'
    final snapshots.
    """
    games = store.all_games()
    with t.span("stats.game_stats", games=len(games)):
        for g in games:
            game_stats(g, DEFAULT_FT_WEIGHT)
    snaps = [run.final[team] for team in sorted(run.final)][:64]
    pairs = [(a, b) for i, a in enumerate(snaps) for b in snaps[i + 1:]]
    pairs = pairs[:ENCODE_PROBE_PAIRS]
    with t.span("features.encode_pairing", calls=len(pairs)):
        for a, b in pairs:
            encode_pairing(a, b, scheme)


class Workload:
    name = ""
    ops_per_pass = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self, t) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear what an earlier pass left, so every pass does the same work."""

    def run(self) -> Outcome:
        raise NotImplementedError

    def run_traced(self, t) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def keep_reference(self) -> None:
        """Set the untraced pass's outputs aside before the traced pass."""

    def same(self, ref: Outcome, traced: Outcome) -> list[str]:
        raise NotImplementedError

    def check_traced(self, traced: Outcome) -> list[str]:
        return []

    def probe(self, t, traced: Outcome) -> None:
        raise NotImplementedError

    def artifact_bytes(self) -> dict[str, int]:
        """Sizes of files the pass wrote: per model kind, and in total."""
        return {}


# ---------------------------------------------------------------------------

GRID_TEAMS, GRID_GAMES, GRID_SEASONS = 32, 30, 3
GRID_SCHEMES = (FeatureScheme.ADJ_EFF, FeatureScheme.ADJ_FOUR_FACTORS, FeatureScheme.RAW)
# The MLP trains for 100 epochs, not the paper's 500: at 500 one pass takes
# ~48 s, too long to repeat the ~22 runs per workload a comparison needs.
# MLP training is still over half of the pass, so it stays this workload's layer.
GRID_HYPER = {"decision_tree": {"min_node_fraction": 0.05}, "mlp": {"epochs": 100}}


class Grid(Workload):
    """The accuracy-ceiling grid: 4 model kinds x 3 schemes on a 32-team league."""

    name = "grid"
    ops_per_pass = len(ModelKind) * len(GRID_SCHEMES)

    def setup(self, t):
        with t.span("synthetic.calibrate_noise"):
            self.spec = league_spec(self.seed, GRID_TEAMS, GRID_SEASONS)

    def run(self):
        try:
            report = glass_ceiling_experiment(
                self.spec, list(ModelKind), list(GRID_SCHEMES),
                AveragingScheme.ALPHA, Seeding.PRIOR_SEASON, seed=self.seed,
                hyper_overrides=GRID_HYPER)
        except Exception:
            _failed("glass_ceiling_experiment")
            return Outcome(self.ops_per_pass)
        return Outcome(0, {"report": report})

    def run_traced(self, t):
        """The calls ``glass_ceiling_experiment`` makes, in its order."""
        spec, averaging = self.spec, AveragingScheme.ALPHA
        test_season = spec.first_season + spec.n_seasons - 1
        with t.span("evaluate.glass_ceiling"):
            with t.span("synthetic.generate_league"):
                store, truth = generate_league(spec)
            runs = _counted_runs(t, store, averaging, test_season)
            cells = []
            for scheme in GRID_SCHEMES:
                train_set, test_set = _dataset(t, store, runs, scheme, test_season)
                for kind in ModelKind:
                    r = _traced_cell(t, runs, train_set, test_set, test_season, kind,
                                     scheme, averaging, self.seed,
                                     GRID_HYPER.get(kind.value))
                    cells.append((r.kind, r.scheme, r.accuracy,
                                  r.accuracy - truth.bayes_accuracy, r.n_test))
        return Outcome(0, {"cells": cells, "bound": truth.bayes_accuracy,
                           "halfwidth": binomial_halfwidth(truth.bayes_accuracy,
                                                           len(test_set)),
                           "store": store, "run": runs[test_season]})

    def check(self, outcome):
        if "report" not in outcome.out:
            return []
        return checks.check_ceiling(
            outcome.out["report"], n_test=GRID_TEAMS * GRID_GAMES // 2,
            n_cells=self.ops_per_pass, target=BOUND_TARGET)

    def same(self, ref, traced):
        if "report" not in ref.out or "cells" not in traced.out:
            return []
        report = ref.out["report"]
        want = ([(c.kind, c.scheme, c.accuracy, c.gap, c.n_test) for c in report.cells],
                report.bound, report.halfwidth)
        got = (traced.out["cells"], traced.out["bound"], traced.out["halfwidth"])
        return [] if got == want else ["traced grid differs from glass_ceiling_experiment"]

    def probe(self, t, traced):
        _probe_layers(t, traced.out["store"], traced.out["run"],
                      FeatureScheme.ADJ_FOUR_FACTORS)


# ---------------------------------------------------------------------------

D1_TEAMS, D1_SEASONS = 352, 4
# (report key, kind, scheme, averaging): the two averaging schemes take
# different branches of the adjust engine.
D1_EVALS = (
    ("decision_tree", ModelKind.DECISION_TREE, FeatureScheme.ADJ_FOUR_FACTORS,
     AveragingScheme.ALPHA),
    ("pythag", "pythag", FeatureScheme.ADJ_EFF, AveragingScheme.EXPLICIT),
)


class D1(Workload):
    """Parse a 21,120-game log, then two walk-forward evaluations on it."""

    name = "d1"
    ops_per_pass = len(D1_EVALS)

    def setup(self, t):
        """Write the game log; only its path and the league's spec are kept.

        The generated store is dropped, so that the pass's memory is the
        program's alone; ``check`` generates it again from the spec.
        """
        self.spec = league_spec(self.seed, D1_TEAMS, D1_SEASONS)
        with t.span("synthetic.generate_league"):
            store, truth = generate_league(self.spec, bayes_sims=LOG_BAYES_SIMS)
        self.log = self.work / "games.csv"
        self.work.mkdir(parents=True, exist_ok=True)
        with t.span("ingest.write_game_log", games=store.n_games):
            write_game_log(store, self.log)
        self.bound = truth.bayes_accuracy
        self.test_season = store.seasons[-1]
        self._rows = None

    def rows(self):
        if self._rows is None:
            self._rows = checks.read_csv(self.log)
        return self._rows

    def run(self):
        try:
            store = parse_game_log(self.log)
        except Exception:
            _failed("parse_game_log")
            return Outcome(self.ops_per_pass)
        outcome = Outcome(0, {"store": store})
        for key, kind, scheme, averaging in D1_EVALS:
            try:
                outcome.out[key] = walk_forward_evaluate(
                    store, self.test_season, kind, scheme, averaging,
                    Seeding.PRIOR_SEASON, seed=self.seed)
            except Exception:
                _failed(f"walk_forward_evaluate({key})")
                outcome.failed += 1
        return outcome

    def run_traced(self, t):
        """The calls ``walk_forward_evaluate`` makes, in its order."""
        with t.span("ingest.parse_game_log") as s:
            store = parse_game_log(self.log)
        s.counts["games"] = store.n_games
        outcome = Outcome(0, {"store": store})
        for key, kind, scheme, averaging in D1_EVALS:
            with t.span("evaluate.walk_forward"):
                runs = _counted_runs(t, store, averaging, self.test_season)
                train_set, test_set = _dataset(t, store, runs, scheme, self.test_season)
                outcome.out[key] = _traced_cell(
                    t, runs, train_set, test_set, self.test_season, kind, scheme,
                    averaging, self.seed, None)
            outcome.out[f"{key}_runs"] = runs
        return outcome

    def check(self, outcome):
        out = outcome.out
        problems = []
        if "store" in out:
            generated, _ = generate_league(self.spec, bayes_sims=LOG_BAYES_SIMS)
            problems += checks.check_store(out["store"], generated)
        for key, *_ in D1_EVALS:
            if key in out:
                problems += checks.check_eval_report(out[key], self.rows(), self.bound)
        return problems

    def same(self, ref, traced):
        return [f"traced {key} report differs from walk_forward_evaluate"
                for key, *_ in D1_EVALS
                if key in ref.out and ref.out[key].to_json() != traced.out[key].to_json()]

    def check_traced(self, traced):
        problems = []
        for key, *_ in D1_EVALS:
            problems += checks.check_pre_match(traced.out[f"{key}_runs"], self.rows(),
                                               PRE_MATCH_SAMPLE, self.seed)
        return problems

    def probe(self, t, traced):
        runs = traced.out["decision_tree_runs"]
        _probe_layers(t, traced.out["store"], runs[self.test_season],
                      FeatureScheme.ADJ_FOUR_FACTORS)


# ---------------------------------------------------------------------------

QUERY_TEAMS, QUERY_SEASONS = 128, 3
QUERY_MODELS = (ModelKind.NAIVE_BAYES_KDE, ModelKind.DECISION_TREE,
                ModelKind.RANDOM_FOREST)
QUERY_RATERS = ("pythag", "rpi")
QUERY_SCHEME = FeatureScheme.ADJ_FOUR_FACTORS


class Query(Workload):
    """``courtcast train``, ``predict`` and ``rank`` through ``cli.main``."""

    name = "query"
    ops_per_pass = 2 * len(QUERY_MODELS) + len(QUERY_MODELS) + len(QUERY_RATERS)
    n_teams, n_seasons = QUERY_TEAMS, QUERY_SEASONS

    def setup(self, t):
        """Write the game log; as in ``d1``, the generated store is not kept."""
        self.spec = league_spec(self.seed, self.n_teams, self.n_seasons)
        with t.span("synthetic.generate_league"):
            store, _ = generate_league(self.spec, bayes_sims=LOG_BAYES_SIMS)
        self.work.mkdir(parents=True, exist_ok=True)
        self.log = self.work / "games.csv"
        with t.span("ingest.write_game_log", games=store.n_games):
            write_game_log(store, self.log)
        self.out = self.work / "out"
        self.test_season = store.seasons[-1]
        self.teams = set(store.teams(self.test_season))
        rng = random.Random(self.seed)
        first, second = sorted(rng.sample(sorted(self.teams), 2))
        location = rng.choice(["home", "away", "neutral"])
        common = ["--data", str(self.log), "--scheme", QUERY_SCHEME.value,
                  "--seed", str(self.seed)]
        matchup = ["--team-first", first, "--team-second", second,
                   "--location", location]
        models_ = [k.value for k in QUERY_MODELS]
        # (command, kind) -> argv, in the order the pass runs them
        self.commands = {
            **{("train", k): ["train", "--kind", k, "--out", str(self.out / k), *common]
               for k in models_},
            **{("predict", k): ["predict", "--kind", k, "--out", str(self.out / k),
                                *common, *matchup] for k in models_},
            **{("rank", k): ["rank", "--kind", k, "--out", str(self.out / k), *common]
               for k in models_ + list(QUERY_RATERS)}}
        self._test_run = None

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _outcome(self, codes: dict) -> Outcome:
        ok = {key for key, rc in codes.items() if rc == 0}
        return Outcome(len(codes) - len(ok), {"ok": ok})

    def run(self):
        return self._outcome({key: self._main(argv)
                              for key, argv in self.commands.items()})

    def run_traced(self, t):
        """Every command in a span, with the library calls it makes wrapped."""
        wraps = {
            (cli, "parse_game_log"): ("ingest.parse_game_log",
                                      lambda r, *a, **k: {"games": r.n_games}),
            (cli, "run_seasons"): ("adjust.run_seasons", lambda r, store, *a, **k: {
                "games": sum(len(store.games(y)) for y in r),
                "snapshots": sum(len(v) for run in r.values()
                                 for v in run.series.values())}),
            (cli, "build_dataset"): ("features.build_dataset", lambda r, *a, **k: {
                "instances": len(r[0]) + len(r[1])}),
            (cli, "train"): (lambda inst, kind, **k: f"models.{ModelKind(kind).value}.train",
                             lambda r, inst, *a, **k: {"rows": len(inst)}),
            (cli, "save_model"): (lambda model, path: f"models.{model.kind.value}.save", None),
            (cli, "load_model"): ("models.load", None),  # _wrapped adds the kind
            (cli, "predict"): (lambda model, inst: f"models.{model.kind.value}.predict", None),
            # model_predictor imports this name when it is called
            (models, "predict"): (lambda model, inst: f"models.{model.kind.value}.predict",
                                  None),
            (cli, "round_robin_rank"): ("baselines.round_robin_rank",
                                        lambda r, pred, snaps: {
                                            "pairings": len(snaps) * (len(snaps) - 1) // 2}),
            (cli, "rpi"): ("baselines.rpi", None),
        }
        saved = {key: getattr(*key) for key in wraps}
        try:
            for (module, attr), (name, counts) in wraps.items():
                setattr(module, attr, _wrapped(t, saved[(module, attr)], name, counts))
            codes = {}
            for key, argv in self.commands.items():
                with t.span(f"cli.{argv[0]}"):
                    codes[key] = self._main(argv)
        finally:
            for (module, attr), fn in saved.items():
                setattr(module, attr, fn)
        return self._outcome(codes)

    def test_run(self):
        """The store generated again, and its test season as the CLI adjusts it."""
        if self._test_run is None:
            store, _ = generate_league(self.spec, bayes_sims=LOG_BAYES_SIMS)
            self._test_run = store, run_seasons(
                store, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON,
                AdjustConfig(), through=self.test_season)[self.test_season]
        return self._test_run

    def check(self, outcome):
        """The artifacts of every command that exited 0."""
        ok = outcome.out["ok"]
        problems = []
        for kind in [k.value for k in QUERY_MODELS] + ["pythag"]:
            if ("rank", kind) not in ok:
                continue
            rows = checks.read_csv(self.out / kind / "rankings.csv")
            problems += [f"rank {kind}: {p}" for p in checks.check_ranking(rows, self.teams)]
            if kind == "pythag":
                ratings = {team: pythag_rating(snap)
                           for team, snap in self.test_run()[1].final.items()}
                problems += [f"rank pythag: {p}" for p in checks.check_order(rows, ratings)]
        if ("rank", "rpi") in ok:
            problems += checks.check_rpi(
                checks.read_csv(self.out / "rpi" / "rankings.csv"), self.teams)
        for kind in QUERY_MODELS:
            if ("predict", kind.value) not in ok:
                continue
            rows = checks.read_csv(self.out / kind.value / "prediction.csv")
            if len(rows) != 1:
                problems.append(f"predict {kind.value}: {len(rows)} rows")
            for row in rows:
                problems += checks.check_prediction(row)
        return problems

    def keep_reference(self):
        self.ref = self.work / "out_untraced"
        shutil.rmtree(self.ref, ignore_errors=True)
        self.out.rename(self.ref)

    def same(self, ref, traced):
        """Traced artifacts are byte-identical to the untraced pass's."""
        problems = []
        for path in sorted(p for p in self.ref.rglob("*") if p.is_file()):
            twin = self.out / path.relative_to(self.ref)
            if not twin.is_file() or not filecmp.cmp(path, twin, shallow=False):
                problems.append(f"traced artifact {twin.relative_to(self.work)} differs")
        return problems

    def probe(self, t, traced):
        _probe_layers(t, *self.test_run(), QUERY_SCHEME)

    def artifact_bytes(self):
        sizes = {k.value: (self.out / k.value / "model.json").stat().st_size
                 for k in QUERY_MODELS if (self.out / k.value / "model.json").is_file()}
        sizes["total"] = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return sizes


def _wrapped(t, fn, name, counts):
    """``fn`` inside a span; ``name`` and ``counts`` may depend on the call."""
    def wrapper(*args, **kwargs):
        with t.span(name(*args, **kwargs) if callable(name) else name) as s:
            result = fn(*args, **kwargs)
        if counts is not None:
            s.counts.update(counts(result, *args, **kwargs))
        if s.name == "models.load":     # the kind is known once the file is read
            s.name = f"models.{result.kind.value}.load"
        return result
    return wrapper


WORKLOADS = {w.name: w for w in (Grid, D1, Query)}
