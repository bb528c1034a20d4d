"""Walk-forward evaluation and the accuracy-ceiling experiment.

Evaluation is strictly time-ordered: a model trains on all seasons before
the test season and predicts each test game from pre-match team state only.
Reports carry every prediction, the cumulative in-season accuracy series,
and the resolved configuration, and serialize byte-identically for fixed
seeds.

Both entry points run one grid core, a (model kind x feature scheme) grid
on a store and a test season: one adjust pass, streamed season by season,
in which each training season is encoded for every scheme as its run ends
and is dropped before the next season runs; the test season's sets are
encoded from its run, after which only its games' keys are kept, with its
rows while pythag needs them.  Then one job per trained kind is trained on
those arrays, the baselines are scored in process, and each cell's report
is built from the test games, their site codes and labels, and its win
probabilities in game order.  A walk-forward
evaluation is the grid of one cell; ``evaluate_predictor`` builds the same
report from a predictor's picks on instances.  The ceiling experiment runs
the grid on a synthetic league whose best achievable accuracy is known,
reporting each cell's gap to that bound.  Each model kind is one job; the
jobs run on up to one forked process per usable core, in process when that
is one, and every output is the same bit for bit.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from courtcast.adjust import AdjustConfig, AveragingScheme, Seeding, season_runs
from courtcast.baselines import HOME_WINS_P, PythagParams, pythag_predictor
from courtcast.features import (
    SITE_ORDER,
    FeatureScheme,
    Label,
    MatchInstance,
    encode_runs,
    training_seasons,
)
from courtcast.ingest import CourtcastError, SeasonStore, named
from courtcast.models import HYPERPARAMETERS, ModelError, ModelKind, p_win, train_group
from courtcast.models.base import POSITIVE, first_team_wins, resolve_hyper
from courtcast.stats import Site
from courtcast.synthetic import SyntheticLeagueSpec, league_games, league_truth


class EvalError(CourtcastError):
    """Raised for invalid evaluation inputs."""


#: Predictor kinds that need no training beyond the adjust pass.
BASELINE_KINDS = ("home_wins", "pythag")
#: Every predictor's hyperparameters, baselines' included.
_HYPER = {**HYPERPARAMETERS, "pythag": {"y": (PythagParams.y, POSITIVE)}}

PredictFn = Callable[[MatchInstance], tuple[Label, float]]


def binomial_halfwidth(p: float, n: int) -> float:
    """Normal-approximation half-width of a 99% binomial proportion CI."""
    if not 0.0 <= p <= 1.0:
        raise EvalError(f"proportion must be in [0, 1], got {p}")
    if n < 1:
        raise EvalError(f"sample size must be positive, got {n}")
    z = NormalDist().inv_cdf(0.995)
    return z * math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class Prediction:
    date: dt.date
    team_first: str
    team_second: str
    location: Site
    predicted: Label
    actual: Label
    p_win: float

    @property
    def correct(self) -> bool:
        return self.predicted is self.actual


@dataclass(frozen=True)
class EvalReport:
    """One walk-forward cell: every prediction plus summary statistics."""

    test_season: int
    kind: str
    scheme: str
    averaging: str
    seeding: str
    seed: int
    n_train: int
    n_test: int
    accuracy: float
    confusion: dict[str, int]
    predictions: tuple[Prediction, ...]
    series: tuple[tuple[dt.date, float], ...]
    config: dict[str, object]

    def as_dict(self) -> dict:
        return {
            "test_season": self.test_season, "kind": self.kind,
            "scheme": self.scheme, "averaging": self.averaging,
            "seeding": self.seeding, "seed": self.seed,
            "n_train": self.n_train, "n_test": self.n_test,
            "accuracy": self.accuracy, "confusion": dict(self.confusion),
            "config": dict(self.config),
            "series": [[d.isoformat(), acc] for d, acc in self.series],
            "predictions": [
                [p.date.isoformat(), p.team_first, p.team_second,
                 p.location.value, p.predicted.value, p.actual.value, p.p_win]
                for p in self.predictions],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=1) + "\n"


def evaluate_predictor(instances: Sequence[MatchInstance], predict_fn: PredictFn,
                       *, test_season: int, kind: str, scheme: str,
                       averaging: str, seeding: str, seed: int,
                       n_train: int, config: Mapping[str, object]) -> EvalReport:
    """Score a predictor on labeled instances and assemble the report.

    Instances are processed in canonical (date, teams) order regardless of
    the order given, so the report never depends on evaluation order.
    """
    if any(inst.label is None for inst in instances):
        raise EvalError("evaluation instances must be labeled")
    ordered = sorted(instances, key=lambda i: (i.date, i.team_first, i.team_second))
    picks = [predict_fn(inst) for inst in ordered]
    return _report([(i.date, i.team_first, i.team_second) for i in ordered],
                   [SITE_ORDER.index(i.location) for i in ordered],
                   [i.label is Label.WIN for i in ordered],
                   [label is Label.WIN for label, _ in picks], [p for _, p in picks],
                   config, test_season=test_season, kind=kind, scheme=scheme,
                   averaging=averaging, seeding=seeding, seed=seed, n_train=n_train)


def _report(keys: Sequence[tuple[dt.date, str, str]], site: Sequence[int],
            won: Sequence[int], picked: Sequence[int], p_win: Sequence[float],
            config: Mapping[str, object], **meta) -> EvalReport:
    """The report of one predictor on test games in (date, team_first,
    team_second) order: ``keys`` holds each game's (date, first team, second
    team), ``site`` its ``SITE_ORDER`` code, ``won`` whether the first team
    won, ``picked`` whether the predictor picked it, and ``p_win`` its
    probability; ``meta`` holds the report's fields that do not come from
    the games."""
    if not keys:
        raise EvalError("nothing to evaluate")
    preds = []
    confusion = {"pred_win_actual_win": 0, "pred_win_actual_loss": 0,
                 "pred_loss_actual_win": 0, "pred_loss_actual_loss": 0}
    for (date, first, second), code, actual, predicted, p in zip(
            keys, site, won, picked, p_win, strict=True):
        predicted = Label.WIN if predicted else Label.LOSS
        actual = Label.WIN if actual else Label.LOSS
        confusion[f"pred_{predicted.value}_actual_{actual.value}"] += 1
        preds.append(Prediction(
            date=date, team_first=first, team_second=second, location=SITE_ORDER[code],
            predicted=predicted, actual=actual, p_win=float(p)))

    n = len(preds)
    series, hits = [], 0
    for i, p in enumerate(preds):
        hits += p.correct
        last_of_day = i + 1 == n or preds[i + 1].date != p.date
        if last_of_day:
            series.append((p.date, hits / (i + 1)))

    return EvalReport(
        **meta, n_test=n, accuracy=hits / n, confusion=confusion,
        predictions=tuple(preds), series=tuple(series), config=dict(config))


def resolve_grid(kinds: Sequence[ModelKind | str],
                 hyper: Mapping[ModelKind | str, Mapping[str, object]] | None = None,
                 schemes: Sequence[FeatureScheme | str] = (),
                 baselines: Sequence[str] = BASELINE_KINDS) -> tuple[list, list, dict]:
    """Check a run's names before any work: the ``kinds`` (each a
    :class:`ModelKind`, one of ``baselines``, or a name), the ``schemes``, and
    ``hyper``, which maps a kind to overrides of its hyperparameters.

    Returns the kinds, the schemes, and each kind's hyperparameters: its
    defaults overridden, a baseline's read as floats.  An unknown or repeated
    name, or an override for a kind not run, raises :class:`EvalError`.
    """
    kinds = named(kinds, ModelKind, "kind", EvalError, baselines)
    schemes = named(schemes, FeatureScheme, "scheme", EvalError)
    overrides = {str(getattr(k, "value", k)): v for k, v in (hyper or {}).items()}
    unrun = sorted(set(overrides).difference(kinds))    # a ModelKind is its name
    if unrun:
        raise EvalError(f"hyper overrides name kinds the grid does not run: {unrun}")
    resolved = {}
    for kind in kinds:
        try:
            values = resolve_hyper(_HYPER.get(kind, {}), overrides.get(kind), kind)
        except ModelError as err:
            raise EvalError(str(err)) from None
        # a baseline's echo reads as floats, however the value was typed
        resolved[kind] = values if isinstance(kind, ModelKind) else {
            key: float(value) for key, value in values.items()}
    return kinds, schemes, resolved


def _kind_probs(train: tuple[dict, np.ndarray, np.ndarray],
                test: tuple[dict, np.ndarray, np.ndarray],
                kind: ModelKind, hyper: dict[str, object], seed: int) -> list[list[float]]:
    """Each scheme's test-set win probabilities from ``kind``, trained once
    over every scheme's matrix with :func:`train_group`; ``train`` and
    ``test`` are :func:`encode_runs` arrays."""
    Xs, site, _ = test
    return [p_win(model, Xs[model.scheme], site).tolist()
            for model in train_group(*train, kind, hyper=hyper, seed=seed)]


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker_jobs: list[tuple[Callable, tuple]] = []   # set in each worker at fork


def _take_jobs(jobs: list[tuple[Callable, tuple]]) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _run_job(index: int):
    fn, args = _worker_jobs[index]
    return fn(*args)


def _run_jobs(jobs: list[tuple[Callable, tuple]]) -> list:
    """Each ``(fn, args)`` job's ``fn(*args)``, in order: on one forked
    worker per usable core, at most one per job, or in process when that is
    one.  Workers inherit the jobs at fork and send back only results (the
    ceiling grid's datasets take about 45 ms to pickle); an error in a job
    is raised here with its type and message, and every worker has ended
    when this returns."""
    workers = min(_usable_cores(), len(jobs))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(*args) for fn, args in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_take_jobs, initargs=(jobs,))
    try:
        futures = [pool.submit(_run_job, i) for i in range(len(jobs))]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _grid(store: SeasonStore, test_season: int, kinds: list, schemes: list,
          hyper: dict, averaging: AveragingScheme, seeding: Seeding,
          config: AdjustConfig, seed: int) -> Iterator[EvalReport]:
    """Every (scheme, kind) cell's report on ``test_season``, in that order;
    ``kinds``, ``schemes`` and each kind's ``hyper`` are as
    :func:`resolve_grid` returns them.  The reports are built one at a time
    as they are read, so a caller that keeps a summary of each holds one
    report's predictions at once.

    The adjust pass runs once, a season at a time: each training season is
    encoded for every scheme as soon as its run ends, and the run is then
    dropped.  Of the test season's run only its games' keys are kept once
    it is encoded, with its rows if pythag scores them.  Each trained kind
    is one :func:`_kind_probs` job, which trains it once over all schemes;
    :func:`_run_jobs` runs these.  The baselines are scored in process.
    """
    n_past = len(training_seasons(store, test_season))
    past = []
    for run in season_runs(store, averaging, seeding, config, through=test_season):
        if len(past) == n_past:
            break
        past.append(encode_runs([run], schemes))
        del run     # a run holds several times its season's arrays
    Xs, sites, ys = zip(*past)
    train = ({scheme: np.concatenate([X[scheme] for X in Xs]) for scheme in schemes},
             np.concatenate(sites), np.concatenate(ys))
    test = encode_runs([run], schemes)
    # the test games are in the run's game order, which is the report's
    # (date, team_first, team_second) order
    keys, pre_rows = run.columns.keys(), run.pre_rows if "pythag" in kinds else None
    del past, Xs, sites, ys, run
    trained = [kind for kind in kinds if isinstance(kind, ModelKind)]
    probs = dict(zip(trained, _run_jobs([(_kind_probs, (train, test, kind, hyper[kind], seed))
                                         for kind in trained])))
    _, site, y = test
    codes, won, n_train = site.tolist(), y.tolist(), len(train[2])
    if "home_wins" in kinds:
        probs["home_wins"] = [[HOME_WINS_P[SITE_ORDER[code]] for code in codes]] * len(schemes)
    if "pythag" in kinds:
        # each game's two sides are consecutive rows, team_a first
        sides = range(2 * len(keys))
        probs["pythag"] = [pythag_predictor(PythagParams(**hyper["pythag"]))(
            [team for _, *pair in keys for team in pair],
            pre_rows.reshape(len(sides), -1), sides[::2], sides[1::2])] * len(schemes)

    def reports() -> Iterator[EvalReport]:
        for s, scheme in enumerate(schemes):
            for kind in kinds:
                p = probs[kind][s]
                yield _report(
                    keys, codes, won, first_team_wins(np.asarray(p), site).tolist(), p,
                    {**asdict(config), "hyper": hyper[kind]},
                    test_season=test_season, kind=getattr(kind, "value", kind),
                    scheme=scheme.value, averaging=averaging.value,
                    seeding=seeding.value, seed=seed, n_train=n_train)
    return reports()


def walk_forward_evaluate(store: SeasonStore, test_season: int,
                          kind: ModelKind | str, scheme: FeatureScheme,
                          averaging: AveragingScheme = AveragingScheme.ALPHA,
                          seeding: Seeding = Seeding.PRIOR_SEASON, *,
                          seed: int = 0, config: AdjustConfig | None = None,
                          hyper: Mapping[str, object] | None = None) -> EvalReport:
    """Train on all seasons before ``test_season``, score on its games.

    ``kind`` is a trainable :class:`ModelKind` or one of the baseline
    strings in :data:`BASELINE_KINDS` ("home_wins" picks the home side,
    "pythag" compares rating-derived win probabilities).  The run is the
    ceiling grid of one cell, in process, with the same bits.
    """
    (kind,), (scheme,), resolved = resolve_grid([kind], {kind: hyper or {}}, [scheme])
    (averaging,) = named([averaging], AveragingScheme, "averaging", EvalError)
    (seeding,) = named([seeding], Seeding, "seeding", EvalError)
    [report] = _grid(store, test_season, [kind], [scheme], resolved, averaging,
                     seeding, config or AdjustConfig(), seed)
    return report


# ---------------------------------------------------------------------------
# Accuracy-ceiling experiment

@dataclass(frozen=True)
class CeilingCell:
    kind: str
    scheme: str
    accuracy: float
    gap: float      # accuracy - bound; positive means the bound was beaten
    n_test: int


@dataclass(frozen=True)
class CeilingReport:
    """Accuracy grid on a league with a known best achievable accuracy."""

    bound: float
    halfwidth: float          # 99% binomial half-width at the bound
    n_test: int
    test_season: int
    cells: tuple[CeilingCell, ...]
    config: dict[str, object]

    def as_dict(self) -> dict:
        return {
            "bound": self.bound, "halfwidth": self.halfwidth,
            "n_test": self.n_test, "test_season": self.test_season,
            "config": dict(self.config),
            "cells": [[c.kind, c.scheme, c.accuracy, c.gap, c.n_test]
                      for c in self.cells],
        }


def glass_ceiling_experiment(
        spec: SyntheticLeagueSpec,
        kinds: Sequence[ModelKind | str],
        schemes: Sequence[FeatureScheme | str],
        averaging: AveragingScheme = AveragingScheme.ALPHA,
        seeding: Seeding = Seeding.PRIOR_SEASON, *,
        seed: int = 0, config: AdjustConfig | None = None,
        hyper_overrides: Mapping[str, Mapping[str, object]] | None = None) -> CeilingReport:
    """Run every (kind, scheme) cell against a known accuracy bound.

    The league's games and its bound, the best achievable accuracy every
    cell is compared to, are generated from ``spec`` (its last season is the
    test season) before any model trains.  The games run through the grid
    core, where each cell scores as its own walk-forward evaluation does.
    Each model kind trains once over all schemes (an MLP's networks in
    lockstep) and scores its test sets, as one job; the jobs run on up to
    one forked process per usable core, with the same bits as in process.
    The report lists the cells in (scheme, kind) order.
    ``hyper_overrides`` maps a kind to hyperparameter overrides for that
    kind's cells; :func:`resolve_grid` checks them with the kinds and schemes
    before the league is made.
    """
    if not kinds or not schemes:
        raise EvalError(f"the experiment needs at least one kind and one scheme, "
                        f"got {len(kinds)} kinds and {len(schemes)} schemes")
    if spec.n_seasons < 2:
        raise EvalError("the experiment needs at least one season before the test season")
    kinds, schemes, resolved = resolve_grid(kinds, hyper_overrides, schemes)
    (averaging,) = named([averaging], AveragingScheme, "averaging", EvalError)
    (seeding,) = named([seeding], Seeding, "seeding", EvalError)
    store = league_games(spec)
    truth = league_truth(spec)
    test_season = spec.first_season + spec.n_seasons - 1
    config = config or AdjustConfig()

    reports = _grid(store, test_season, kinds, schemes, resolved, averaging,
                    seeding, config, seed)
    cells = tuple(CeilingCell(kind=r.kind, scheme=r.scheme, accuracy=r.accuracy,
                              gap=r.accuracy - truth.bayes_accuracy, n_test=r.n_test)
                  for r in reports)
    n_test = cells[-1].n_test

    echo = {**asdict(config), "seed": seed,
            "averaging": averaging.value, "seeding": seeding.value,
            "hyper_overrides": {str(getattr(k, "value", k)): dict(v)
                                for k, v in (hyper_overrides or {}).items()},
            "spec": asdict(spec)}
    return CeilingReport(
        bound=truth.bayes_accuracy,
        halfwidth=binomial_halfwidth(truth.bayes_accuracy, n_test),
        n_test=n_test, test_season=test_season, config=echo,
        cells=cells)
