"""Uniform train/predict contract over the four classifier kinds.

    model = train(instances, ModelKind.MLP, hyper={"epochs": 100}, seed=7)
    models = train_group({FeatureScheme.ADJ_EFF: X_eff, FeatureScheme.RAW: X_raw},
                         site, y, ModelKind.MLP)   # one model per scheme
    probs = p_win(model, X, site)          # one p(win) per row of X
    label, p = predict(model, instance)    # the same, for one instance

Every kind is a numpy submodule with a ``HYPER`` table (name -> default and
allowed values) and four functions; see them for the algorithms:

* ``fit(X, site, y, hp, seed) -> params`` trains on checked, stacked data;
* ``p_win(params, X, site) -> (m,) array`` scores ``m`` rows of features
  and site codes (``SITE_ORDER`` indices) for the first team;
* ``encode_params(params)`` gives the JSON value ``save_model`` writes, and
  ``decode_params(doc, n_features)`` reads it back, raising
  :class:`ModelError` for anything ``p_win`` could not walk safely.

The MLP also has ``fit_group(Xs, site, y, hp, seed)``, which trains one
network per feature matrix in lockstep; ``train_group`` uses it.

Only this module checks inputs and outputs: feature names, finiteness, and
that every probability lies in [0, 1].  ``save_model``/``load_model``
round-trip a model through a versioned JSON text file byte-identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

import numpy as np

from courtcast.features import SITE_ORDER, FeatureScheme, Label, MatchInstance, feature_names
from courtcast.ingest import named
from courtcast.models import forest, mlp, naive_bayes, tree
from courtcast.models.base import (
    ModelError,
    ModelKind,
    TrainedModel,
    load_model_doc,
    resolve_hyper,
    resolve_label,
)
from courtcast.models.base import save_model as _save
from courtcast.models.mlp import gradient_check

_IMPL = {
    ModelKind.NAIVE_BAYES_KDE: naive_bayes,
    ModelKind.MLP: mlp,
    ModelKind.DECISION_TREE: tree,
    ModelKind.RANDOM_FOREST: forest,
}


#: Each model kind's hyperparameters: name -> (default, allowed values).
HYPERPARAMETERS = {kind: impl.HYPER for kind, impl in _IMPL.items()}


def train_group(Xs: Mapping[FeatureScheme | str, np.ndarray], site: np.ndarray,
                y: np.ndarray, kind: ModelKind | str, hyper: dict[str, Any] | None = None,
                seed: int = 0) -> list[TrainedModel]:
    """Fit one model kind on each of several encodings of one training set:
    ``Xs`` maps each feature scheme to its matrix of the same games, in the
    same order, at sites ``site`` (``SITE_ORDER`` codes) with labels ``y``
    (1 where the first team won).

    Each model is what a fit on its matrix alone gives; MLPs train in
    lockstep (``mlp.fit_group``).  A matrix that does not fit its scheme or
    ``y``, a non-finite value, a single class, or an unknown ``kind`` or
    scheme name raises :class:`ModelError`.
    """
    (kind,) = named([kind], ModelKind, "kind", ModelError)
    hp = resolve_hyper(HYPERPARAMETERS[kind], hyper, kind)
    if not Xs:
        raise ModelError("no training sets")
    site, y = np.asarray(site), np.asarray(y)
    if y.ndim != 1 or site.shape != y.shape:
        raise ModelError(f"{site.shape} sites do not fit {y.shape} labels")
    if not (np.all(np.isin(site, (0, 1, 2))) and np.all(np.isin(y, (0, 1)))):
        raise ModelError("site codes must be 0, 1 or 2 and labels 0 or 1")
    schemes = named(Xs, FeatureScheme, "scheme", ModelError)
    Xs = [np.asarray(X, dtype=float) for X in Xs.values()]
    for scheme, X in zip(schemes, Xs):
        if X.shape != (len(y), len(feature_names(scheme))):
            raise ModelError(f"{scheme.value} training matrix of shape {X.shape} does not "
                             f"fit {len(y)} labels and {len(feature_names(scheme))} features")
        if not np.all(np.isfinite(X)):
            raise ModelError("non-finite feature value in training data")
    classes = set(y.tolist())
    if classes != {0, 1}:
        raise ModelError(
            f"training data must contain both classes, got only "
            f"{'wins' if classes == {1} else 'losses'}")
    fitted = (mlp.fit_group(Xs, site, y, hp, seed) if kind is ModelKind.MLP
              else [_IMPL[kind].fit(X, site, y, hp, seed) for X in Xs])
    return [TrainedModel(
        kind=kind, scheme=scheme, feature_names=feature_names(scheme),
        class_counts={Label.LOSS.value: int(np.sum(y == 0)),
                      Label.WIN.value: int(np.sum(y == 1))},
        hyper=dict(hp), params=params)
        for scheme, params in zip(schemes, fitted)]


def train(instances: list[MatchInstance], kind: ModelKind,
          hyper: dict[str, Any] | None = None, seed: int = 0) -> TrainedModel:
    """Fit one model kind on labeled instances of one scheme; deterministic given the seed."""
    if not instances:
        raise ModelError("no training instances")
    scheme = instances[0].scheme
    if any(inst.scheme is not scheme for inst in instances):
        raise ModelError("mixed feature schemes in training data")
    if any(inst.label is None for inst in instances):
        raise ModelError("unlabeled instance in training data")
    X = np.stack([inst.features for inst in instances])
    site = np.array([SITE_ORDER.index(inst.location) for inst in instances], dtype=int)
    y = np.array([inst.label is Label.WIN for inst in instances], dtype=int)
    return train_group({scheme: X}, site, y, kind, hyper=hyper, seed=seed)[0]


def p_win(model: TrainedModel, X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """p(first team wins) for each row of ``X``, whose columns are the
    model's features, at the sites ``site`` (``SITE_ORDER`` codes)."""
    X, site = np.asarray(X, dtype=float), np.asarray(site)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names) or site.shape != X.shape[:1]:
        raise ModelError(f"predict input of shape {X.shape} with {site.shape} sites "
                         f"does not fit {len(model.feature_names)} features")
    if not np.all(np.isin(site, (0, 1, 2))):
        raise ModelError("site codes must be 0, 1 or 2")
    if not np.all(np.isfinite(X)):
        raise ModelError("non-finite feature value in predict input")
    p = _IMPL[model.kind].p_win(model.params, X, site.astype(np.intp))
    bad = np.flatnonzero(~((0.0 <= p) & (p <= 1.0)))
    if bad.size:
        raise ModelError(f"model produced invalid probability {p[bad[0]]}")
    return p


def predict(model: TrainedModel, instance: MatchInstance) -> tuple[Label, float]:
    """(label, p_win) for the instance's first team: a one-row :func:`p_win`."""
    names = feature_names(instance.scheme)
    if names != model.feature_names:
        raise ModelError(
            f"feature names do not match: model was trained on "
            f"{model.feature_names}, instance carries {names}")
    p = float(p_win(model, [instance.features],
                    [SITE_ORDER.index(instance.location)])[0])
    return resolve_label(p, instance.location), p


def save_model(model: TrainedModel, path: str | Path) -> None:
    _save(model, path, _IMPL[model.kind].encode_params)


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; a malformed one raises :class:`ModelError` naming it."""
    doc = load_model_doc(path)
    try:
        (kind,) = named([doc["kind"]], ModelKind, "kind", ModelError)
        names = tuple(doc["feature_names"])
        return TrainedModel(
            kind=kind,
            scheme=named([doc["scheme"]], FeatureScheme, "scheme", ModelError)[0],
            feature_names=names,
            class_counts=doc["class_counts"],
            hyper=doc["hyper"],
            params=_IMPL[kind].decode_params(doc["params"], len(names)),
            run_config=doc.get("run_config"),
        )
    except KeyError as err:
        raise ModelError(f"{path}: malformed model file: missing key {err}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as err:
        raise ModelError(f"{path}: malformed model file: {err}") from None


__all__ = [
    "ModelError", "ModelKind", "TrainedModel",
    "train", "train_group", "p_win", "predict", "HYPERPARAMETERS",
    "save_model", "load_model",
    "gradient_check",
    "resolve_label",
]
