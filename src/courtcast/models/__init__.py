"""Uniform train/predict contract over the four classifier kinds.

    model = train(instances, ModelKind.MLP, hyper={"epochs": 100}, seed=7)
    label, p_win = predict(model, instance)

Every kind is a numpy submodule with a ``HYPER`` table, ``fit``,
``predict_p_win`` and an ``encode_params``/``decode_params`` pair; see them
for the algorithms.  ``save_model``/``load_model`` round-trip a model
through a versioned JSON text file byte-identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from courtcast.features import FeatureScheme, Label, MatchInstance, feature_names
from courtcast.models import forest, mlp, naive_bayes, tree
from courtcast.models.base import (
    ModelError,
    ModelKind,
    TrainedModel,
    check_training_data,
    load_model_doc,
    resolve_hyper,
    resolve_label,
)
from courtcast.models.base import save_model as _save
from courtcast.models.mlp import gradient_check
from courtcast.models.forest import tree_votes
from courtcast.models.tree import internal_node_sizes

_IMPL = {
    ModelKind.NAIVE_BAYES_KDE: naive_bayes,
    ModelKind.MLP: mlp,
    ModelKind.DECISION_TREE: tree,
    ModelKind.RANDOM_FOREST: forest,
}


#: Each model kind's hyperparameters: name -> (default, allowed values).
HYPERPARAMETERS = {kind: impl.HYPER for kind, impl in _IMPL.items()}


def default_hyper(kind: ModelKind) -> dict[str, Any]:
    return resolve_hyper(HYPERPARAMETERS[kind], None, kind)


def train(instances: list[MatchInstance], kind: ModelKind,
          hyper: dict[str, Any] | None = None, seed: int = 0) -> TrainedModel:
    """Fit one model kind; deterministic given the seed."""
    kind = ModelKind(kind)
    hp = resolve_hyper(HYPERPARAMETERS[kind], hyper, kind)
    X, site, y, scheme = check_training_data(instances)
    return TrainedModel(
        kind=kind, scheme=scheme, feature_names=feature_names(scheme),
        class_counts={Label.LOSS.value: int(np.sum(y == 0)),
                      Label.WIN.value: int(np.sum(y == 1))},
        hyper=hp, params=_IMPL[kind].fit(X, site, y, hp, seed))


def predict(model: TrainedModel, instance: MatchInstance) -> tuple[Label, float]:
    """(label, p_win) for the instance's first team."""
    p_win = _IMPL[model.kind].predict_p_win(model, instance)
    if not 0.0 <= p_win <= 1.0:
        raise ModelError(f"model produced invalid probability {p_win}")
    return resolve_label(p_win, instance.location), p_win


def save_model(model: TrainedModel, path: str | Path) -> None:
    _save(model, path, _IMPL[model.kind].encode_params)


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; a malformed one raises :class:`ModelError` naming it."""
    doc = load_model_doc(path)
    try:
        kind = ModelKind(doc["kind"])
        names = tuple(doc["feature_names"])
        return TrainedModel(
            kind=kind,
            scheme=FeatureScheme(doc["scheme"]),
            feature_names=names,
            class_counts=doc["class_counts"],
            hyper=doc["hyper"],
            params=_IMPL[kind].decode_params(doc["params"], len(names)),
        )
    except KeyError as err:
        raise ModelError(f"{path}: malformed model file: missing key {err}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as err:
        raise ModelError(f"{path}: malformed model file: {err}") from None


__all__ = [
    "ModelError", "ModelKind", "TrainedModel",
    "train", "predict", "default_hyper", "HYPERPARAMETERS",
    "save_model", "load_model",
    "gradient_check", "tree_votes", "internal_node_sizes",
    "resolve_label",
]
