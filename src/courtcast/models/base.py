"""Shared model plumbing: kinds, the train/predict contract, tie rule, save/load.

All four classifiers consume the same instance shape — a numeric feature
vector plus the 3-valued game-site categorical — and produce a win
probability for the first team.  Exactly at p = 0.5 the tie is broken the
way the simplest baseline would: take the home team, and at a neutral site
the first (lexicographically smaller) team.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from courtcast.features import SITE_ORDER, FeatureScheme, Label
from courtcast.ingest import CourtcastError
from courtcast.stats import Site


class ModelError(CourtcastError):
    """Raised for invalid training data, hyperparameters, or predict inputs."""


class ModelKind(str, Enum):
    NAIVE_BAYES_KDE = "naive_bayes_kde"
    MLP = "mlp"
    DECISION_TREE = "decision_tree"
    RANDOM_FOREST = "random_forest"


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier: kind, the exact feature contract, and parameters.

    ``class_counts`` records the training class balance (the prior
    information several kinds use); ``params`` is kind-specific and opaque
    to everything except the kind's own ``p_win`` and codec.  ``run_config``
    is the resolved configuration of the command that trained the model,
    saved with it; None when the model comes from the library.
    """

    kind: ModelKind
    scheme: FeatureScheme
    feature_names: tuple[str, ...]
    class_counts: dict[str, int]
    hyper: dict[str, Any]
    params: Any
    run_config: dict[str, Any] | None = None


def first_team_wins(p_win: np.ndarray | float, site: np.ndarray | int) -> np.ndarray | bool:
    """The tie rule, elementwise: whether the first team is picked at win
    probability ``p_win`` and site code ``site`` (a ``SITE_ORDER`` index).
    Exactly 0.5 goes to the home team, or at a neutral site to the first."""
    return (p_win > 0.5) | (p_win == 0.5) & (site != SITE_ORDER.index(Site.AWAY))


def resolve_label(p_win: float, location: Site) -> Label:
    """Decision threshold 0.5 with the home-team tie rule at exactly 0.5."""
    return Label.WIN if first_team_wins(p_win, SITE_ORDER.index(location)) else Label.LOSS


class Range(NamedTuple):
    """The values one hyperparameter takes: ``number`` (int or float) values
    from ``low`` (excluded when ``open_low``) up to ``high``."""

    number: type
    low: float
    high: float = sys.float_info.max
    open_low: bool = False

    def admits(self, value: Any) -> bool:
        # comparisons reject nan, infinities and ints too large for a float
        return (isinstance(value, numbers.Integral if self.number is int else numbers.Real)
                and not isinstance(value, bool) and value <= self.high
                and (self.low < value if self.open_low else self.low <= value))

    def __str__(self) -> str:
        text = ("an integer" if self.number is int else "a number") + \
            (f" > {self.low}" if self.open_low else f" >= {self.low}")
        return text + (f" and <= {self.high}" if self.high < sys.float_info.max else "")


POSITIVE = Range(float, 0.0, open_low=True)


def resolve_hyper(spec: dict[str, tuple[Any, Range]], hyper: dict[str, Any] | None,
                  kind: ModelKind | str) -> dict[str, Any]:
    """The defaults of ``spec`` (name -> (default, allowed values)) overridden
    by ``hyper``; an unknown name, a wrong type or a value out of range raises
    :class:`ModelError` naming it.  A default of None also admits None."""
    name = getattr(kind, "value", kind)
    merged = {key: default for key, (default, _) in spec.items()}
    for key, value in (hyper or {}).items():
        if not spec:
            raise ModelError(f"{name} takes no hyperparameters, got {sorted(hyper)}")
        if key not in spec:
            raise ModelError(f"unknown hyperparameter {key!r} for {name} "
                             f"(valid: {sorted(spec)})")
        default, allowed = spec[key]
        if not (value is None and default is None or allowed.admits(value)):
            raise ModelError(f"hyperparameter {key!r} for {name} must be {allowed}, "
                             f"got {value!r}")
        merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# Serialization: a small versioned JSON text format.  Floats are written via
# repr (shortest round-trip), so save -> load -> save is byte-identical.

FORMAT_NAME = "courtcast-model"
FORMAT_VERSION = 2


def save_model(model: TrainedModel, path: str | Path,
               encode_params) -> None:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": model.kind.value,
        "scheme": model.scheme.value,
        "feature_names": list(model.feature_names),
        "class_counts": model.class_counts,
        "hyper": model.hyper,
        "params": encode_params(model.params),
    }
    if model.run_config is not None:
        doc["run_config"] = model.run_config
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n",
                          encoding="utf-8")


def load_model_doc(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ModelError(f"{path}: not a {FORMAT_NAME} file ({err})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelError(f"{path}: unsupported format version {doc.get('version')}")
    return doc
