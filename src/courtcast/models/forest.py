"""Random forest: 20 bootstrapped trees voting on the outcome.

Each tree trains on a bootstrap resample of the instances and, at every
split, considers only ceil(sqrt(d)) randomly drawn candidate features
(d counts the site categorical as one feature).  Trees grow unpruned.
Per-tree randomness derives from the master seed through independent
spawned streams, so a seed pins the whole ensemble.

The forest's win probability is simply the fraction of trees voting win,
which makes the majority-vote label and the probability consistent by
construction; per-tree votes are exposed for auditing.
"""

from __future__ import annotations

import math

import numpy as np

from courtcast.features import Label, MatchInstance
from courtcast.models.base import (
    ModelError,
    ModelKind,
    Range,
    TrainedModel,
    check_predict_input,
    resolve_label,
)
from courtcast.models.tree import Node, decode_node, encode_node, grow_tree, tree_p_win

HYPER = {  # name -> (default, allowed values)
    "n_trees": (20, Range(int, 1, 10_000)),
    # None -> ceil(sqrt(numeric features + 1 site attribute))
    "candidate_features": (None, Range(int, 1)),
}


def fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> list[Node]:
    d = X.shape[1] + 1
    k = hp["candidate_features"] or math.ceil(math.sqrt(d))
    n = len(y)
    trees: list[Node] = []
    for ss in np.random.SeedSequence(seed).spawn(hp["n_trees"]):
        rng = np.random.default_rng(ss)
        rows = rng.integers(0, n, size=n)
        trees.append(grow_tree(X[rows], site[rows], y[rows],
                               min_rows=0, rng=rng, n_candidates=k,
                               min_branch=1))

    return trees


def tree_votes(model: TrainedModel, instance: MatchInstance) -> list[Label]:
    """Each tree's own vote, applying the tie rule inside each tree."""
    if model.kind is not ModelKind.RANDOM_FOREST:
        raise ModelError("tree_votes applies to random forests only")
    x, site_code = check_predict_input(model, instance)
    return [resolve_label(tree_p_win(t, x, site_code), instance.location)
            for t in model.params]


def predict_p_win(model: TrainedModel, instance: MatchInstance) -> float:
    votes = tree_votes(model, instance)
    return sum(v is Label.WIN for v in votes) / len(votes)


def encode_params(trees: list[Node]) -> list[dict]:
    return [encode_node(t) for t in trees]


def decode_params(doc: list[dict], n_features: int) -> list[Node]:
    if not doc:
        raise ModelError("a forest needs at least one tree")
    return [decode_node(t, n_features) for t in doc]
