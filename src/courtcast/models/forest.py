"""Random forest: 20 bootstrapped trees voting on the outcome.

Each tree trains on a bootstrap resample of the instances and, at every
split, considers only ceil(sqrt(d)) randomly drawn candidate features
(d counts the site categorical as one feature).  Trees grow unpruned.
Per-tree randomness derives from the master seed through independent
spawned streams, so a seed pins the whole ensemble, and a tree does not
depend on how many others grow.

Trees grow ``_GROUP`` at a time, in lockstep (see :mod:`tree`): each group
draws its bootstrap samples, one row-index array per tree, and grows them
together, so a forest of any size holds at most one group's samples.

The forest's win probability is simply the fraction of trees voting win,
which makes the majority-vote label and the probability consistent by
construction.
"""

from __future__ import annotations

import math

import numpy as np

from courtcast.models import tree
from courtcast.models.base import ModelError, Range, first_team_wins
from courtcast.models.tree import Tree, grow_trees

HYPER = {  # name -> (default, allowed values)
    "n_trees": (20, Range(int, 1, 10_000)),
    # None -> ceil(sqrt(numeric features + 1 site attribute))
    "candidate_features": (None, Range(int, 1)),
}

_GROUP = 20   # trees grown in lockstep at once


def fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> list[Tree]:
    d = X.shape[1] + 1
    k = hp["candidate_features"] or math.ceil(math.sqrt(d))
    streams = np.random.SeedSequence(seed).spawn(hp["n_trees"])
    trees: list[Tree] = []
    for start in range(0, len(streams), _GROUP):
        rngs = [np.random.default_rng(ss) for ss in streams[start:start + _GROUP]]
        samples = [rng.integers(0, len(y), size=len(y)) for rng in rngs]
        trees += grow_trees(X, site, y, samples, min_rows=0, min_branch=1,
                            rngs=rngs, n_candidates=k)
    return trees


def p_win(trees: list[Tree], X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Fraction of trees voting win; each tree's vote applies the tie rule
    (``first_team_wins``).  Trees are walked one at a time, so temporaries
    stay one tree by rows."""
    votes = np.zeros(len(X), dtype=int)
    for t in trees:
        votes += first_team_wins(tree.p_win(t, X, site), site)
    return votes / len(trees)


def encode_params(trees: list[Tree]) -> list[dict]:
    return [tree.encode_params(t) for t in trees]


def decode_params(doc: list[dict], n_features: int) -> list[Tree]:
    if not doc:
        raise ModelError("a forest needs at least one tree")
    return [tree.decode_params(t, n_features) for t in doc]
