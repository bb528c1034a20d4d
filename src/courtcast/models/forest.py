"""Random forest: 20 bootstrapped trees voting on the outcome.

Each tree trains on a bootstrap resample of the instances and, at every
split, considers only ceil(sqrt(d)) randomly drawn candidate features
(d counts the site categorical as one feature).  Trees grow unpruned.
Per-tree randomness derives from the master seed through independent
spawned streams, so a seed pins the whole ensemble.

The forest's win probability is simply the fraction of trees voting win,
which makes the majority-vote label and the probability consistent by
construction.
"""

from __future__ import annotations

import math

import numpy as np

from courtcast.features import SITE_ORDER
from courtcast.models import tree
from courtcast.models.base import ModelError, Range
from courtcast.models.tree import Tree, grow_tree
from courtcast.stats import Site

HYPER = {  # name -> (default, allowed values)
    "n_trees": (20, Range(int, 1, 10_000)),
    # None -> ceil(sqrt(numeric features + 1 site attribute))
    "candidate_features": (None, Range(int, 1)),
}

_AWAY = SITE_ORDER.index(Site.AWAY)


def fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> list[Tree]:
    d = X.shape[1] + 1
    k = hp["candidate_features"] or math.ceil(math.sqrt(d))
    n = len(y)
    trees: list[Tree] = []
    for ss in np.random.SeedSequence(seed).spawn(hp["n_trees"]):
        rng = np.random.default_rng(ss)
        rows = rng.integers(0, n, size=n)
        trees.append(grow_tree(X[rows], site[rows], y[rows],
                               min_rows=0, rng=rng, n_candidates=k,
                               min_branch=1))

    return trees


def p_win(trees: list[Tree], X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Fraction of trees voting win; each tree's vote applies the tie rule
    (exactly 0.5 goes to the home or, at a neutral site, the first team).
    Trees are walked one at a time, so temporaries stay one tree by rows."""
    votes = np.zeros(len(X), dtype=int)
    for t in trees:
        p = tree.p_win(t, X, site)
        votes += (p > 0.5) | (p == 0.5) & (site != _AWAY)
    return votes / len(trees)


def encode_params(trees: list[Tree]) -> list[dict]:
    return [tree.encode_params(t) for t in trees]


def decode_params(doc: list[dict], n_features: int) -> list[Tree]:
    if not doc:
        raise ModelError("a forest needs at least one tree")
    return [tree.decode_params(t, n_features) for t in doc]
