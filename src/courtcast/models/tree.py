"""Decision tree with gain-ratio splits, in the classic C4.5 mold.

Numeric features split binarily at midpoints between consecutive distinct
sorted values (per feature, the threshold maximizing information gain);
the game-site categorical splits three ways in one step.  Across features,
the winner is the split with the best gain ratio among candidates whose
gain is at least the average positive gain — the standard guard without
which gain ratio rewards splitting one row off at a time.

Pre-pruning follows the classic per-branch rule: a split is admissible
only if at least two of its branches receive ``min_node_fraction`` of the
training rows (1% by default, never fewer than 2), and a node too small to
split that way becomes a leaf.  No internal node can therefore sit below
the threshold, and no split can shave off a handful of noisy rows.

The same grower serves the random forest, which disables pruning
(``min_branch=1``) and restricts each node to a random subset of candidate
features.

A grown tree is one table of node arrays (:class:`Tree`), root first, in
preorder, so every child index is greater than its parent's.  Node ``i``
splits on column ``feature[i]`` (a row goes to ``children[i, 0]`` if its
value is ``<= threshold[i]``, else to ``children[i, 1]``), or on the site
(``SITE_FEATURE``; ``children[i]`` is indexed by site code), or is a leaf
(``LEAF``) whose p(win) is ``wins[i] / n[i]``.  ``n`` and ``wins`` count the
training rows that reached each node.  ``p_win`` walks all rows down the
table at once, and the same arrays are what ``model.json`` stores, as flat
lists; ``children`` there lists only the slots each node uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from courtcast.models.base import ModelError, Range

HYPER = {  # name -> (default, allowed values)
    "min_node_fraction": (0.01, Range(float, 0.0, 1.0)),
}

SITE_FEATURE = -1  # pseudo-index for the categorical site attribute
LEAF = -2          # the feature code of a leaf


@dataclass(frozen=True)
class Tree:
    """A grown tree as one node table (see the module docstring).  Child
    slots a node does not use hold 0; ``threshold`` is 0.0 off numeric splits."""

    feature: np.ndarray     # (k,) int
    threshold: np.ndarray   # (k,) float
    children: np.ndarray    # (k, 3) int
    n: np.ndarray           # (k,) int
    wins: np.ndarray        # (k,) int


@dataclass(frozen=True)
class _Candidate:
    gain: float
    ratio: float
    feature: int
    threshold: float | None


def _entropy(wins: float, n: float) -> float:
    if n <= 0 or wins <= 0 or wins >= n:
        return 0.0
    p = wins / n
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _best_numeric_split(x: np.ndarray, y: np.ndarray, feature: int,
                        min_branch: int) -> _Candidate | None:
    """Best-gain threshold for one numeric column, scored by gain ratio."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = len(ys)
    # candidate cut positions: between consecutive distinct values, leaving
    # at least min_branch rows on each side
    diff = np.nonzero(xs[1:] != xs[:-1])[0]
    diff = diff[(diff + 1 >= min_branch) & (n - diff - 1 >= min_branch)]
    if diff.size == 0:
        return None
    total_wins = float(np.sum(ys))
    parent = _entropy(total_wins, n)
    cum_wins = np.cumsum(ys)

    left_n = (diff + 1).astype(float)
    left_wins = cum_wins[diff].astype(float)
    right_n = n - left_n
    right_wins = total_wins - left_wins

    def ent(w, m):
        out = np.zeros_like(m)
        ok = (m > 0) & (w > 0) & (w < m)
        p = np.divide(w, m, out=np.zeros_like(m), where=m > 0)
        pc = 1.0 - p
        out[ok] = -(p[ok] * np.log2(p[ok]) + pc[ok] * np.log2(pc[ok]))
        return out

    child = (left_n * ent(left_wins, left_n) + right_n * ent(right_wins, right_n)) / n
    gain = parent - child
    best = int(np.argmax(gain))     # first max -> lowest threshold on ties
    if gain[best] <= 1e-12:
        return None
    frac = left_n[best] / n
    split_info = -(frac * math.log2(frac) + (1 - frac) * math.log2(1 - frac))
    if split_info <= 0:
        return None
    thresh = (xs[diff[best]] + xs[diff[best] + 1]) / 2.0
    return _Candidate(gain=float(gain[best]), ratio=float(gain[best]) / split_info,
                      feature=feature, threshold=float(thresh))


def _site_split(site: np.ndarray, y: np.ndarray,
                min_branch: int) -> _Candidate | None:
    n = len(y)
    parent = _entropy(float(np.sum(y)), n)
    child = 0.0
    split_info = 0.0
    n_sized = 0  # branches large enough to count toward admissibility
    for code in (0, 1, 2):
        mask = site == code
        m = int(np.sum(mask))
        if m == 0:
            continue
        if m >= min_branch:
            n_sized += 1
        child += m * _entropy(float(np.sum(y[mask])), m) / n
        frac = m / n
        split_info -= frac * math.log2(frac)
    gain = parent - child
    if n_sized < 2 or gain <= 1e-12 or split_info <= 0:
        return None
    return _Candidate(gain=gain, ratio=gain / split_info,
                      feature=SITE_FEATURE, threshold=None)


def _select_split(cands: list[_Candidate]) -> _Candidate | None:
    """Gain-ratio winner among candidates with at least average gain."""
    if not cands:
        return None
    avg_gain = sum(c.gain for c in cands) / len(cands)
    eligible = [c for c in cands if c.gain >= avg_gain - 1e-12]
    return max(eligible, key=lambda c: c.ratio)  # stable: first max wins ties


def grow_tree(X: np.ndarray, site: np.ndarray, y: np.ndarray,
              min_rows: int, rng: np.random.Generator | None = None,
              n_candidates: int | None = None,
              min_branch: int | None = None) -> Tree:
    """Recursive grower; rng/n_candidates enable forest-style feature sampling.

    ``min_branch`` is the per-branch admissibility minimum (defaults to
    ``max(2, min_rows)``); pass 1 to grow unrestricted forest-style trees.
    """
    d = X.shape[1]
    if min_branch is None:
        min_branch = max(2, min_rows)
    nodes: list[tuple[int, float, list[int], int, int]] = []

    def add(feature: int, threshold: float, n: int, wins: int) -> int:
        nodes.append((feature, threshold, [0, 0, 0], n, wins))
        return len(nodes) - 1

    def build(idx: np.ndarray) -> int:
        n = len(idx)
        wins = int(np.sum(y[idx]))
        if wins == 0 or wins == n or n < max(2, min_rows):
            return add(LEAF, 0.0, n, wins)

        features = list(range(d)) + [SITE_FEATURE]
        if n_candidates is not None and n_candidates < len(features):
            pick = rng.choice(len(features), size=n_candidates, replace=False)
            features = [features[i] for i in sorted(pick)]

        cands = []
        for f in features:
            cand = (_site_split(site[idx], y[idx], min_branch) if f == SITE_FEATURE
                    else _best_numeric_split(X[idx, f], y[idx], f, min_branch))
            if cand is not None:
                cands.append(cand)
        best = _select_split(cands)
        if best is None:
            return add(LEAF, 0.0, n, wins)

        if best.feature == SITE_FEATURE:
            node = add(SITE_FEATURE, 0.0, n, wins)
            for code in (0, 1, 2):
                sub = idx[site[idx] == code]
                # an empty branch falls back to the parent's stats
                nodes[node][2][code] = add(LEAF, 0.0, n, wins) if len(sub) == 0 else build(sub)
            return node

        node = add(best.feature, best.threshold, n, wins)
        mask = X[idx, best.feature] <= best.threshold
        nodes[node][2][:2] = build(idx[mask]), build(idx[~mask])
        return node

    build(np.arange(len(y)))
    feature, threshold, children, n, wins = zip(*nodes)
    return Tree(feature=np.array(feature), threshold=np.array(threshold, dtype=float),
                children=np.array(children), n=np.array(n), wins=np.array(wins))


def p_win(tree: Tree, X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """The training win fraction of the leaf each row reaches, all rows at once."""
    node = np.zeros(len(X), dtype=np.intp)
    rows = np.arange(len(X))
    while rows.size:
        rows = rows[tree.feature[node[rows]] != LEAF]
        at = node[rows]
        f = tree.feature[at]
        right = ~(X[rows, np.maximum(f, 0)] <= tree.threshold[at])
        node[rows] = tree.children[at, np.where(f == SITE_FEATURE, site[rows], right)]
    return tree.wins[node] / tree.n[node]


def fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> Tree:
    min_rows = math.ceil(hp["min_node_fraction"] * len(y))
    return grow_tree(X, site, y, min_rows=min_rows)


def _used(feature: np.ndarray) -> np.ndarray:
    """(k, 3) mask of the child slots each node uses: none, three or two."""
    arity = np.where(feature == LEAF, 0, np.where(feature == SITE_FEATURE, 3, 2))
    return np.arange(3) < arity[:, None]


def encode_params(tree: Tree) -> dict:
    return {"feature": tree.feature.tolist(), "threshold": tree.threshold.tolist(),
            "children": tree.children[_used(tree.feature)].tolist(),
            "n": tree.n.tolist(), "wins": tree.wins.tolist()}


def _ints(values, name: str) -> np.ndarray:
    out = np.asarray(values)
    if out.ndim != 1 or (out.size and out.dtype.kind != "i"):
        raise ModelError(f"tree {name} must be a list of integers")
    return out.astype(np.intp)     # an empty list reads as floats


def decode_params(doc: dict, n_features: int) -> Tree:
    """The tree ``encode_params`` wrote; every index and count is checked, so
    that a walk over it stays in the table and ends."""
    feature, n, wins = (_ints(doc[key], key) for key in ("feature", "n", "wins"))
    threshold = np.asarray(doc["threshold"], dtype=float)
    k = len(feature)
    if k == 0 or any(a.shape != (k,) for a in (threshold, n, wins)):
        raise ModelError("tree node arrays must be non-empty and of one length")
    bad = np.flatnonzero((feature < LEAF) | (feature >= n_features))
    if bad.size:
        raise ModelError(f"split on feature {feature[bad[0]]} of {n_features}")
    used = _used(feature)
    flat = _ints(doc["children"], "children")
    if flat.shape != (used.sum(),):
        raise ModelError(f"tree has {len(flat)} child indices, its splits need {used.sum()}")
    parent = np.nonzero(used)[0]
    bad = np.flatnonzero((flat <= parent) | (flat >= k))
    if bad.size:
        i = bad[0]
        raise ModelError(f"node {parent[i]} has child {flat[i]}, "
                         f"not in ({parent[i]}, {k})")
    bad = np.flatnonzero((feature == LEAF) & ((n < 1) | (wins < 0) | (wins > n)))
    if bad.size:
        raise ModelError(f"leaf with {wins[bad[0]]} wins of {n[bad[0]]}")
    children = np.zeros((k, 3), dtype=np.intp)
    children[used] = flat
    return Tree(feature=feature, threshold=threshold, children=children, n=n, wins=wins)
