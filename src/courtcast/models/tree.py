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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from courtcast.features import MatchInstance
from courtcast.models.base import (
    ModelError,
    Range,
    TrainedModel,
    check_predict_input,
)

HYPER = {  # name -> (default, allowed values)
    "min_node_fraction": (0.01, Range(float, 0.0, 1.0)),
}

SITE_FEATURE = -1  # pseudo-index for the categorical site attribute


@dataclass(frozen=True)
class Leaf:
    n: int
    wins: int

    @property
    def p_win(self) -> float:
        return self.wins / self.n


@dataclass(frozen=True)
class NumericNode:
    feature: int
    threshold: float
    left: "Node"    # feature <= threshold
    right: "Node"
    n: int


@dataclass(frozen=True)
class SiteNode:
    children: tuple["Node", "Node", "Node"]  # indexed by site code
    n: int


Node = Union[Leaf, NumericNode, SiteNode]


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
              min_branch: int | None = None) -> Node:
    """Recursive grower; rng/n_candidates enable forest-style feature sampling.

    ``min_branch`` is the per-branch admissibility minimum (defaults to
    ``max(2, min_rows)``); pass 1 to grow unrestricted forest-style trees.
    """
    d = X.shape[1]
    if min_branch is None:
        min_branch = max(2, min_rows)

    def build(idx: np.ndarray) -> Node:
        n = len(idx)
        wins = int(np.sum(y[idx]))
        if wins == 0 or wins == n or n < max(2, min_rows):
            return Leaf(n=n, wins=wins)

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
            return Leaf(n=n, wins=wins)

        if best.feature == SITE_FEATURE:
            children = []
            for code in (0, 1, 2):
                sub = idx[site[idx] == code]
                if len(sub) == 0:
                    children.append(Leaf(n=n, wins=wins))  # fall back to parent stats
                else:
                    children.append(build(sub))
            return SiteNode(children=tuple(children), n=n)

        mask = X[idx, best.feature] <= best.threshold
        return NumericNode(feature=best.feature, threshold=best.threshold,
                           left=build(idx[mask]), right=build(idx[~mask]), n=n)

    return build(np.arange(len(y)))


def tree_p_win(node: Node, x: np.ndarray, site_code: int) -> float:
    while not isinstance(node, Leaf):
        if isinstance(node, SiteNode):
            node = node.children[site_code]
        else:
            node = node.left if x[node.feature] <= node.threshold else node.right
    return node.p_win


def internal_node_sizes(node: Node) -> list[int]:
    """Row counts of every internal (non-leaf) node, for prune auditing."""
    if isinstance(node, Leaf):
        return []
    out = [node.n]
    children = node.children if isinstance(node, SiteNode) else (node.left, node.right)
    for child in children:
        out.extend(internal_node_sizes(child))
    return out


def fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> Node:
    min_rows = math.ceil(hp["min_node_fraction"] * len(y))
    root = grow_tree(X, site, y, min_rows=min_rows)
    return root


def predict_p_win(model: TrainedModel, instance: MatchInstance) -> float:
    x, site_code = check_predict_input(model, instance)
    return tree_p_win(model.params, x, site_code)


def encode_node(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": True, "n": node.n, "wins": node.wins}
    if isinstance(node, SiteNode):
        return {"leaf": False, "site": True, "n": node.n,
                "children": [encode_node(c) for c in node.children]}
    return {"leaf": False, "site": False, "n": node.n,
            "feature": node.feature, "threshold": node.threshold,
            "left": encode_node(node.left), "right": encode_node(node.right)}


def decode_node(doc: dict, n_features: int) -> Node:
    """The node ``encode_node`` wrote, its counts, features and branches checked."""
    if doc["leaf"]:
        if not 0 <= doc["wins"] <= doc["n"] or doc["n"] < 1:
            raise ModelError(f"leaf with {doc['wins']} wins of {doc['n']}")
        return Leaf(n=doc["n"], wins=doc["wins"])
    if doc.get("site"):
        children = tuple(decode_node(c, n_features) for c in doc["children"])
        if len(children) != 3:
            raise ModelError(f"site split with {len(children)} branches, not 3")
        return SiteNode(children=children, n=doc["n"])
    feature = operator.index(doc["feature"])
    if not 0 <= feature < n_features:
        raise ModelError(f"split on feature {feature} of {n_features}")
    return NumericNode(feature=feature, threshold=float(doc["threshold"]),
                       left=decode_node(doc["left"], n_features),
                       right=decode_node(doc["right"], n_features), n=doc["n"])


encode_params = encode_node
decode_params = decode_node
