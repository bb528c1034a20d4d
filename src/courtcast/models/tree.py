"""Decision tree with gain-ratio splits, in the classic C4.5 mold.

Numeric features split binarily at midpoints between consecutive distinct
sorted values (per feature, the threshold maximizing information gain; the
lower value where the midpoint rounds onto the upper one);
the game-site categorical splits three ways in one step.  Across features,
the winner is the split with the best gain ratio among candidates whose
gain is at least the average positive gain — the standard guard without
which gain ratio rewards splitting one row off at a time.

Pre-pruning follows the classic per-branch rule: a split is admissible
only if at least two of its branches receive ``min_node_fraction`` of the
training rows (1% by default, never fewer than 2), and a node too small to
split that way becomes a leaf.  No internal node can therefore sit below
the threshold, and no split can shave off a handful of noisy rows.  A node
of fewer than twice that many rows admits no split, so it becomes a leaf
before any search.

One grower serves both kinds: it grows a group of trees in lockstep, and a
decision tree is a group of one.  The random forest grows its trees in
groups, disables pruning (``min_branch=1``) and restricts each node to a
random subset of candidate features, drawn from the tree's own stream.

Each node carries its rows as a ``(features, rows)`` array of row ids,
whose list ``f`` is sorted by column ``f``.  A tree presorts its sample once
per column with a stable sort, so ties keep sample order; a split only
filters the parent's lists by each row's side (or site code), which keeps
them sorted.  The lists use the narrowest signed integer type that holds
``len(X)``: int16, two bytes per feature and row, below 32,768 rows.

Every tree grows in preorder from its own stack.  A step takes from each
tree the next node to split, resolving the leaves on the way, and searches
all (node, feature) pairs of the step at once: their sorted lists are
gathered into one array, and one cumulative win count gives the class
counts at every cut.  A batch holds at most ``_BATCH`` rows, so its
temporaries stay small; a pair with more rows is searched alone.  Each
(node, feature) pair is scored with the arithmetic of a search of its
column alone (the same elementwise entropies, the scalar parent entropy,
``math.log2`` for the split info, the first maximum winning ties), so a
tree does not depend on what it grows beside.

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
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from courtcast.models.base import ModelError, Range

HYPER = {  # name -> (default, allowed values)
    "min_node_fraction": (0.01, Range(float, 0.0, 1.0)),
}

SITE_FEATURE = -1  # pseudo-index for the categorical site attribute
LEAF = -2          # the feature code of a leaf
_BATCH = 8192      # rows per batched split search; a larger segment is searched alone


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
    threshold: float    # 0.0 for the site split


def _entropy(wins: float, n: float) -> float:
    if n <= 0 or wins <= 0 or wins >= n:
        return 0.0
    p = wins / n
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _ent(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Binary entropy of ``w`` wins in ``m`` rows, elementwise; 0 where pure."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = w / m
        pc = 1.0 - p
        out = -(p * np.log2(p) + pc * np.log2(pc))
    return np.where((w > 0) & (w < m), out, 0.0)


def _numeric_splits(X: np.ndarray, y: np.ndarray, segments: list[tuple[np.ndarray, int]],
                    min_branch: int) -> list[_Candidate | None]:
    """Best-gain threshold of each (rows, feature) segment, scored by gain ratio.

    Each segment's rows come sorted by its feature's value.  All segments
    are searched in one pass over their concatenation, and one cumulative
    win count serves them all.
    """
    sizes = np.array([len(rows) for rows, _ in segments])
    ends = np.cumsum(sizes)
    # one gather from the flat array: a (rows, features) index pair into X
    # costs about three times as much per value
    rows = np.concatenate([r for r, _ in segments]).astype(np.intp)
    xs = X.ravel()[rows * X.shape[1] + np.repeat([f for _, f in segments], sizes)]
    cum_wins = np.cumsum(y[rows])
    # candidate cuts after position i: between consecutive distinct values of
    # one segment, leaving at least min_branch rows on each side
    i = np.flatnonzero(xs[1:] != xs[:-1])
    s = np.searchsorted(ends, i, side="right")      # the segment of each cut
    left = i + 1 - (ends - sizes)[s]
    n = sizes[s]
    keep = (left >= min_branch) & (n - left >= min_branch)
    i, s, left, n = i[keep], s[keep], left[keep], n[keep]
    found: list[_Candidate | None] = [None] * len(segments)
    if i.size == 0:
        return found
    before = np.concatenate(([0], cum_wins[ends[:-1] - 1]))   # wins in earlier segments
    total_wins = (cum_wins[ends - 1] - before).astype(float)
    parent = np.array([_entropy(w, m) for w, m in zip(total_wins.tolist(), sizes.tolist())])

    left_n = left.astype(float)
    left_wins = (cum_wins[i] - before[s]).astype(float)
    right_n = n - left_n
    right_wins = total_wins[s] - left_wins
    child = (left_n * _ent(left_wins, left_n) + right_n * _ent(right_wins, right_n)) / n
    gain = parent[s] - child

    # the first maximum of each segment -> its lowest threshold on ties
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    top = np.repeat(np.maximum.reduceat(gain, first), np.diff(np.append(first, len(s))))
    hit = np.flatnonzero(gain == top)
    best = hit[np.concatenate(([True], s[hit[1:]] != s[hit[:-1]]))]
    below, above = xs[i[best]], xs[i[best] + 1]
    mid = (below + above) / 2.0
    # a midpoint that rounds onto the value above the cut would send that
    # value left too; the value below the cut then cuts in the same place
    thresh = np.where(mid < above, mid, below)
    for k, g, m, size, t in zip(s[best].tolist(), gain[best].tolist(), left[best].tolist(),
                                n[best].tolist(), thresh.tolist()):
        if g <= 1e-12:
            continue
        frac = m / size
        split_info = -(frac * math.log2(frac) + (1 - frac) * math.log2(1 - frac))
        if split_info > 0:
            found[k] = _Candidate(gain=g, ratio=g / split_info,
                                  feature=segments[k][1], threshold=t)
    return found


def _site_split(counts: list[int], wins: list[float],
                min_branch: int) -> _Candidate | None:
    """The three-way site split of a node with ``counts[code]`` rows and
    ``wins[code]`` wins at each site code."""
    n = sum(counts)
    parent = _entropy(float(sum(wins)), n)
    child = 0.0
    split_info = 0.0
    n_sized = 0  # branches large enough to count toward admissibility
    for m, w in zip(counts, wins):
        if m == 0:
            continue
        if m >= min_branch:
            n_sized += 1
        child += m * _entropy(w, m) / n
        frac = m / n
        split_info -= frac * math.log2(frac)
    gain = parent - child
    if n_sized < 2 or gain <= 1e-12 or split_info <= 0:
        return None
    return _Candidate(gain=gain, ratio=gain / split_info,
                      feature=SITE_FEATURE, threshold=0.0)


def _select_split(cands: list[_Candidate]) -> _Candidate | None:
    """Gain-ratio winner among candidates with at least average gain."""
    if not cands:
        return None
    avg_gain = sum(c.gain for c in cands) / len(cands)
    eligible = [c for c in cands if c.gain >= avg_gain - 1e-12]
    return max(eligible, key=lambda c: c.ratio)  # stable: first max wins ties


def _presort(X: np.ndarray, sample: np.ndarray, dtype: type) -> np.ndarray:
    """The sample's row lists, ``(features, rows)``: row ``f`` holds the
    sample's rows sorted stably by column ``f``, so ties keep sample order."""
    lists = np.empty((X.shape[1], len(sample)), dtype=dtype)
    for f in range(X.shape[1]):
        lists[f] = sample[np.argsort(X[sample, f], kind="stable")]
    return lists


class _Growth:
    """One tree growing in preorder: its node table so far, and a stack of
    (lists, parent, slot) still to visit, where ``lists`` are the node's row
    lists (see :func:`_presort`), or None for an empty site branch."""

    def __init__(self, lists: np.ndarray, rng: np.random.Generator | None):
        self.rng = rng
        self.stack: list[tuple[np.ndarray | None, int, int]] = [(lists, -1, 0)]
        self.feature, self.children = array("q"), array("q")
        self.threshold, self.n, self.wins = array("d"), array("q"), array("q")

    def add(self, feature: int, threshold: float, n: int, wins: int,
            parent: int, slot: int) -> int:
        node = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.children.extend((0, 0, 0))
        self.n.append(n)
        self.wins.append(wins)
        if parent >= 0:
            self.children[3 * parent + slot] = node
        return node

    def tree(self) -> Tree:
        return Tree(feature=np.array(self.feature), threshold=np.array(self.threshold),
                    children=np.array(self.children).reshape(-1, 3),
                    n=np.array(self.n), wins=np.array(self.wins))


class _Visit(NamedTuple):
    """A node about to be scored: its tree, its row lists, and where it hangs."""

    growth: _Growth
    lists: np.ndarray
    n: int
    wins: int
    parent: int
    slot: int
    features: list[int]


def _score(X: np.ndarray, site: np.ndarray, y: np.ndarray, visits: list[_Visit],
           min_branch: int) -> list[list[_Candidate]]:
    """The candidate splits of every visited node, in its feature order.

    The numeric (node, feature) segments of all nodes are searched together,
    in batches of at most ``_BATCH`` rows; a larger segment is searched alone.
    One count of rows and wins by (node, site code) serves all site splits.
    """
    segments = [(v.lists[f], f) for v in visits for f in v.features if f != SITE_FEATURE]
    at_site = [v.lists[0] for v in visits if SITE_FEATURE in v.features]
    numeric: list[_Candidate | None] = []
    lo = size = 0
    for hi, (rows, _) in enumerate(segments):
        if size and size + len(rows) > _BATCH:
            numeric += _numeric_splits(X, y, segments[lo:hi], min_branch)
            lo, size = hi, 0
        size += len(rows)
    if segments:
        numeric += _numeric_splits(X, y, segments[lo:], min_branch)
    by_site: list[_Candidate | None] = []
    if at_site:
        rows = np.concatenate(at_site)
        code = np.repeat(np.arange(0, 3 * len(at_site), 3), [len(r) for r in at_site])
        code += site[rows]
        counts = np.bincount(code, minlength=3 * len(at_site)).reshape(-1, 3)
        wins = np.bincount(code, y[rows], minlength=3 * len(at_site)).reshape(-1, 3)
        by_site = [_site_split(c, w, min_branch) for c, w in zip(counts.tolist(), wins.tolist())]
    numeric_it, site_it = iter(numeric), iter(by_site)
    out = []
    for v in visits:
        cands = [next(site_it if f == SITE_FEATURE else numeric_it) for f in v.features]
        out.append([c for c in cands if c is not None])
    return out


def grow_trees(X: np.ndarray, site: np.ndarray, y: np.ndarray, samples: list[np.ndarray],
               min_rows: int, min_branch: int,
               rngs: list[np.random.Generator] | None = None,
               n_candidates: int | None = None) -> list[Tree]:
    """Grow one tree on each sample (rows of ``X``, in sample order), in lockstep.

    Each step takes from every tree still growing the next node to split,
    resolving the leaves before it, and scores all of them with one
    :func:`_score` call.  ``rngs``/``n_candidates`` enable forest-style
    feature sampling, one stream per tree.  ``min_rows`` is the smallest
    node that may split, ``min_branch`` the per-branch admissibility
    minimum; 1 grows unrestricted forest-style trees.
    """
    X = np.ascontiguousarray(X)     # so that the search's X.ravel() is a view
    d = X.shape[1]
    everything = list(range(d)) + [SITE_FEATURE]
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if len(X) <= np.iinfo(t).max)
    side = np.empty(len(X), dtype=bool)     # reused: each row's side of a split
    growing = [_Growth(_presort(X, sample, dtype), rng)
               for sample, rng in zip(samples, rngs or [None] * len(samples))]
    active = growing
    while active:
        visits = []
        for g in active:
            while g.stack:
                lists, parent, slot = g.stack.pop()
                if lists is None:   # an empty branch falls back to the parent's stats
                    g.add(LEAF, 0.0, g.n[parent], g.wins[parent], parent, slot)
                    continue
                n = lists.shape[1]
                wins = int(y[lists[0]].sum())
                # below 2 * min_branch rows no split is admissible
                if wins == 0 or wins == n or n < max(2, min_rows, 2 * min_branch):
                    g.add(LEAF, 0.0, n, wins, parent, slot)
                    continue
                features = everything
                if n_candidates is not None and n_candidates < len(everything):
                    pick = g.rng.choice(len(everything), size=n_candidates, replace=False)
                    features = [everything[i] for i in sorted(pick)]
                visits.append(_Visit(g, lists, n, wins, parent, slot, features))
                break
        for v, cands in zip(visits, _score(X, site, y, visits, min_branch)):
            best = _select_split(cands)
            if best is None:
                v.growth.add(LEAF, 0.0, v.n, v.wins, v.parent, v.slot)
                continue
            node = v.growth.add(best.feature, best.threshold, v.n, v.wins, v.parent, v.slot)
            # each child's lists are the parent's, filtered: still sorted
            if best.feature == SITE_FEATURE:
                codes = site[v.lists]
                for code in (2, 1, 0):      # popped in slot order
                    sub = v.lists[codes == code].reshape(d, -1)
                    v.growth.stack.append((sub if sub.size else None, node, code))
            else:
                rows = v.lists[best.feature]
                side[rows] = X[rows, best.feature] <= best.threshold
                left = side[v.lists]
                v.growth.stack += [(v.lists[~left].reshape(d, -1), node, 1),
                                   (v.lists[left].reshape(d, -1), node, 0)]
        active = [v.growth for v in visits]
    return [g.tree() for g in growing]


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
    return grow_trees(X, site, y, [np.arange(len(y))], min_rows=min_rows,
                      min_branch=max(2, min_rows))[0]


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
