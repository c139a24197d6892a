"""Random forest of CART trees for per-pixel burnt/unburnt classification.

Each tree grows on a bootstrap resample; at every node a fresh random subset
of ceil(sqrt(d)) features is scanned for the split that maximizes Gini
impurity decrease (threshold = midpoint between the neighbouring sorted
values). Feature importances are the node-weighted impurity decreases summed
over the forest and normalized to 1. Per-tree generators are derived from
the fit seed, so forests are reproducible and tree order is immaterial to
the importance reduction.

The split scan sorts each feature column once per forest. A tree holds its
bootstrap as row counts (how often each training row was drawn), and a node
as the counts of the rows that reach it; a split zeroes the counts of the
rows that go the other way. At a node, the candidate columns' presorted
orders are gathered as one block, and the rows with a nonzero count are kept:
every column keeps the same m rows, so the block stays rectangular. Running
sums of the counts, and of the counts of burnt rows, along each row of the
block give the size and burnt count of every left side, and the whole
(k, m - 1) array of Gini decreases is scored at once.

This finds the same split, bit for bit, as sorting the node's expanded
bootstrap rows column by column. A split can only fall between distinct
values, and there the left side holds the same rows in either form, so its
size and burnt count are the same integers, exact in float64. The decrease is
computed from them with the same float operations, and the first maximum in
row-major order is the first candidate column, then the smallest left side.
The threshold is the midpoint of the same two neighbouring values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FitError
from .features import validate_training_data
from .modelio import load_model, meta_int, save_model
from .seeding import rng_for

N_TREES = 100
MAX_DEPTH = 12
MIN_LEAF = 2


@dataclass(frozen=True)
class DecisionTree:
    """Flat array encoding: node i is a leaf iff feature[i] < 0."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # burnt fraction of the training rows in the node


@dataclass(frozen=True)
class RandomForestModel:
    trees: tuple[DecisionTree, ...]
    n_features: int
    max_depth: int
    min_leaf: int
    feature_importances: np.ndarray


def _scan_node(
    xt: np.ndarray,
    order: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
    parent_gini: float,
):
    """Best (decrease, candidate index, threshold) for the node whose row
    counts are ``counts``, or None. A split is valid where the value changes
    and both sides hold min_leaf rows; ties keep the first candidate column,
    then the smallest left side, making the scan deterministic."""
    block = order[candidates]
    in_block = counts.take(block)
    kept = np.flatnonzero(in_block > 0)  # flatnonzero + take beat boolean indexing 3-10x
    rows = block.take(kept).reshape(candidates.size, -1)
    ws = in_block.take(kept).reshape(rows.shape)
    vs = xt.take(candidates[:, None] * xt.shape[1] + rows)
    sizes = np.cumsum(ws, axis=1, dtype=np.float64)
    burnt = np.cumsum(ws * y.take(rows), axis=1, dtype=np.float64)
    n, pos = sizes[0, -1], burnt[0, -1]
    sizes_l, cum = sizes[:, :-1], burnt[:, :-1]
    sizes_r = n - sizes_l
    valid = (vs[:, :-1] < vs[:, 1:]) & (sizes_l >= min_leaf) & (sizes_r >= min_leaf)
    if not valid.any():
        return None
    pl = cum / sizes_l
    pr = (pos - cum) / sizes_r
    weighted = (sizes_l * 2.0 * pl * (1.0 - pl) + sizes_r * 2.0 * pr * (1.0 - pr)) / n
    decrease = np.where(valid, parent_gini - weighted, -np.inf)
    # decrease[c, i] scores left = the rows up to block entry i, so the
    # threshold lies between vs[c, i] and vs[c, i + 1]; where the midpoint
    # rounds up onto vs[c, i + 1] (adjacent floats, or overflow), vs[c, i]
    # still sends exactly those rows left.
    c, i = divmod(int(np.argmax(decrease)), decrease.shape[1])
    lo, hi = vs[c, i], vs[c, i + 1]
    thr = (lo + hi) / 2.0
    return float(decrease[c, i]), c, float(thr if thr < hi else lo)


def _grow_tree(
    xt: np.ndarray,
    order: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
    max_depth: int,
    min_leaf: int,
    importances: np.ndarray,
) -> DecisionTree:
    """Grow one tree on the bootstrap whose row counts are ``counts``; xt is
    the (d, n) feature block and order its per-column sort order."""
    d, n_total = xt.shape
    k = math.ceil(math.sqrt(d))
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node(burnt_fraction: float) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(burnt_fraction)
        return len(feature) - 1

    def grow(w: np.ndarray, depth: int) -> int:
        n = int(w.sum())
        pos = int(w @ y)
        node = new_node(pos / n)
        if depth >= max_depth or n < 2 * min_leaf or pos in (0, n):
            return node
        candidates = rng.choice(d, size=k, replace=False)
        p = pos / n
        split = _scan_node(xt, order, y, w, candidates, min_leaf, 2.0 * p * (1.0 - p))
        if split is None or split[0] <= 0.0:
            return node
        decrease, col, thr = split
        feat = int(candidates[col])
        importances[feat] += (n / n_total) * decrease
        go_left = xt[feat] <= thr
        feature[node] = feat
        threshold[node] = thr
        left[node] = grow(np.where(go_left, w, 0), depth + 1)
        right[node] = grow(np.where(go_left, 0, w), depth + 1)
        return node

    grow(counts, 0)
    del grow  # the recursive closure holds itself; break the cycle instead of waiting for gc
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def rf_fit(
    x: np.ndarray,
    y: np.ndarray,
    seed: int,
    n_trees: int = N_TREES,
    max_depth: int = MAX_DEPTH,
    min_leaf: int = MIN_LEAF,
) -> RandomForestModel:
    x = np.array(x, dtype=np.float64, order="F")
    y = np.asarray(y)
    validate_training_data(x, y)
    if n_trees < 1 or max_depth < 1 or min_leaf < 1:
        raise FitError(
            f"hyperparameters must be positive: trees={n_trees} depth={max_depth} leaf={min_leaf}"
        )
    y = y.astype(np.int32)
    n, d = x.shape
    xt = x.T
    order = np.empty((d, n), dtype=np.int32)
    for j in range(d):
        order[j] = np.argsort(xt[j], kind="stable")
    importances = np.zeros(d, dtype=np.float64)
    trees = []
    for t in range(n_trees):
        rng = rng_for(seed, f"tree/{t}")
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.int32)
        trees.append(_grow_tree(xt, order, y, counts, rng, max_depth, min_leaf, importances))
    total = importances.sum()
    if total > 0:
        importances /= total
    return RandomForestModel(
        trees=tuple(trees),
        n_features=d,
        max_depth=max_depth,
        min_leaf=min_leaf,
        feature_importances=importances,
    )


def _tree_predict(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    # The tree stores int32; intp node indices take numpy's fast indexing path.
    feature, left, right = (a.astype(np.intp) for a in (tree.feature, tree.left, tree.right))
    node = np.zeros(x.shape[0], dtype=np.intp)
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        cur = node[active]
        go_left = x[active, feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, left[cur], right[cur])
        active = active[feature[node[active]] >= 0]
    return tree.value[node]


def rf_predict(model: RandomForestModel, x: np.ndarray) -> np.ndarray:
    """Mean leaf burnt-fraction across trees of each row of an (n, d) array,
    as an (n,) float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.n_features:
        raise DataError(
            f"feature shape {arr.shape} is not (n, model dimensionality {model.n_features})"
        )
    acc = np.zeros(arr.shape[0], dtype=np.float64)
    for tree in model.trees:
        acc += _tree_predict(tree, arr)
    return acc / len(model.trees)


def save_forest(path: str | Path, model: RandomForestModel):
    meta = {
        "n_trees": len(model.trees),
        "n_features": model.n_features,
        "max_depth": model.max_depth,
        "min_leaf": model.min_leaf,
    }
    blocks: dict[str, np.ndarray] = {"importances": model.feature_importances}
    for t, tree in enumerate(model.trees):
        prefix = f"tree/{t:04d}/"
        blocks[prefix + "feature"] = tree.feature
        blocks[prefix + "threshold"] = tree.threshold
        blocks[prefix + "left"] = tree.left
        blocks[prefix + "right"] = tree.right
        blocks[prefix + "value"] = tree.value
    save_model(path, "random_forest", meta, blocks)


def _check_tree(t: int, tree: DecisionTree, n_features: int):
    """Raise ConfigError unless the node arrays form a tree that
    ``_tree_predict`` walks to a leaf, where it finds a burnt fraction: every
    split node's children come after it, and a leaf (feature -1) has none."""
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    n = tree.feature.size
    if n < 1 or any(a.shape != (n,) for a in arrays):
        raise ConfigError(f"tree {t}: node arrays of shapes {[a.shape for a in arrays]}")
    if not all(np.issubdtype(a.dtype, np.integer) for a in (tree.feature, tree.left, tree.right)):
        raise ConfigError(f"tree {t}: feature and child indices must be integers")
    if not ((tree.feature >= -1) & (tree.feature < n_features)).all():
        raise ConfigError(f"tree {t}: a feature index is outside [-1, {n_features})")
    if not (np.isfinite(tree.threshold).all() and ((tree.value >= 0) & (tree.value <= 1)).all()):
        raise ConfigError(f"tree {t}: a threshold is not finite or a leaf value not in [0, 1]")
    node = np.arange(n)
    ok = np.where(
        tree.feature >= 0,
        (tree.left > node) & (tree.left < n) & (tree.right > node) & (tree.right < n),
        (tree.left == -1) & (tree.right == -1),
    )
    if not ok.all():
        bad = int(np.argmin(ok))
        raise ConfigError(
            f"tree {t}: node {bad} of {n} has children {tree.left[bad]}, {tree.right[bad]}"
        )


def _forest_from_blocks(meta: dict, blocks: dict[str, np.ndarray]) -> RandomForestModel:
    trees = tuple(
        DecisionTree(
            feature=blocks[f"tree/{t:04d}/feature"],
            threshold=blocks[f"tree/{t:04d}/threshold"],
            left=blocks[f"tree/{t:04d}/left"],
            right=blocks[f"tree/{t:04d}/right"],
            value=blocks[f"tree/{t:04d}/value"],
        )
        for t in range(meta["n_trees"])
    )
    for t, tree in enumerate(trees):
        _check_tree(t, tree, meta["n_features"])
    return RandomForestModel(
        trees=trees,
        n_features=meta["n_features"],
        max_depth=meta["max_depth"],
        min_leaf=meta["min_leaf"],
        feature_importances=blocks["importances"],
    )


def load_forest(path: str | Path) -> RandomForestModel:
    """Read a forest file; node arrays that do not form a tree raise FormatError."""
    fields = dict.fromkeys(("n_trees", "n_features", "max_depth", "min_leaf"), meta_int)
    return load_model(path, "random_forest", fields, _forest_from_blocks)
