"""Random-forest behavior against independent oracles.

Prediction is checked against a scalar recursive tree walk, and fitting
against a reference grower that copies each bootstrap (``x[rows]``) and
argsorts every candidate column at every node: the presorted, count-weighted
scan of ``rf_fit`` must grow bitwise-identical trees and importances.
Structural properties (importances, depth bounds, determinism) are verified
on datasets whose correct behavior is known by construction.
"""

import dataclasses
import gc
import math

import numpy as np
import pytest
from cluster_data import best_stump_accuracy, separable_clusters, xor_data

from burnmap.errors import DataError, FitError, FormatError
from burnmap.forest import (
    MAX_DEPTH,
    DecisionTree,
    RandomForestModel,
    _grow_tree,
    _scan_node,
    load_forest,
    rf_fit,
    rf_predict,
    save_forest,
)
from burnmap.metrics import accumulate, compute_metrics
from burnmap.modelio import pack_blocks
from burnmap.seeding import rng_for


def leaf_of(tree: DecisionTree, vec: np.ndarray) -> int:
    """Scalar reference: follow one path from root to leaf."""
    node = 0
    while tree.feature[node] >= 0:
        if vec[tree.feature[node]] <= tree.threshold[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    return node


def walk_tree(tree: DecisionTree, vec: np.ndarray) -> float:
    return float(tree.value[leaf_of(tree, vec)])


def gini(y: np.ndarray) -> float:
    p = y.mean()
    return 2.0 * p * (1.0 - p)


def tree_depth(tree: DecisionTree, node: int = 0) -> int:
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, int(tree.left[node])), tree_depth(tree, int(tree.right[node])))


def _with(arr: np.ndarray, index: int, value) -> np.ndarray:
    arr = arr.copy()
    arr[index] = value
    return arr


def reference_best_split(xs: np.ndarray, ys: np.ndarray, min_leaf: int, parent_gini: float):
    """Best (decrease, column, threshold) over the columns of the node's
    expanded rows xs, or None: one stable argsort per column, first column
    then smallest left block on ties."""
    n = xs.shape[0]
    best = None
    sizes_l = np.arange(1, n, dtype=np.float64)
    sizes_r = n - sizes_l
    for j in range(xs.shape[1]):
        order = np.argsort(xs[:, j], kind="stable")
        vs = xs[order, j]
        cum = np.cumsum(ys[order], dtype=np.float64)[:-1]
        valid = (vs[:-1] < vs[1:]) & (sizes_l >= min_leaf) & (sizes_r >= min_leaf)
        if not valid.any():
            continue
        pl = cum / sizes_l
        pr = (cum[-1] + ys[order[-1]] - cum) / sizes_r
        weighted = (sizes_l * 2.0 * pl * (1.0 - pl) + sizes_r * 2.0 * pr * (1.0 - pr)) / n
        decrease = np.where(valid, parent_gini - weighted, -np.inf)
        i = int(np.argmax(decrease))
        if best is None or decrease[i] > best[0]:
            thr = (vs[i] + vs[i + 1]) / 2.0
            best = (float(decrease[i]), j, float(thr if thr < vs[i + 1] else vs[i]))
    return best


def reference_grow_tree(x, y, rng, max_depth, min_leaf, n_total, importances) -> DecisionTree:
    """One tree grown on its bootstrap copy (x, y) = (x[rows], y[rows])."""
    d = x.shape[1]
    k = math.ceil(math.sqrt(d))
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(burnt_fraction: float) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(burnt_fraction)
        return len(feature) - 1

    def grow(rows: np.ndarray, depth: int) -> int:
        n = rows.size
        pos = int(y[rows].sum())
        node = new_node(pos / n)
        if depth >= max_depth or n < 2 * min_leaf or pos in (0, n):
            return node
        candidates = rng.choice(d, size=k, replace=False)
        p = pos / n
        split = reference_best_split(
            x[rows][:, candidates], y[rows], min_leaf, 2.0 * p * (1.0 - p)
        )
        if split is None or split[0] <= 0.0:
            return node
        decrease, col, thr = split
        feat = int(candidates[col])
        importances[feat] += (n / n_total) * decrease
        go_left = x[rows, feat] <= thr
        feature[node] = feat
        threshold[node] = thr
        left[node] = grow(rows[go_left], depth + 1)
        right[node] = grow(rows[~go_left], depth + 1)
        return node

    grow(np.arange(x.shape[0]), 0)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def reference_fit(x, y, seed: int, n_trees: int, max_depth: int, min_leaf: int):
    """(trees, importances) from bootstrap copies, with rf_fit's generator draws."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    n, d = x.shape
    importances = np.zeros(d, dtype=np.float64)
    trees = []
    for t in range(n_trees):
        rng = rng_for(seed, f"tree/{t}")
        rows = rng.integers(0, n, size=n)
        trees.append(reference_grow_tree(x[rows], y[rows], rng, max_depth, min_leaf, n, importances))
    total = importances.sum()
    if total > 0:
        importances /= total
    return trees, importances


def presorted(x: np.ndarray):
    """The (d, n) float64 feature block and its stable per-column order."""
    xt = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
    return xt, np.argsort(xt, axis=1, kind="stable").astype(np.int32)


def scan(xs: np.ndarray, ys: np.ndarray, min_leaf: int, parent_gini: float):
    """``_scan_node`` over every column of xs, each row counted once."""
    xt, order = presorted(xs)
    n, k = xs.shape
    ones = np.ones(n, dtype=np.int32)
    return _scan_node(xt, order, ys.astype(np.int32), ones, np.arange(k), min_leaf, parent_gini)


def _leaf_only_tree(fraction: float) -> DecisionTree:
    return DecisionTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([fraction]),
    )


class TestPrediction:
    def test_matches_tree_walk_oracle_on_random_vectors(self):
        x, y = separable_clusters(seed=1, n=300)
        model = rf_fit(x, y, seed=11, n_trees=20)
        rng = np.random.default_rng(2)
        probes = rng.uniform(-2.5, 2.5, (100, 2))
        batch = rf_predict(model, probes)
        for i in range(100):
            expected = np.mean([walk_tree(t, probes[i]) for t in model.trees])
            np.testing.assert_allclose(batch[i], expected, rtol=1e-12)
            np.testing.assert_allclose(rf_predict(model, probes[i:i + 1]), [expected], rtol=1e-12)

    def test_ensemble_mean_of_leaf_fractions(self):
        model = RandomForestModel(
            trees=(_leaf_only_tree(1.0), _leaf_only_tree(0.0), _leaf_only_tree(0.5)),
            n_features=2,
            max_depth=1,
            min_leaf=1,
            feature_importances=np.zeros(2),
        )
        assert rf_predict(model, np.zeros((1, 2))).tolist() == [0.5]

    def test_unanimous_votes(self):
        burnt = RandomForestModel(
            trees=(_leaf_only_tree(1.0),) * 3,
            n_features=1,
            max_depth=1,
            min_leaf=1,
            feature_importances=np.zeros(1),
        )
        unburnt = RandomForestModel(
            trees=(_leaf_only_tree(0.0),) * 3,
            n_features=1,
            max_depth=1,
            min_leaf=1,
            feature_importances=np.zeros(1),
        )
        assert rf_predict(burnt, np.zeros((1, 1))).tolist() == [1.0]
        assert rf_predict(unburnt, np.zeros((1, 1))).tolist() == [0.0]

    def test_prediction_invariant_to_call_order(self):
        x, y = separable_clusters(seed=3, n=200)
        model = rf_fit(x, y, seed=5, n_trees=10)
        probes = np.random.default_rng(4).uniform(-2, 2, (50, 2))
        batch = rf_predict(model, probes)
        reversed_batch = rf_predict(model, probes[::-1])
        np.testing.assert_array_equal(batch, reversed_batch[::-1])

    def test_dimension_mismatch(self):
        x, y = separable_clusters(seed=6, n=100)
        model = rf_fit(x, y, seed=7, n_trees=5)
        with pytest.raises(DataError, match="dimensionality"):
            rf_predict(model, np.zeros((1, 3)))
        with pytest.raises(DataError, match=r"shape \(2,\)"):  # one row is still (1, d)
            rf_predict(model, np.zeros(2))


class TestFitBehaviour:
    def test_single_perfect_feature_gets_all_importance(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(0.0, 1.0, (200, 1))
        y = (x[:, 0] > 0.37).astype(np.uint8)
        model = rf_fit(x, y, seed=21, n_trees=25)
        np.testing.assert_allclose(model.feature_importances, [1.0], rtol=1e-12)
        pred = (rf_predict(model, x) >= 0.5).astype(np.uint8)
        assert (pred == y).all()

    def test_importances_nonnegative_and_sum_to_one(self):
        x, y = separable_clusters(seed=22, n=300)
        model = rf_fit(x, y, seed=23, n_trees=30)
        assert (model.feature_importances >= 0).all()
        np.testing.assert_allclose(model.feature_importances.sum(), 1.0, atol=1e-9)

    def test_random_labels_score_near_chance(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((600, 5))
        y = (rng.uniform(size=600) < 0.5).astype(np.uint8)
        model = rf_fit(x[:400], y[:400], seed=25, n_trees=40)
        pred = (rf_predict(model, x[400:]) >= 0.5).astype(np.uint8)
        accuracy = float((pred == y[400:]).mean())
        assert 0.4 <= accuracy <= 0.6

    def test_stumps_cannot_express_xor(self):
        x, y = xor_data(seed=26, n=400)
        assert best_stump_accuracy(x, y) <= 0.62  # no informative single cut
        model = rf_fit(x, y, seed=27, n_trees=50, max_depth=1)
        pred = (rf_predict(model, x) >= 0.5).astype(np.uint8)
        assert float((pred == y).mean()) <= 0.75

    def test_deep_forest_solves_xor(self):
        x, y = xor_data(seed=28, n=400)
        model = rf_fit(x, y, seed=29, n_trees=30)
        pred = (rf_predict(model, x) >= 0.5).astype(np.uint8)
        assert float((pred == y).mean()) >= 0.95

    def test_separable_benchmark_f1(self):
        x, y = separable_clusters(seed=30, n=400)
        xt, yt = separable_clusters(seed=31, n=200)
        model = rf_fit(x, y, seed=32)
        pred = (rf_predict(model, xt) >= 0.5).astype(np.uint8)
        report = compute_metrics(accumulate(pred.reshape(1, -1), yt.reshape(1, -1)))
        assert report.burnt.f1 >= 0.95

    def test_max_depth_bounds_every_tree(self):
        x, y = separable_clusters(seed=33, n=300)
        model = rf_fit(x, y, seed=34, n_trees=15, max_depth=3)
        assert all(tree_depth(t) <= 3 for t in model.trees)

    def test_determinism_and_seed_sensitivity(self):
        x, y = separable_clusters(seed=35, n=200)
        a = rf_fit(x, y, seed=36, n_trees=8)
        b = rf_fit(x, y, seed=36, n_trees=8)
        c = rf_fit(x, y, seed=37, n_trees=8)

        def as_bytes(m):
            return pack_blocks(
                {
                    f"{i}/{k}": getattr(t, k)
                    for i, t in enumerate(m.trees)
                    for k in ("feature", "threshold", "left", "right", "value")
                }
            )

        assert as_bytes(a) == as_bytes(b)
        assert as_bytes(a) != as_bytes(c)

    def test_fit_leaves_no_reference_cycles(self):
        """Each tree's recursive grower, a closure that refers to itself, is
        released with the generator and node lists it holds when the tree is
        done, instead of waiting in a garbage cycle for the collector."""
        x, y = separable_clusters(seed=40, n=200)
        gc.collect()
        gc.disable()
        try:
            rf_fit(x, y, seed=41, n_trees=4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_importances_follow_feature_permutation(self):
        # The node-level feature draws are positional, so equivariance is
        # statistical, not bitwise: with a strong two-feature signal the
        # permuted fit must assign matching importance mass.
        rng = np.random.default_rng(38)
        n = 500
        informative = rng.standard_normal((n, 2))
        noise = rng.standard_normal((n, 2)) * 0.05
        y = ((informative[:, 0] + informative[:, 1]) > 0).astype(np.uint8)
        x = np.column_stack([informative[:, 0], noise[:, 0], informative[:, 1], noise[:, 1]])
        perm = np.array([2, 0, 3, 1])
        base = rf_fit(x, y, seed=39, n_trees=60).feature_importances
        permuted = rf_fit(x[:, perm], y, seed=39, n_trees=60).feature_importances
        np.testing.assert_allclose(permuted, base[perm], atol=0.06)
        assert {0, 2} == {int(np.argsort(base)[-1]), int(np.argsort(base)[-2])}


class TestSplitSearch:
    def test_threshold_lies_between_the_scored_blocks(self):
        xs = np.array([[0.0], [1.0], [2.0], [3.0]])
        ys = np.array([0, 0, 1, 1])
        assert scan(xs, ys, min_leaf=1, parent_gini=0.5) == (0.5, 0, 1.5)

    def test_adjacent_values_split_between_them(self):
        # lo has an odd last mantissa bit, so the midpoint rounds up onto hi.
        lo = float(np.nextafter(1.0, 2.0))
        hi = float(np.nextafter(lo, 2.0))
        assert (lo + hi) / 2.0 == hi
        xs = np.array([[lo], [lo], [hi], [hi]])
        decrease, _, thr = scan(xs, np.array([0, 0, 1, 1]), 1, 0.5)
        assert decrease == 0.5 and lo <= thr < hi

    def test_applied_split_is_the_scored_split(self):
        # Few distinct values give many ties; the rows the threshold sends
        # left must be exactly the block whose decrease was scored.
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(4, 40))
            xs = rng.integers(0, 6, (n, 3)).astype(np.float64)
            ys = rng.integers(0, 2, n)
            min_leaf = int(rng.integers(1, 5))
            split = scan(xs, ys, min_leaf, gini(ys))
            if split is None:
                continue
            decrease, col, thr = split
            left = xs[:, col] <= thr
            assert min(left.sum(), (~left).sum()) >= min_leaf
            weighted = (left.sum() * gini(ys[left]) + (~left).sum() * gini(ys[~left])) / n
            assert decrease == pytest.approx(gini(ys) - weighted, abs=1e-12)
            checked += 1
        assert checked > 100

    def test_every_leaf_holds_min_leaf_rows(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((300, 5))
        y = (x[:, 0] + rng.standard_normal(300) > 0).astype(np.int64)
        xt, order = presorted(x)
        for _ in range(20):
            rows = rng.integers(0, 300, size=300)
            xb = x[rows]
            drawn = np.bincount(rows, minlength=300).astype(np.int32)
            tree = _grow_tree(xt, order, y.astype(np.int32), drawn, rng, MAX_DEPTH, 5, np.zeros(5))
            counts = np.bincount([leaf_of(tree, v) for v in xb], minlength=tree.feature.size)
            assert counts[tree.feature < 0].min() >= 5


class TestPresortedScanOracle:
    """rf_fit against reference_fit, bitwise: every node array of every tree
    and the importances."""

    @staticmethod
    def assert_same_forest(x, y, seed, n_trees, max_depth, min_leaf):
        model = rf_fit(x, y, seed, n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf)
        trees, importances = reference_fit(x, y, seed, n_trees, max_depth, min_leaf)
        assert model.feature_importances.tobytes() == importances.tobytes()
        for got, want in zip(model.trees, trees, strict=True):
            for name in ("feature", "threshold", "left", "right", "value"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        return model

    @pytest.mark.parametrize("values", ["continuous", "ties"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    def test_random_cases(self, values, dtype, min_leaf):
        rng = np.random.default_rng([min_leaf, np.dtype(dtype).itemsize, len(values)])
        for n, max_depth in ((2, 30), (3, 2), (7, 30), (60, 4), (250, 30), (250, 12)):
            d = int(rng.integers(1, 10))
            x = rng.standard_normal((n, d))
            if values == "ties":
                x = np.round(x * 1.5)  # about 7 distinct values per column
            y = (x[:, 0] + rng.standard_normal(n) > 0).astype(np.uint8)
            y[:2] = 0, 1
            seed = int(rng.integers(1 << 30))
            self.assert_same_forest(x.astype(dtype), y, seed, 4, max_depth, min_leaf)

    def test_bootstraps_of_a_single_distinct_row(self):
        x = np.array([[0.25], [0.75]])
        y = np.array([0, 1], dtype=np.uint8)
        model = self.assert_same_forest(x, y, 7, 40, 30, 1)
        sizes = [tree.feature.size for tree in model.trees]
        assert 1 in sizes and 3 in sizes  # a one-row bootstrap is a pure leaf


class TestValidation:
    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            rf_fit(np.zeros((0, 3)), np.zeros(0, dtype=np.uint8), seed=1)

    def test_single_class_is_degenerate(self):
        with pytest.raises(FitError, match="single-class"):
            rf_fit(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10, dtype=np.uint8), seed=1)

    def test_non_finite_features(self):
        x = np.ones((4, 2))
        x[1, 0] = np.nan
        with pytest.raises(DataError, match="finite"):
            rf_fit(x, np.array([0, 1, 0, 1], dtype=np.uint8), seed=1)

    def test_label_domain(self):
        with pytest.raises(DataError, match="0/1"):
            rf_fit(np.zeros((4, 2)), np.array([0, 1, 2, 1]), seed=1)

    def test_misaligned_shapes(self):
        with pytest.raises(DataError, match="align"):
            rf_fit(np.zeros((4, 2)), np.zeros(5, dtype=np.uint8), seed=1)

    def test_bad_hyperparameters(self):
        x, y = separable_clusters(seed=40, n=50)
        with pytest.raises(FitError, match="positive"):
            rf_fit(x, y, seed=1, n_trees=0)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        x, y = separable_clusters(seed=41, n=200)
        model = rf_fit(x, y, seed=42, n_trees=12)
        path = tmp_path / "forest.npb"
        save_forest(path, model)
        back = load_forest(path)
        probes = np.random.default_rng(43).uniform(-2, 2, (40, 2))
        np.testing.assert_array_equal(rf_predict(model, probes), rf_predict(back, probes))
        np.testing.assert_array_equal(back.feature_importances, model.feature_importances)
        assert back.max_depth == model.max_depth
        assert back.min_leaf == model.min_leaf

    def test_wrong_container_kind(self, tmp_path):
        from burnmap.modelio import save_blocks, text_block

        path = tmp_path / "other.npb"
        save_blocks(path, {"__meta__": text_block("kind=mlp\n")})
        with pytest.raises(DataError, match="'mlp' model, not 'random_forest'"):
            load_forest(path)

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("left", lambda a, n: _with(a, 0, 0)),  # a self loop: predict never ends
            ("right", lambda a, n: _with(a, 0, n)),
            ("left", lambda a, n: _with(a, 0, -1)),
            ("feature", lambda a, n: _with(a, 0, 2)),  # the forest has 2 features
            ("feature", lambda a, n: _with(a, n - 1, -2)),
            ("right", lambda a, n: _with(a, n - 1, 0)),  # a leaf with a child
            ("value", lambda a, n: a[:-1]),
            ("value", lambda a, n: _with(a, n - 1, 1.5)),
            ("threshold", lambda a, n: _with(a, 0, np.nan)),
            ("feature", lambda a, n: a.astype(np.float32)),
            ("all", lambda a, n: a[:0]),
        ],
    )
    def test_node_arrays_that_are_not_a_tree_are_rejected(self, tmp_path, field, damage):
        x, y = separable_clusters(seed=44, n=60)
        model = rf_fit(x, y, seed=45, n_trees=2, max_depth=3)
        tree = model.trees[1]
        n = tree.feature.size
        assert n >= 3 and tree.feature[0] >= 0 and tree.feature[n - 1] < 0
        changes = {
            name: damage(getattr(tree, name), n)
            for name in ("feature", "threshold", "left", "right", "value")
            if field in (name, "all")
        }
        trees = (model.trees[0], dataclasses.replace(tree, **changes))
        path = tmp_path / "forest.npb"
        save_forest(path, dataclasses.replace(model, trees=trees))
        with pytest.raises(FormatError, match="forest.npb: tree 1: "):
            load_forest(path)
