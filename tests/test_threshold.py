"""Threshold search vs a brute-force rescan, binarize semantics, round trips."""

from types import SimpleNamespace

import numpy as np
import pytest

from burnmap import threshold
from burnmap.errors import DataError, FitError
from burnmap.metrics import accumulate, compute_metrics
from burnmap.spectral import IndexKind, delta_field
from burnmap.synthetic import SyntheticConfig, benchmark_config, generate_dataset
from burnmap.threshold import (
    GRID_STEPS,
    ThresholdModel,
    apply_threshold,
    binarize,
    evaluate_threshold,
    fit_threshold,
)


def percentile_grid(values, steps):
    """The candidate thresholds as numpy computes them: evenly spaced from
    the 1st to the 99th percentile of a float64 copy of the defined values."""
    defined = values[np.isfinite(values)].astype(np.float64)
    return np.linspace(*np.percentile(defined, (1.0, 99.0)), steps)


def brute_force_fit(kind, samples, steps=GRID_STEPS):
    """Independent oracle: score binarize() at every grid point via the public
    metrics path and take the first argmax."""
    pooled = np.concatenate(
        [delta_field(kind, s.pre, s.post).ravel() for s in samples]
    )
    grid = percentile_grid(pooled, steps)
    best_t, best_f1 = None, -1.0
    for t in grid:
        tallies = [
            accumulate(
                binarize(delta_field(kind, s.pre, s.post), t), s.truth.labels
            )
            for s in samples
        ]
        total = tallies[0]
        for extra in tallies[1:]:
            total = total + extra
        f1 = compute_metrics(total).burnt.f1
        if f1 > best_f1:
            best_t, best_f1 = float(t), float(f1)
    return best_t, best_f1


def argsort_fit(kind, samples, steps=GRID_STEPS):
    """The earlier scan: a stable argsort of the defined deltas, the labels
    gathered into that order, and burnt counts from a reversed cumulative
    sum, read at each grid point's left insertion point. Returns
    (threshold, grid_lo, grid_hi, train_f1)."""
    values = np.concatenate([delta_field(kind, s.pre, s.post).ravel() for s in samples])
    labels = np.concatenate([s.truth.labels.ravel() for s in samples])
    total_burnt = int(labels.sum())
    grid = percentile_grid(values, steps)
    finite = np.isfinite(values)
    v = values[finite]
    order = np.argsort(v, kind="stable")
    v_sorted = v[order]
    lab_sorted = labels[finite].astype(np.int64)[order]
    burnt_suffix = np.concatenate([np.cumsum(lab_sorted[::-1])[::-1], [0]])
    first_ge = np.searchsorted(v_sorted, grid, side="left")
    tp = burnt_suffix[first_ge].astype(np.float64)
    predicted = (v_sorted.size - first_ge).astype(np.float64)
    fp = predicted - tp
    fn = total_burnt - tp
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        rec = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(prec + rec > 0, 2.0 * prec * rec / (prec + rec), 0.0)
    best = int(np.argmax(f1))
    return float(grid[best]), float(grid[0]), float(grid[-1]), float(f1[best])


def brute_force_arrays(values, labels, steps):
    """(threshold, train_f1) of binarize() scored at every grid point of
    pooled delta and label arrays, first argmax."""
    best_t, best_f1 = None, -1.0
    for t in percentile_grid(values, steps):
        f1 = compute_metrics(accumulate(binarize(values, t), labels)).burnt.f1
        if f1 > best_f1:
            best_t, best_f1 = float(t), float(f1)
    return best_t, best_f1


def array_samples(monkeypatch, values, labels):
    """Samples whose delta fields are the rows of ``values``: the fit's
    delta_field is patched to hand each sample's row back."""
    monkeypatch.setattr(threshold, "delta_field", lambda kind, pre, post: pre)
    return [
        SimpleNamespace(pre=v, post=None, truth=SimpleNamespace(labels=lab))
        for v, lab in zip(values, labels)
    ]


def train_samples(seed, noise=0.02, n=6, size=24):
    cfg = SyntheticConfig(
        patch_size=size, n_train=n, n_val=1, n_test=1, noise=noise, water_prob=0.4
    )
    return [s for s in generate_dataset(cfg, seed) if s.split == "train"]


class TestBinarize:
    def test_boundary_inclusive(self):
        field = np.array([[-1.0, 0.0, 1.0]], np.float32)
        np.testing.assert_array_equal(binarize(field, 0.0), [[0, 1, 1]])

    def test_all_ones_below_range(self):
        field = np.array([[0.2, 0.5]], np.float32)
        np.testing.assert_array_equal(binarize(field, -1.0), [[1, 1]])

    def test_nan_maps_to_unburnt(self):
        field = np.array([[np.nan, 5.0]], np.float32)
        np.testing.assert_array_equal(binarize(field, 0.0), [[0, 1]])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(16, 16)).astype(np.float32)
        counts = [binarize(field, t).sum() for t in np.linspace(-3, 3, 40)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestFitThreshold:
    def test_matches_brute_force_20_datasets(self):
        """Exact agreement with the naive rescan, across seeds and indices."""
        kinds = [IndexKind.NBR, IndexKind.MIRBI, IndexKind.RDNBR, IndexKind.NDVI]
        for trial in range(20):
            samples = train_samples(seed=trial, noise=0.03, n=4, size=16)
            kind = kinds[trial % len(kinds)]
            model = fit_threshold(kind, samples, steps=64)
            oracle_t, oracle_f1 = brute_force_fit(kind, samples, steps=64)
            assert model.threshold == oracle_t, (trial, kind)
            assert model.train_f1 == oracle_f1, (trial, kind)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_argsort_scan_at_benchmark_scale(self, seed):
        """Bitwise the fit of the stable-argsort scan, for every index on the
        40 train patches of 64x64 of the standard benchmark."""
        samples = [
            s for s in generate_dataset(benchmark_config(noise=0.02), seed) if s.split == "train"
        ]
        assert len(samples) == 40
        for kind in IndexKind:
            m = fit_threshold(kind, samples)
            got = (m.threshold, m.grid_lo, m.grid_hi, m.train_f1)
            want = argsort_fit(kind, samples)
            assert np.array(got).tobytes() == np.array(want).tobytes(), kind

    def test_ties_on_every_grid_point(self, monkeypatch):
        """Deltas on a 0.25 lattice, ten pixels per value, and a grid whose
        points are all lattice values: a pixel equal to a grid point counts
        as predicted burnt there."""
        rng = np.random.default_rng(12)
        values = (np.repeat(np.arange(101), 10) / 4).astype(np.float32)
        labels = ((values >= 12) ^ (rng.random(values.size) < 0.2)).astype(np.uint8)
        grid = percentile_grid(values, 99)
        assert np.isin(grid, values).all()
        samples = array_samples(monkeypatch, values.reshape(10, -1), labels.reshape(10, -1))
        model = fit_threshold(IndexKind.NBR, samples, steps=99)
        assert (model.threshold, model.train_f1) == brute_force_arrays(values, labels, 99)
        assert 0.25 < model.threshold < 24.75

    def test_quantized_deltas(self, monkeypatch):
        """Deltas rounded to 0.1, so most pixels share their value."""
        rng = np.random.default_rng(13)
        labels = (rng.random(4000) < 0.3).astype(np.uint8)
        values = np.round(rng.normal(labels * 1.2, 1.0), 1).astype(np.float32)
        assert np.unique(values).size < 100
        samples = array_samples(monkeypatch, values.reshape(8, -1), labels.reshape(8, -1))
        for steps in (2, 64, 257):
            model = fit_threshold(IndexKind.NBR, samples, steps=steps)
            assert (model.threshold, model.train_f1) == brute_force_arrays(values, labels, steps)

    def test_undefined_burnt_deltas_are_misses(self, monkeypatch):
        """A NaN delta is never predicted burnt, so a burnt pixel whose delta
        is NaN is a false negative at every grid point."""
        rng = np.random.default_rng(14)
        labels = (rng.random(3000) < 0.4).astype(np.uint8)
        values = rng.normal(labels * 1.5, 1.0).astype(np.float32)
        values[(labels == 1) & (rng.random(3000) < 0.3)] = np.nan
        values[(labels == 0) & (rng.random(3000) < 0.05)] = np.nan
        samples = array_samples(monkeypatch, values.reshape(6, -1), labels.reshape(6, -1))
        model = fit_threshold(IndexKind.NBR, samples, steps=64)
        assert (model.threshold, model.train_f1) == brute_force_arrays(values, labels, 64)
        assert model.train_f1 < 0.85  # the misses keep recall at or below 0.7

    def test_noiseless_separation_perfect_f1(self):
        samples = train_samples(seed=3, noise=0.0)
        model = fit_threshold(IndexKind.NBR, samples)
        assert model.train_f1 == 1.0

    def test_two_point_grid(self):
        samples = train_samples(seed=4, noise=0.0)
        model = fit_threshold(IndexKind.NBR, samples, steps=2)
        _, oracle_f1 = brute_force_fit(IndexKind.NBR, samples, steps=2)
        assert model.train_f1 == oracle_f1

    def test_refit_reproduces_recorded_f1(self):
        """Applying the fitted model to its own training pixels reproduces
        train_f1 exactly."""
        samples = train_samples(seed=5, noise=0.05)
        model = fit_threshold(IndexKind.NBR, samples)
        _, report = evaluate_threshold(model, samples)
        assert report.burnt.f1 == model.train_f1

    def test_single_class_rejected(self):
        cfg = SyntheticConfig(patch_size=16, n_train=2, n_val=1, n_test=1, burn_frac=1.0)
        negatives = [
            s for s in generate_dataset(cfg, 0) if s.split == "train"
        ]
        for s in negatives:
            s.truth.labels[:] = 0
        with pytest.raises(FitError, match="single class"):
            fit_threshold(IndexKind.NBR, negatives)

    def test_empty_samples(self):
        with pytest.raises(FitError):
            fit_threshold(IndexKind.NBR, [])
        with pytest.raises(FitError):
            fit_threshold(IndexKind.NBR, iter([]))

    def test_reads_a_generator_once(self):
        samples = train_samples(seed=8)
        read = []

        def once():
            for s in samples:
                read.append(s.event_id)
                yield s

        assert fit_threshold(IndexKind.NBR, once()) == fit_threshold(IndexKind.NBR, samples)
        assert read == [s.event_id for s in samples]

    def test_degenerate_distribution(self):
        samples = train_samples(seed=6, noise=0.0, n=2)
        for s in samples:
            s.post.data[:] = s.pre.data  # all deltas exactly zero
            s.truth.labels[0, 0] = 1
            s.truth.labels[1, 1] = 0
        with pytest.raises(FitError, match="degenerate"):
            fit_threshold(IndexKind.NBR, samples)

    def test_threshold_within_grid(self):
        samples = train_samples(seed=7)
        m = fit_threshold(IndexKind.MIRBI, samples)
        assert m.grid_lo <= m.threshold <= m.grid_hi
        assert m.grid_steps == GRID_STEPS


class TestPercentile:
    @pytest.mark.parametrize("q", [0.0, 1.0, 37.5, 50.0, 99.0, 100.0])
    def test_bitwise_numpy_on_float64(self, q):
        """The fit reads the grid ends off its sorted float32 deltas; they
        must be the bits of numpy's linear percentile of a float64 copy."""
        rng = np.random.default_rng(17)
        sizes = [1, 2, 3, 7, 100, 101, 4096, *rng.integers(1, 5000, 40)]
        for n in sizes:
            v = rng.normal(0.0, 1.0, n).astype(np.float32)
            v[rng.random(n) < 0.2] = 0.5  # ties
            v.sort()
            want = np.percentile(v.astype(np.float64), q)
            got = threshold._percentile(v, q)
            assert np.float64(got).tobytes() == want.tobytes(), (n, q)


class TestSerialization:
    def test_text_round_trip(self, tmp_path):
        samples = train_samples(seed=8)
        m = fit_threshold(IndexKind.NBR, samples)
        m.save(tmp_path / "model.txt")
        back = ThresholdModel.load(tmp_path / "model.txt")
        assert back == m

    def test_non_utf8_model_file_is_data_error(self, tmp_path):
        (tmp_path / "model.txt").write_bytes(b"kind=NBR\nthreshold=0.\xe9\n")
        with pytest.raises(DataError, match="model.txt is not UTF-8 text: byte 0xe9 at offset 21"):
            ThresholdModel.load(tmp_path / "model.txt")

    def test_missing_field(self):
        with pytest.raises(DataError, match="missing"):
            ThresholdModel.from_text("kind=NBR\nthreshold=0.5\n")

    @pytest.mark.parametrize(
        "key, value", [("threshold", "abc"), ("grid_steps", "3.5"), ("kind", "XYZ")]
    )
    def test_unparsable_value_names_the_key(self, key, value):
        fields = dict(kind="NBR", threshold="0.5", grid_lo="0.0", grid_hi="1.0",
                      grid_steps="8", train_f1="0.5")
        fields[key] = value
        text = "".join(f"{k}={v}\n" for k, v in fields.items())
        with pytest.raises(DataError, match=f"threshold model: config key '{key}'.*'{value}'"):
            ThresholdModel.from_text(text)

    def test_bad_line(self):
        with pytest.raises(DataError, match="key=value"):
            ThresholdModel.from_text("kind=NBR\nnonsense\n")

    def test_invalid_grid_rejected(self):
        with pytest.raises(FitError):
            ThresholdModel(IndexKind.NBR, 0.5, grid_lo=1.0, grid_hi=0.0,
                           grid_steps=8, train_f1=0.5)
        with pytest.raises(FitError):
            ThresholdModel(IndexKind.NBR, 2.0, grid_lo=0.0, grid_hi=1.0,
                           grid_steps=8, train_f1=0.5)


class TestApply:
    def test_apply_matches_manual_binarize(self):
        samples = train_samples(seed=9)
        m = fit_threshold(IndexKind.NBR, samples)
        s = samples[0]
        manual = binarize(delta_field(IndexKind.NBR, s.pre, s.post), m.threshold)
        np.testing.assert_array_equal(apply_threshold(m, s), manual)
