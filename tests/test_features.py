"""Sampling quotas, schema algebra, and feature assembly oracles."""

import numpy as np
import pytest

from burnmap import spectral
from burnmap.errors import ConfigError, DataError, FitError
from burnmap.features import (
    POSITION,
    FeatureKey,
    FeatureSchema,
    all_schema,
    assemble_features,
    derive_mi_schema,
    dsi_schema,
    feature_cube,
    sample_pixels,
)
from burnmap.rasters import ALL_BANDS, BandId, BitemporalSample, GroundTruthMask, RasterPatch
from burnmap.spectral import UNITEMPORAL, IndexKind
from burnmap.synthetic import SyntheticConfig, generate_dataset

from scalar_formulas import scalar_delta, scalar_index, scalar_rbr, scalar_rdnbr


def dataset(seed=0, water_prob=1.0, n=8, size=24, noise=0.02):
    cfg = SyntheticConfig(
        patch_size=size, n_train=n, n_val=0, n_test=0, water_prob=water_prob, noise=noise
    )
    return [s for s in generate_dataset(cfg, seed) if s.split == "train"]


def single_pixel_sample(pre_vals, post_vals, label=1):
    pre = RasterPatch(ALL_BANDS, np.array([[[pre_vals[b]]] for b in ALL_BANDS], np.float32))
    post = RasterPatch(ALL_BANDS, np.array([[[post_vals[b]]] for b in ALL_BANDS], np.float32))
    return BitemporalSample(
        pre, post, GroundTruthMask(np.array([[label]], np.uint8)), event_id="one"
    )


def at(sample, row, col, label):
    """A one-pixel position array."""
    return np.array([(sample, row, col, label)], POSITION)


class TestSchemas:
    def test_all_schema_length_oracle(self):
        # 2*10 bands + 2*13 unitemporal indices + 13 deltas + RdNBR + RBR = 61
        schema = all_schema()
        assert len(schema) == 2 * 10 + 2 * 13 + 13 + 2 == 61
        assert schema.variant == "All"

    def test_dsi_schema_is_delta_only(self):
        schema = dsi_schema()
        assert len(schema) == 15
        assert all(e.source == "delta" for e in schema.entries)

    def test_mi_threshold_rule(self):
        schema = FeatureSchema(
            "All",
            tuple(FeatureKey("pre", band=b) for b in (BandId.B02, BandId.B03, BandId.B04)),
        )
        mi = derive_mi_schema(schema, np.array([0.5, 0.009, 0.491]))
        assert mi.labels() == ["pre:B02", "pre:B04"]
        assert mi.variant == "MI"

    def test_mi_uniform_all_retained(self):
        schema = all_schema()
        uniform = np.full(len(schema), 1.0 / len(schema))  # ~0.0164 each
        assert len(derive_mi_schema(schema, uniform)) == len(schema)

    def test_mi_boundary_not_retained(self):
        schema = dsi_schema()
        w = np.zeros(len(schema))
        w[0] = 0.01  # strictly-greater rule: exactly 0.01 is dropped
        w[1] = 1 - 0.01
        mi = derive_mi_schema(schema, w)
        assert mi.labels() == [schema.labels()[1]]

    def test_mi_length_mismatch(self):
        with pytest.raises(DataError, match="length"):
            derive_mi_schema(all_schema(), np.array([0.5, 0.5]))

    def test_schema_text_round_trip_byte_identical(self):
        schema = all_schema()
        text = schema.to_text()
        again = FeatureSchema.from_text(text)
        assert again == schema
        assert again.to_text() == text

    def test_feature_key_parse(self):
        assert FeatureKey.parse("pre:B02") == FeatureKey("pre", band=BandId.B02)
        assert FeatureKey.parse("d:RDNBR") == FeatureKey("delta", index=IndexKind.RDNBR)
        with pytest.raises(ConfigError):
            FeatureKey.parse("d:B02")
        with pytest.raises(ConfigError):
            FeatureKey.parse("nonsense")

    def test_duplicate_entries_rejected(self):
        k = FeatureKey("pre", band=BandId.B02)
        with pytest.raises(ConfigError, match="duplicate"):
            FeatureSchema("All", (k, k))


class TestSampling:
    def test_balanced_pool_counts(self):
        samples = dataset(seed=1, size=32)
        # Size the budget so every stratum provably suffices: the per-patch
        # burnt quota never exceeds the smallest positive patch's stock.
        stocks = [s.truth.positive_pixels() for s in samples if s.is_positive()]
        n = 2 * len(stocks) * min(min(stocks), 50)
        positions = sample_pixels(samples, n_pixels=n, seed=7)
        labels = positions["label"]
        assert (labels == 1).sum() == n // 2
        assert (labels == 0).sum() == n // 2

    def test_labels_match_truth(self):
        samples = dataset(seed=2)
        for p in sample_pixels(samples, 300, seed=3):
            assert samples[p["sample"]].truth.labels[p["row"], p["col"]] == p["label"]

    def test_no_duplicate_positions(self):
        samples = dataset(seed=3)
        positions = sample_pixels(samples, 500, seed=4)
        keys = np.unique(positions[["sample", "row", "col"]])
        assert len(keys) == len(positions)

    def test_water_quota_met_per_patch(self):
        samples = dataset(seed=4, water_prob=1.0)
        positions = sample_pixels(samples, 400, seed=5)
        per_patch: dict[int, list] = {}
        for p in positions:
            if p["label"] == 0:
                per_patch.setdefault(p["sample"], []).append(p)
        for sample_i, chosen in per_patch.items():
            s = samples[sample_i]
            if s.water is None or not s.water.any():
                continue
            on_water = sum(s.water[p["row"], p["col"]] for p in chosen)
            assert on_water / len(chosen) >= 0.10 - 1.0 / len(chosen)

    def test_deterministic(self):
        samples = dataset(seed=5)
        a = sample_pixels(samples, 200, seed=9)
        b = sample_pixels(samples, 200, seed=9)
        assert np.array_equal(a, b)
        c = sample_pixels(samples, 200, seed=10)
        assert not np.array_equal(a, c)

    def test_understocked_stratum_contributes_all(self):
        samples = dataset(seed=6, n=4, size=16, water_prob=0.0)
        total_burnt = sum(s.truth.positive_pixels() for s in samples)
        want = 2 * (total_burnt + 50)
        if want % 2:
            want += 1
        positions = sample_pixels(samples, want, seed=11)
        burnt = positions[positions["label"] == 1]
        assert len(burnt) == total_burnt  # every burnt pixel got used

    def test_odd_budget_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            sample_pixels(dataset(seed=7), 3, seed=0)

    def test_no_positive_patches(self):
        samples = dataset(seed=8)
        for s in samples:
            s.truth.labels[:] = 0
        with pytest.raises(FitError, match="burnt"):
            sample_pixels(samples, 10, seed=0)


class TestAssembly:
    def test_single_pixel_hand_oracle(self):
        """All-schema vector must equal the scalar formula oracle entry-wise."""
        rng = np.random.default_rng(13)
        pre_vals = {b: float(np.float32(rng.uniform(0.05, 0.9))) for b in ALL_BANDS}
        post_vals = {b: float(np.float32(rng.uniform(0.05, 0.9))) for b in ALL_BANDS}
        s = single_pixel_sample(pre_vals, post_vals)
        schema = all_schema()
        ds = assemble_features(schema, [s], at(0, 0, 0, 1))
        assert ds.x.shape == (1, 61)
        vec = dict(zip(schema.labels(), ds.x[0]))

        pre_b = {b.value: pre_vals[b] for b in ALL_BANDS}
        post_b = {b.value: post_vals[b] for b in ALL_BANDS}
        for b in ALL_BANDS:
            assert vec[f"pre:{b.value}"] == np.float32(pre_vals[b])
            assert vec[f"post:{b.value}"] == np.float32(post_vals[b])
        for k in UNITEMPORAL:
            np.testing.assert_allclose(
                vec[f"pre:{k.value}"], scalar_index(k.value, pre_b), rtol=1e-6
            )
            np.testing.assert_allclose(
                vec[f"d:{k.value}"], scalar_delta(k.value, pre_b, post_b),
                rtol=1e-5, atol=1e-6,
            )
        np.testing.assert_allclose(
            vec["d:RDNBR"], scalar_rdnbr(pre_b, post_b), rtol=1e-5
        )
        np.testing.assert_allclose(vec["d:RBR"], scalar_rbr(pre_b, post_b), rtol=1e-5)

    def test_dsi_identical_epochs_all_zero(self):
        vals = {b: 0.4 for b in ALL_BANDS}
        s = single_pixel_sample(vals, vals)
        ds = assemble_features(dsi_schema(), [s], at(0, 0, 0, 0))
        np.testing.assert_array_equal(ds.x, np.zeros((1, 15), np.float32))

    def test_nan_replaced_and_counted(self):
        post_vals = {b: 0.4 for b in ALL_BANDS}
        post_vals[BandId.B12] = 0.0  # post CSI = NIR/0 undefined -> dCSI NaN
        s = single_pixel_sample({b: 0.4 for b in ALL_BANDS}, post_vals)
        ds = assemble_features(dsi_schema(), [s], at(0, 0, 0, 0))
        col = dsi_schema().labels().index("d:CSI")
        assert ds.x[0, col] == 0.0
        assert ds.nan_counts["d:CSI"] == 1
        assert np.isfinite(ds.x).all()

    def test_pooling_follows_sample_order(self):
        samples = dataset(seed=9, n=4)
        positions = sample_pixels(samples, 40, seed=1)
        ds = assemble_features(dsi_schema(), samples, positions)
        assert (np.diff(ds.provenance["sample"]) >= 0).all()
        np.testing.assert_array_equal(ds.y, ds.provenance["label"])
        assert ds.x.shape == (len(positions), 15)

    def test_unknown_event_rejected(self):
        samples = dataset(seed=10, n=4)
        with pytest.raises(DataError, match="unknown"):
            assemble_features(dsi_schema(), samples, at(len(samples), 0, 0, 0))

    def test_empty_schema_rejected(self):
        samples = dataset(seed=11, n=4)
        empty = derive_mi_schema(dsi_schema(), np.zeros(15))
        with pytest.raises(DataError, match="empty"):
            assemble_features(empty, samples, at(0, 0, 0, 0))

    def test_cube_matches_per_feature_fields(self):
        """Each cube plane equals the band, compute_index or delta_field plane
        it stands for, bit for bit and NaN for NaN."""
        s = dataset(seed=13, n=2, noise=0.05)[0]
        s.post.data[s.post.bands.index(BandId.B12), 0, 0] = 0.0  # post CSI = NIR/0
        schema = all_schema()
        cube = feature_cube(schema, s)
        assert np.isnan(cube).any()
        for plane, key in zip(cube, schema.entries):
            patch = s.pre if key.source == "pre" else s.post
            if key.band is not None:
                expected = patch.band(key.band)
            elif key.source == "delta":
                expected = spectral.delta_field(key.index, s.pre, s.post)
            else:
                expected = spectral.compute_index(key.index, patch)
            np.testing.assert_array_equal(plane, expected, err_msg=key.label)

    @pytest.mark.parametrize("schema", [all_schema(), dsi_schema()], ids=["All", "dSI"])
    def test_each_index_plane_evaluated_once_per_sample(self, schema, monkeypatch):
        """13 unitemporal indices x 2 epochs: deltas, RdNBR and RBR reuse them."""
        calls = []
        evaluate = spectral._evaluate
        monkeypatch.setattr(
            spectral, "_evaluate", lambda kind, patch: calls.append(kind) or evaluate(kind, patch)
        )
        samples = dataset(seed=14, n=4)
        feature_cube(schema, samples[0])
        assert len(calls) == 26
        calls.clear()
        positions = sample_pixels(samples, 40, seed=3)
        assemble_features(schema, samples, positions)
        assert len(calls) == 26 * len(np.unique(positions["sample"]))
