"""Synthetic generator: profile oracles, corruption layers, split bookkeeping."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from burnmap import synthetic
from burnmap.errors import ConfigError
from burnmap.rasters import ALL_BANDS, BandId, BitemporalSample, ingest_scene
from burnmap.synthetic import (
    BURNT_PROFILE,
    CONFIG_FIELDS,
    VEGETATION_PROFILE,
    WATER_PROFILE,
    _BURN_RADIUS,
    _DISTRACTOR_RADIUS,
    _SPOKES,
    _WATER_RADIUS,
    SyntheticConfig,
    _star_mask,
    benchmark_config,
    generate_dataset,
    generate_sample,
    generate_scene,
    split_counts,
)

CLEAN = SyntheticConfig(patch_size=32, n_train=4, n_val=2, n_test=2, water_prob=0.0)


def full_raster_star_mask(rng, height, width, radius_frac):
    """Reference for ``_star_mask``: the same draws, with every pixel of the
    raster tested against the rim."""
    radius = min(height, width) * rng.uniform(*radius_frac)
    cy = rng.uniform(0.15, 0.85) * height
    cx = rng.uniform(0.15, 0.85) * width
    spokes = radius * rng.uniform(0.55, 1.0, _SPOKES)
    angles = np.arange(_SPOKES) * (2.0 * np.pi / _SPOKES)
    yy, xx = np.mgrid[0:height, 0:width]
    dy = yy - cy
    dx = xx - cx
    theta = np.mod(np.arctan2(dy, dx), 2.0 * np.pi)
    rim = np.interp(theta, angles, spokes, period=2.0 * np.pi)
    return np.hypot(dy, dx) <= rim


class TestProfiles:
    def test_noiseless_patch_matches_profiles_exactly(self):
        """With every corruption off, pixels carry the class profiles verbatim."""
        s = generate_sample(CLEAN, seed=1, split="train", index=0, positive=True)
        burnt = s.truth.labels == 1
        assert burnt.any() and (~burnt).any()
        for b in ALL_BANDS:
            pre_plane = s.pre.band(b)
            post_plane = s.post.band(b)
            np.testing.assert_allclose(pre_plane, np.float32(VEGETATION_PROFILE[b]))
            np.testing.assert_allclose(post_plane[burnt], np.float32(BURNT_PROFILE[b]))
            np.testing.assert_allclose(post_plane[~burnt], np.float32(VEGETATION_PROFILE[b]))

    def test_water_overrides_both_epochs_and_truth(self):
        cfg = SyntheticConfig(patch_size=32, water_prob=1.0)
        s = generate_sample(cfg, seed=5, split="train", index=0, positive=True)
        water = s.water.astype(bool)
        assert water.any()
        assert not (s.truth.labels.astype(bool) & water).any()
        for b in (BandId.B8A, BandId.B12):
            np.testing.assert_allclose(s.pre.band(b)[water], np.float32(WATER_PROFILE[b]))
            np.testing.assert_allclose(s.post.band(b)[water], np.float32(WATER_PROFILE[b]))

    def test_reflectance_stays_in_unit_range(self):
        cfg = benchmark_config()
        s = generate_sample(cfg, seed=2, split="train", index=0, positive=True)
        for cube in (s.pre.data, s.post.data):
            assert cube.min() >= 0.0 and cube.max() <= 1.0


class TestCorruptions:
    def test_outlier_count_oracle(self):
        """noise=0 so every deviating pixel is a spike; count must equal the quota."""
        cfg = SyntheticConfig(
            patch_size=32, water_prob=0.0, outlier_frac=0.01, noise=0.0
        )
        s = generate_sample(cfg, seed=9, split="train", index=1, positive=False)
        expected = np.float32(1.0) * np.array(
            [VEGETATION_PROFILE[b] for b in ALL_BANDS], dtype=np.float32
        )
        deviates = np.zeros((32, 32), dtype=bool)
        for cube in (s.pre.data, s.post.data):
            diff = np.abs(cube - expected[:, None, None])
            deviates |= (diff > 0.1).any(axis=0)
        assert deviates.sum() == round(0.01 * 32 * 32)

    def test_distractor_shifts_swir2_only(self):
        cfg = SyntheticConfig(patch_size=32, water_prob=0.0, distractor_prob=1.0)
        s = generate_sample(cfg, seed=4, split="train", index=0, positive=False)
        b12_post = s.post.band(BandId.B12)
        blob = b12_post > VEGETATION_PROFILE[BandId.B12] + 0.3
        assert blob.any()
        assert not s.truth.labels[blob].any()
        # every other band is untouched on the blob
        for b in ALL_BANDS:
            if b is BandId.B12:
                continue
            np.testing.assert_allclose(
                s.post.band(b)[blob], np.float32(VEGETATION_PROFILE[b])
            )

    def test_noise_magnitude(self):
        cfg = SyntheticConfig(patch_size=64, water_prob=0.0, noise=0.02)
        s = generate_sample(cfg, seed=3, split="train", index=1, positive=False)
        resid = s.pre.band(BandId.B8A) - np.float32(VEGETATION_PROFILE[BandId.B8A])
        assert 0.015 < resid.std() < 0.025
        assert abs(resid.mean()) < 0.005


class TestDatasetLayout:
    def test_counts_and_split_assignment(self):
        ds = list(generate_dataset(CLEAN, seed=0))
        assert len(ds) == 8
        by_split = {sp: [s for s in ds if s.split == sp] for sp in ("train", "val", "test")}
        assert [len(by_split[sp]) for sp in ("train", "val", "test")] == [4, 2, 2]

    def test_positive_fraction(self):
        ds = generate_dataset(CLEAN, seed=0)
        train = [s for s in ds if s.split == "train"]
        assert sum(s.is_positive() for s in train) == 2  # burn_frac 0.5 of 4

    def test_positive_patches_have_enough_burnt(self):
        ds = generate_dataset(benchmark_config(), seed=6)
        for s in ds:
            if s.is_positive():
                assert s.truth.positive_pixels() >= 16

    def test_determinism_and_stream_independence(self):
        a = generate_sample(CLEAN, seed=42, split="val", index=1, positive=True)
        b = generate_sample(CLEAN, seed=42, split="val", index=1, positive=True)
        np.testing.assert_array_equal(a.pre.data, b.pre.data)
        np.testing.assert_array_equal(a.post.data, b.post.data)
        c = generate_sample(CLEAN, seed=43, split="val", index=1, positive=True)
        assert not np.array_equal(a.post.data, c.post.data)

    def test_benchmark_preset(self):
        cfg = benchmark_config()
        assert (cfg.n_train, cfg.n_val, cfg.n_test) == (40, 10, 10)
        assert cfg.patch_size == 64 and cfg.noise == 0.02
        assert cfg.distractor_prob > 0 and cfg.outlier_frac > 0


class TestStarMask:
    """``_star_mask`` evaluates only the polygon's bounding box; the result
    and the generator's stream must equal the full-raster reference."""

    RADII = {"burn": _BURN_RADIUS, "water": _WATER_RADIUS, "distractor": _DISTRACTOR_RADIUS}

    @pytest.mark.parametrize("shape", [(64, 64), (96, 40), (40, 96), (8, 8), (300, 700)])
    @pytest.mark.parametrize("kind", list(RADII))
    def test_matches_full_raster_reference(self, kind, shape):
        seed = [*shape, list(self.RADII).index(kind)]
        boxed_rng, full_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        touching = 0
        for draw in range(60):
            got = _star_mask(boxed_rng, *shape, self.RADII[kind])
            want = full_raster_star_mask(full_rng, *shape, self.RADII[kind])
            assert got.shape == shape and got.dtype == bool
            np.testing.assert_array_equal(got, want, err_msg=f"draw {draw}")
            assert boxed_rng.bit_generator.state == full_rng.bit_generator.state
            touching += bool(got[[0, -1]].any() or got[:, [0, -1]].any())
        if kind == "burn":
            # Burn scars cross the raster border in every shape, so boxes
            # clipped to the raster are among the draws.
            assert touching > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dataset_and_scene_bytes_match_reference(self, seed, monkeypatch):
        def generate():
            cfg = benchmark_config()
            scenes = [(s.pre, s.post, s.truth, s.water) for s in generate_dataset(cfg, seed)]
            scenes.append(generate_scene(cfg, seed, 256, 256))
            return [a.tobytes() for pre, post, truth, water in scenes
                    for a in (pre.data, post.data, truth.labels, water)]

        boxed = generate()
        monkeypatch.setattr(synthetic, "_star_mask", full_raster_star_mask)
        assert generate() == boxed


class TestSplitCounts:
    def test_five_events(self):
        assert split_counts(5) == {"train": 3, "val": 1, "test": 1}

    def test_round_half_up(self):
        assert split_counts(60) == {"train": 36, "val": 12, "test": 12}
        assert split_counts(10) == {"train": 6, "val": 2, "test": 2}

    def test_too_few(self):
        with pytest.raises(ConfigError):
            split_counts(2)


class TestScene:
    def test_scene_tiles_through_ingest(self):
        cfg = SyntheticConfig(patch_size=64, water_prob=1.0)
        pre, post, truth, water = generate_scene(cfg, seed=8, height=128, width=192)
        scene = BitemporalSample(pre, post, truth, water, event_id="sc")
        tiles = ingest_scene(scene, patch_size=64)
        assert len(tiles) == 6
        assert truth.positive_pixels() > 0
        stitched = np.zeros((128, 192), dtype=np.uint8)
        for k, t in enumerate(tiles):
            i, j = divmod(k, 3)
            stitched[64 * i : 64 * (i + 1), 64 * j : 64 * (j + 1)] = t.truth.labels
        np.testing.assert_array_equal(stitched, truth.labels)

    def test_scene_too_small(self):
        with pytest.raises(ConfigError):
            generate_scene(SyntheticConfig(patch_size=64), seed=0, height=32, width=128)

    def test_scene_peak_memory_is_bounded_by_its_output(self):
        """Plane-wise noise and an early float32 cast keep the traced peak
        near 2.5x the float32 pre and post cubes; a cube-sized noise draw
        beside both float64 cubes reads 3.15x."""
        cfg = benchmark_config()
        generate_scene(cfg, 4, 64, 64)  # warm caches outside the trace
        tracemalloc.start()
        try:
            pre, post, truth, water = generate_scene(cfg, 4, 192, 160)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pre.data.dtype == post.data.dtype == np.float32
        assert peak < 2.6 * (pre.data.nbytes + post.data.nbytes)


def _layer_digest(layers) -> str:
    h = hashlib.sha256()
    for pre, post, truth, water in layers:
        for a in (pre.data, post.data, truth.labels, water):
            h.update(a.tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    """SHA-256 of the generated reflectance and mask bytes, recorded before
    the noise was drawn one band plane at a time: a change of draw order,
    float64 arithmetic or cast shows here."""

    def test_benchmark_dataset(self):
        samples = generate_dataset(benchmark_config(), 3)
        assert _layer_digest((s.pre, s.post, s.truth, s.water) for s in samples) == (
            "e21cf7bd789ea3a4d216914f986ae5b501b43551259da21867bdfed0b9df9e75"
        )

    def test_benchmark_scene(self):
        assert _layer_digest([generate_scene(benchmark_config(), 3, 192, 160)]) == (
            "b1797ddb181bea0f9e6f520d95403cac49463da791c83801096e8f15e1c8bdfe"
        )


class TestConfigFieldRanges:
    # One out-of-range value per field, among them four that a per-field
    # if-chain once let through: an infinite noise, an outlier fraction of
    # 5, a negative split count and a water probability of 2.
    BAD = {
        "patch_size": 4,
        "n_train": -1,
        "n_val": -1,
        "n_test": -1,
        "bands": (BandId.B04, BandId.B04),
        "noise": float("inf"),
        "outlier_frac": 5.0,
        "distractor_prob": -0.1,
        "water_prob": 2.0,
        "burn_frac": 0.0,
    }

    def test_table_lists_every_field_in_order(self):
        fields = [f.name for f in dataclasses.fields(SyntheticConfig)]
        assert list(CONFIG_FIELDS) == fields
        assert list(self.BAD) == fields

    @pytest.mark.parametrize("key", list(BAD))
    def test_out_of_range_field_names_its_key(self, key):
        with pytest.raises(ConfigError, match=f"config key '{key}': expected"):
            dataclasses.replace(CLEAN, **{key: self.BAD[key]})

    def test_band_names_become_band_ids(self):
        cfg = dataclasses.replace(CLEAN, bands=("B04", "B12"))
        assert cfg.bands == (BandId.B04, BandId.B12)
        assert all(type(b) is BandId for b in cfg.bands)
