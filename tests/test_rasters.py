"""Patch data model: invariants, clipping, tiling, patch balancing."""

import re

import numpy as np
import pytest

from burnmap.errors import DataError
from burnmap.rasters import (
    ALL_BANDS,
    BandId,
    BitemporalSample,
    GroundTruthMask,
    RasterPatch,
    balance_negatives,
    clip_reflectance,
    ingest_scene,
)


def make_patch(bands, height=4, width=4, fill=0.1):
    data = np.full((len(bands), height, width), fill, dtype=np.float32)
    return RasterPatch(tuple(bands), data)


def make_sample(height=4, width=4, positive=False, event_id="ev", split="train"):
    truth = np.zeros((height, width), dtype=np.uint8)
    if positive:
        truth[0, 0] = 1
    return BitemporalSample(
        pre=make_patch(ALL_BANDS, height, width, 0.2),
        post=make_patch(ALL_BANDS, height, width, 0.3),
        truth=GroundTruthMask(truth),
        event_id=event_id,
        split=split,
    )


class TestRasterPatch:
    def test_band_lookup(self):
        p = make_patch([BandId.B04, BandId.B8A])
        p.data[1] = 0.7
        np.testing.assert_array_equal(p.band(BandId.B8A), np.full((4, 4), 0.7, np.float32))

    def test_missing_band_rejected(self):
        p = make_patch([BandId.B04])
        with pytest.raises(DataError, match="B12"):
            p.band(BandId.B12)

    def test_shape_band_count_mismatch(self):
        with pytest.raises(DataError):
            RasterPatch((BandId.B04, BandId.B8A), np.zeros((3, 4, 4)))

    def test_duplicate_bands_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            RasterPatch((BandId.B04, BandId.B04), np.zeros((2, 4, 4)))

    def test_no_bands_rejected(self):
        with pytest.raises(DataError, match="patch has no bands"):
            RasterPatch((), np.zeros((0, 4, 4), np.float32))

    def test_data_cast_to_float32(self):
        p = RasterPatch((BandId.B04,), np.zeros((1, 2, 2), dtype=np.float64))
        assert p.data.dtype == np.float32

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float16])
    def test_bool_and_integer_data_are_reflectance(self, dtype):
        p = RasterPatch((BandId.B04,), np.ones((1, 2, 2), dtype=dtype))
        np.testing.assert_array_equal(p.data, np.ones((1, 2, 2), np.float32))

    @pytest.mark.parametrize("data, name", [
        (np.full((1, 2, 2), "0.5"), "<U3"),
        (np.full((1, 2, 2), b"1"), "|S1"),
        (np.zeros((1, 2, 2), np.complex128), "complex128"),
        (np.zeros((1, 2, 2), object), "object"),
    ])
    def test_data_that_is_not_real_rejected(self, data, name):
        with pytest.raises(DataError, match=f"dtype {re.escape(name)} is not real reflectance"):
            RasterPatch((BandId.B04,), data)


class TestGroundTruthMask:
    def test_non_binary_rejected(self):
        with pytest.raises(DataError, match="0/1"):
            GroundTruthMask(np.array([[0, 2]], dtype=np.uint8))

    @pytest.mark.parametrize(
        "labels, found",
        [
            (np.array([[256, 1], [0, 1]]), "[256]"),  # a uint8 cast would read 0
            (np.array([[0.5, 1.0]]), "[0.5]"),  # a uint8 cast would read 0
            (np.array([[-1, 0]], dtype=np.int8), "[-1]"),
            (np.array([[np.nan, 1.0]]), "[nan]"),
        ],
    )
    def test_values_are_checked_before_the_cast(self, labels, found):
        with pytest.raises(DataError, match=re.escape(f"0/1, found {found}")):
            GroundTruthMask(labels)

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float32])
    def test_binary_labels_of_any_dtype_become_uint8(self, dtype):
        m = GroundTruthMask(np.array([[1, 0], [0, 1]], dtype=dtype))
        assert m.labels.dtype == np.uint8
        assert m.labels.tolist() == [[1, 0], [0, 1]]

    def test_positive_pixels(self):
        m = GroundTruthMask(np.array([[1, 0], [1, 1]], dtype=np.uint8))
        assert m.positive_pixels() == 3


class TestBitemporalSample:
    def test_band_list_mismatch(self):
        with pytest.raises(DataError, match="band"):
            BitemporalSample(
                pre=make_patch([BandId.B04, BandId.B8A]),
                post=make_patch([BandId.B04, BandId.B12]),
                truth=GroundTruthMask(np.zeros((4, 4), np.uint8)),
            )

    def test_truth_shape_mismatch(self):
        with pytest.raises(DataError, match="truth"):
            BitemporalSample(
                pre=make_patch(ALL_BANDS),
                post=make_patch(ALL_BANDS),
                truth=GroundTruthMask(np.zeros((5, 4), np.uint8)),
            )

    def test_water_shape_mismatch(self):
        with pytest.raises(DataError, match="water"):
            BitemporalSample(
                pre=make_patch(ALL_BANDS),
                post=make_patch(ALL_BANDS),
                truth=GroundTruthMask(np.zeros((4, 4), np.uint8)),
                water=np.zeros((4, 5), np.uint8),
            )

    @pytest.mark.parametrize(
        "water, message",
        [
            (np.full((4, 4), 7, np.uint8), "water mask labels must be 0/1, found [7]"),
            (np.full((4, 4), 0.5), "water mask labels must be 0/1, found [0.5]"),
            (np.zeros(16, np.uint8), "water mask must be 2-D, got shape (16,)"),
        ],
        ids=["7", "half", "1-D"],
    )
    def test_water_is_a_binary_mask(self, water, message):
        """The water mask keeps the truth mask's 0/1 rule, checked before the
        uint8 cast."""
        with pytest.raises(DataError, match=re.escape(message)):
            BitemporalSample(
                pre=make_patch(ALL_BANDS),
                post=make_patch(ALL_BANDS),
                truth=GroundTruthMask(np.zeros((4, 4), np.uint8)),
                water=water,
            )

    def test_unknown_split(self):
        with pytest.raises(DataError, match="split"):
            make_sample(split="holdout")


class TestClipReflectance:
    def test_clips_into_range(self):
        data = np.array([-0.2, 0.0, 0.5, 1.0, 3.7], dtype=np.float32)
        out = clip_reflectance(data, 1.0)
        assert out is data  # clipped in place
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.5, 1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        data = rng.normal(0.4, 0.8, size=(3, 8, 8)).astype(np.float32)
        once = clip_reflectance(data, 1.0)
        np.testing.assert_array_equal(clip_reflectance(once.copy(), 1.0), once)

    def test_bad_clip_max(self):
        with pytest.raises(DataError):
            clip_reflectance(np.zeros(3), 0.0)


class TestIngestScene:
    def scene(self, height, width, bands=(BandId.B04, BandId.B8A), event_id=""):
        # Every pixel encodes its own coordinates so tile contents are checkable
        # by hand: value = row*1000 + col (scaled to stay inside the clip range).
        rows, cols = np.mgrid[0:height, 0:width]
        plane = (rows * 1000 + cols).astype(np.float32) * 1e-6
        data = np.stack([plane + 0.1 * k for k in range(len(bands))])
        truth = ((rows + cols) % 2).astype(np.uint8)
        return BitemporalSample(
            RasterPatch(bands, data),
            RasterPatch(bands, data + 1e-7),
            GroundTruthMask(truth),
            water=(rows < cols).astype(np.uint8),
            event_id=event_id,
            split="val",
        )

    def test_row_major_tiling_oracle(self):
        """70x100 at patch 32 -> 2x3 grid; tile (i,j) starts at (32i, 32j)."""
        scene = self.scene(70, 100, event_id="s")
        tiles = ingest_scene(scene, patch_size=32)
        assert len(tiles) == 6
        assert [t.event_id for t in tiles] == [
            "s/r0c0", "s/r0c1", "s/r0c2", "s/r1c0", "s/r1c1", "s/r1c2",
        ]
        for k, t in enumerate(tiles):
            i, j = divmod(k, 3)
            window = np.s_[32 * i : 32 * i + 32, 32 * j : 32 * j + 32]
            np.testing.assert_array_equal(t.pre.data, scene.pre.data[(slice(None), *window)])
            np.testing.assert_array_equal(t.truth.labels, scene.truth.labels[window])
            np.testing.assert_array_equal(t.water, scene.water[window])
            assert t.split == "val"

    def test_partial_border_dropped(self):
        tiles = ingest_scene(self.scene(33, 65), patch_size=32)
        assert len(tiles) == 2  # 1 row x 2 cols; the 1-px border is discarded
        assert [t.event_id for t in tiles] == ["r0c0", "r0c1"]

    def test_clipping_applied(self):
        scene = self.scene(32, 32)
        scene.pre.data[0, 0, 0] = 2.5
        tiles = ingest_scene(scene, patch_size=32, clip_max=1.0)
        assert tiles[0].pre.data[0, 0, 0] == 1.0

    def test_mismatched_layer_named(self):
        scene = self.scene(32, 32)
        with pytest.raises(DataError, match="truth"):
            BitemporalSample(scene.pre, scene.post, GroundTruthMask(np.zeros((32, 31), np.uint8)))

    def test_scene_smaller_than_patch(self):
        with pytest.raises(DataError, match="smaller"):
            ingest_scene(self.scene(16, 16), patch_size=32)

    def test_tiles_are_views_of_the_clipped_scene(self):
        """The scene is clipped in place and every tile shares its memory,
        so ingesting adds no copy of the scene."""
        scene = self.scene(70, 100)
        scene.post.data[1, 40, 70] = 3.0
        scene.pre.data[0, 5, 5] = -0.5
        pre, post = scene.pre.data, scene.post.data
        tiles = ingest_scene(scene, patch_size=32, clip_max=1.0)
        assert scene.pre.data is pre and scene.post.data is post
        assert post[1, 40, 70] == 1.0 and pre[0, 5, 5] == 0.0
        assert tiles[5].post.data[1, 8, 6] == 1.0  # tile r1c2
        for t in tiles:
            assert np.shares_memory(t.pre.data, pre)
            assert np.shares_memory(t.post.data, post)


class TestBalanceNegatives:
    def test_equal_counts(self):
        samples = [make_sample(positive=i < 3, event_id=f"e{i}") for i in range(10)]
        kept = balance_negatives(samples, seed=11)
        pos = [s for s in kept if s.is_positive()]
        neg = [s for s in kept if not s.is_positive()]
        assert len(pos) == len(neg) == 3

    def test_deterministic(self):
        samples = [make_sample(positive=i < 4, event_id=f"e{i}") for i in range(20)]
        a = [s.event_id for s in balance_negatives(samples, seed=5)]
        b = [s.event_id for s in balance_negatives(samples, seed=5)]
        assert a == b
        c = [s.event_id for s in balance_negatives(samples, seed=6)]
        assert set(a) != set(c) or a == c  # different seed may draw other negatives

    def test_insufficient_negatives(self):
        samples = [make_sample(positive=i < 3, event_id=f"e{i}") for i in range(5)]
        with pytest.raises(DataError, match="negative"):
            balance_negatives(samples, seed=0)
