"""Patch records: round trips, damaged records, records of another kind."""

import numpy as np
import pytest
from cluster_data import separable_clusters

from burnmap import bamcd
from burnmap.errors import DataError, FormatError
from burnmap.forest import load_forest, rf_fit, save_forest
from burnmap.mlp import load_mlp
from burnmap.modelio import pack_blocks, text_block, unpack_blocks
from burnmap.patchio import load_sample, read_sample, save_sample, write_sample
from burnmap.rasters import BandId, BitemporalSample, GroundTruthMask, RasterPatch

BANDS = (BandId.B04, BandId.B8A, BandId.B12)


def make_sample(size=6, water=True, event_id="ev-train-000", split="train", seed=3):
    rng = np.random.default_rng(seed)
    pre = RasterPatch(BANDS, rng.uniform(0, 1, (3, size, size)).astype(np.float32))
    post = RasterPatch(BANDS, rng.uniform(0, 1, (3, size, size)).astype(np.float32))
    truth = GroundTruthMask(rng.integers(0, 2, (size, size)).astype(np.uint8))
    wmask = rng.integers(0, 2, (size, size)).astype(np.uint8) if water else None
    return BitemporalSample(pre, post, truth, wmask, event_id, split)


def edited(sample=None, drop=(), **blocks):
    """The record of ``sample`` with ``blocks`` replaced and ``drop`` removed."""
    record = unpack_blocks(write_sample(sample or make_sample()))
    record.update(blocks)
    for name in drop:
        del record[name]
    return pack_blocks(record)


def payload_offset(blob: bytes, array: np.ndarray) -> int:
    at = blob.find(array.tobytes())
    assert at > 0
    return at


class TestRoundTrip:
    def test_exact_round_trip(self):
        s = make_sample()
        t = read_sample(write_sample(s))
        assert t.pre.bands == BANDS
        np.testing.assert_array_equal(t.pre.data, s.pre.data)
        np.testing.assert_array_equal(t.post.data, s.post.data)
        np.testing.assert_array_equal(t.truth.labels, s.truth.labels)
        np.testing.assert_array_equal(t.water, s.water)
        assert t.event_id == s.event_id
        assert t.split == s.split

    def test_round_trip_without_water(self):
        t = read_sample(write_sample(make_sample(water=False)))
        assert t.water is None

    def test_file_round_trip(self, tmp_path):
        s = make_sample(split="test", event_id="ev-test-007")
        save_sample(s, tmp_path / "p.npb")
        t = load_sample(tmp_path / "p.npb")
        np.testing.assert_array_equal(t.post.data, s.post.data)
        assert (t.event_id, t.split) == ("ev-test-007", "test")

    def test_unicode_event_id(self):
        s = make_sample(event_id="Évros-α/r0c0 # 2")
        assert read_sample(write_sample(s)).event_id == "Évros-α/r0c0 # 2"

    def test_record_layout(self):
        record = unpack_blocks(write_sample(make_sample(split="val")))
        assert list(record) == ["__meta__", "bands", "event_id", "pre", "post", "truth", "water"]
        assert bytes(record["__meta__"]) == b"kind=patch\nsplit=1\n"
        assert bytes(record["bands"]) == b"B04,B8A,B12"

    def test_serialization_deterministic(self):
        assert write_sample(make_sample()) == write_sample(make_sample())


class TestMalformedInput:
    def test_bad_magic_offset_zero(self):
        blob = b"NOPE" + write_sample(make_sample())[4:]
        with pytest.raises(FormatError, match="offset 0"):
            read_sample(blob)

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated"):
            read_sample(b"NPB1\x01")

    def test_truncated_payload_reports_offset(self):
        s = make_sample()
        blob = write_sample(s)
        at = payload_offset(blob, s.pre.data)
        with pytest.raises(FormatError, match=f"payload .*offset {at}"):
            read_sample(blob[: at + 10])

    def test_unknown_band(self):
        with pytest.raises(FormatError, match="B99"):
            read_sample(edited(bands=text_block("B04,B99,B12")))

    def test_unsupported_version(self):
        blob = bytearray(write_sample(make_sample()))
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(FormatError, match="version 99"):
            read_sample(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = write_sample(make_sample()) + b"\x00"
        with pytest.raises(FormatError, match="trailing"):
            read_sample(blob)

    def test_missing_truth_block(self):
        with pytest.raises(FormatError, match="no block 'truth'"):
            read_sample(edited(drop=["truth"]))

    def test_unknown_split_code(self):
        with pytest.raises(FormatError, match="split='7'"):
            read_sample(edited(__meta__=text_block("kind=patch\nsplit=7\n")))

    @pytest.mark.parametrize(
        "name, array",
        [
            ("pre", np.zeros((3, 6, 6), np.float64)),
            ("pre", np.zeros((2, 6, 6), np.float32)),
            ("post", np.zeros((3, 6, 5), np.float32)),
            ("truth", np.zeros((6, 6), np.int32)),
            ("water", np.zeros(36, np.uint8)),
        ],
    )
    def test_wrong_dtype_or_shape(self, name, array):
        with pytest.raises(FormatError, match=f"block '{name}'"):
            read_sample(edited(**{name: array}))

    def test_non_finite_reflectance_names_band_and_pixel(self):
        s = make_sample()
        blob = bytearray(write_sample(s))
        at = payload_offset(blob, s.pre.data) + 4 * (6 * 6 + 2 * 6 + 5)  # pre B8A (2, 5)
        blob[at : at + 4] = np.float32(np.inf).tobytes()
        with pytest.raises(DataError, match=r"band B8A .* inf at \(row 2, col 5\)"):
            read_sample(bytes(blob))

    def test_non_binary_water_is_data_error(self):
        """A water block is a 0/1 mask, like the truth block."""
        with pytest.raises(DataError, match=r"water mask labels must be 0/1, found \[7\]"):
            read_sample(edited(water=np.full((6, 6), 7, np.uint8)))


class TestOtherKinds:
    """Patch and model files share the container; each loader takes only its kind."""

    @pytest.mark.parametrize("load", [load_forest, load_mlp, bamcd.load_bamcd])
    def test_patch_file_is_not_a_model(self, load, tmp_path):
        save_sample(make_sample(), tmp_path / "p.npb")
        with pytest.raises(DataError, match="'patch' model") as err:
            load(tmp_path / "p.npb")
        assert not isinstance(err.value, FormatError)

    def test_model_file_is_not_a_patch(self, tmp_path):
        x, y = separable_clusters(seed=5, n=40)
        save_forest(tmp_path / "m.npb", rf_fit(x, y, seed=6, n_trees=2, max_depth=3))
        with pytest.raises(DataError, match="'random_forest' model, not 'patch'") as err:
            load_sample(tmp_path / "m.npb")
        assert not isinstance(err.value, FormatError)


class TestFuzz:
    """Seeded damage over every byte of a sample with a water mask: each case
    loads or raises DataError/FormatError, never another exception."""

    def test_truncation_at_every_offset(self):
        blob = write_sample(make_sample())
        for cut in range(len(blob)):
            with pytest.raises(FormatError) as err:
                read_sample(blob[:cut])
            assert err.value.offset is not None, cut

    def test_single_byte_corruption_at_every_offset(self):
        blob = write_sample(make_sample())
        rng = np.random.default_rng(11)
        for pos in range(len(blob)):
            damaged = bytearray(blob)
            damaged[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
            try:
                read_sample(bytes(damaged))
            except DataError:  # FormatError included
                pass
