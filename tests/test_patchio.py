"""FLG1 container: round trips, layout arithmetic, malformed-input offsets."""

import numpy as np
import pytest

from burnmap.errors import DataError, FormatError
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


def header_size(n_bands, event_id):
    """Layout arithmetic done by hand: magic 4 + (version,size,bands) 5
    + band table 4n + (flags,split,idlen) 4 + id bytes."""
    return 4 + 5 + 4 * n_bands + 4 + len(event_id.encode())


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
        save_sample(s, tmp_path / "p.flg1")
        t = load_sample(tmp_path / "p.flg1")
        np.testing.assert_array_equal(t.post.data, s.post.data)
        assert (t.event_id, t.split) == ("ev-test-007", "test")

    def test_unicode_event_id(self):
        s = make_sample(event_id="Évros-α/r0c0")
        assert read_sample(write_sample(s)).event_id == "Évros-α/r0c0"

    def test_total_length_arithmetic(self):
        size, event_id = 6, "ev-train-000"
        blob = write_sample(make_sample(size=size, event_id=event_id))
        expected = header_size(3, event_id) + 2 * 3 * size * size * 4 + 2 * size * size
        assert len(blob) == expected

    def test_serialization_deterministic(self):
        assert write_sample(make_sample()) == write_sample(make_sample())


class TestMalformedInput:
    def test_bad_magic_offset_zero(self):
        blob = b"NOPE" + write_sample(make_sample())[4:]
        with pytest.raises(FormatError, match="offset 0"):
            read_sample(blob)

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated"):
            read_sample(b"FLG1\x01")

    def test_truncated_payload_reports_offset(self):
        s = make_sample(size=6, event_id="ev-train-000")
        blob = write_sample(s)
        cut = header_size(3, "ev-train-000") + 10  # inside the pre raster
        with pytest.raises(FormatError, match=f"offset {header_size(3, 'ev-train-000')}"):
            read_sample(blob[:cut])

    def test_unknown_band(self):
        blob = bytearray(write_sample(make_sample()))
        blob[9:13] = b"B99\x00"
        with pytest.raises(FormatError, match="B99"):
            read_sample(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(write_sample(make_sample()))
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(FormatError, match="version 99"):
            read_sample(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = write_sample(make_sample()) + b"\x00"
        with pytest.raises(FormatError, match="trailing"):
            read_sample(blob)

    def test_missing_truth_flag(self):
        s = make_sample(water=False, event_id="x")
        blob = bytearray(write_sample(s))
        flags_at = 4 + 5 + 4 * 3
        blob[flags_at] = 0
        with pytest.raises(FormatError, match="truth"):
            read_sample(bytes(blob))

    def test_unknown_split_code(self):
        blob = bytearray(write_sample(make_sample(event_id="x")))
        split_at = 4 + 5 + 4 * 3 + 1
        blob[split_at] = 7
        with pytest.raises(FormatError, match="split code 7"):
            read_sample(bytes(blob))

    def test_non_finite_reflectance_names_band_and_pixel(self):
        blob = bytearray(write_sample(make_sample(size=6, event_id="ev-train-000")))
        at = header_size(3, "ev-train-000") + 4 * (6 * 6 + 2 * 6 + 5)  # pre B8A (2, 5)
        blob[at : at + 4] = np.float32(np.inf).tobytes()
        with pytest.raises(DataError, match=r"band B8A .* inf at \(row 2, col 5\)"):
            read_sample(bytes(blob))


class TestFuzz:
    """Seeded damage over every byte of a sample with a water mask."""

    EVENT = "ev-train-000"

    def test_truncation_at_every_offset(self):
        blob = write_sample(make_sample(event_id=self.EVENT))
        for cut in range(len(blob)):
            with pytest.raises(FormatError) as err:
                read_sample(blob[:cut])
            assert err.value.offset is not None, cut

    def test_single_byte_corruption_at_every_offset(self):
        # Damage to the header must surface as FormatError (or leave a valid
        # header, e.g. another known band or split); damage to reflectance or
        # mask values may also be DataError (a NaN pixel, a label 7).
        blob = write_sample(make_sample(event_id=self.EVENT))
        payload_at = header_size(3, self.EVENT)
        rng = np.random.default_rng(11)
        for pos in range(len(blob)):
            damaged = bytearray(blob)
            damaged[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
            try:
                read_sample(bytes(damaged))
            except FormatError as err:
                assert err.offset is not None, pos
            except DataError:
                assert pos >= payload_at, pos
