"""Manifest inventory: round trips, byte stability, malformed rows."""

import shutil

import numpy as np
import pytest

from burnmap.errors import DataError
from burnmap.manifest import (
    MANIFEST_NAME,
    load_split,
    read_manifest,
    save_dataset,
    write_manifest,
)
from burnmap.synthetic import SyntheticConfig, generate_dataset

CFG = SyntheticConfig(patch_size=16, n_train=3, n_val=1, n_test=1, water_prob=1.0)


@pytest.fixture()
def dataset():
    return generate_dataset(CFG, seed=12)


class TestRoundTrip:
    def test_save_read_load(self, tmp_path, dataset):
        save_dataset(dataset, tmp_path, clip_max=1.0)
        m = read_manifest(tmp_path / MANIFEST_NAME)
        assert m.patch_size == 16 and m.clip_max == 1.0
        assert [len(m.by_split(s)) for s in ("train", "val", "test")] == [3, 1, 1]
        train = load_split(m, "train")
        assert [s.event_id for s in train] == [s.event_id for s in dataset[:3]]
        np.testing.assert_array_equal(train[0].pre.data, dataset[0].pre.data)
        np.testing.assert_array_equal(train[0].water, dataset[0].water)

    def test_positive_pixel_counts_recorded(self, tmp_path, dataset):
        m = save_dataset(dataset, tmp_path)
        for entry, s in zip(m.entries, dataset):
            assert entry.positive_pixels == s.truth.positive_pixels()

    def test_relocatable(self, tmp_path, dataset):
        save_dataset(dataset, tmp_path / "a")
        shutil.move(tmp_path / "a", tmp_path / "b")
        m = read_manifest(tmp_path / "b" / MANIFEST_NAME)
        assert len(load_split(m, "val")) == 1

    def test_byte_identical_rewrite(self, tmp_path, dataset):
        save_dataset(dataset, tmp_path / "x")
        save_dataset(dataset, tmp_path / "y")
        mx = (tmp_path / "x" / MANIFEST_NAME).read_bytes()
        my = (tmp_path / "y" / MANIFEST_NAME).read_bytes()
        assert mx == my
        for p in sorted((tmp_path / "x" / "patches").iterdir()):
            q = tmp_path / "y" / "patches" / p.name
            assert p.read_bytes() == q.read_bytes()


class TestValidation:
    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            save_dataset([], tmp_path)

    def test_duplicate_event_ids_rejected(self, tmp_path, dataset):
        twice = dataset + dataset[:1]
        with pytest.raises(DataError, match="duplicate"):
            save_dataset(twice, tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_manifest(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("# patch_size=16\n# clip_max=1.0\nwrong,header\n")
        with pytest.raises(DataError, match="header"):
            read_manifest(p)

    def test_bad_split_with_line_number(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text(
            "# patch_size=16\n# clip_max=1.0\n"
            "event_id,split,path,positive_pixels\n"
            "ev,holdout,patches/ev.flg1,0\n"
        )
        with pytest.raises(DataError, match=":4"):
            read_manifest(p)

    def test_missing_settings(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("event_id,split,path,positive_pixels\n")
        with pytest.raises(DataError, match="patch_size"):
            read_manifest(p)

    def test_field_count(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text(
            "# patch_size=16\n# clip_max=1.0\n"
            "event_id,split,path,positive_pixels\nev,train,path\n"
        )
        with pytest.raises(DataError, match="4 fields"):
            read_manifest(p)

    def test_mixed_patch_sizes_rejected(self, tmp_path, dataset):
        other = generate_dataset(
            SyntheticConfig(patch_size=32, n_train=1, n_val=1, n_test=1), seed=1
        )
        with pytest.raises(DataError, match="mixed"):
            save_dataset(dataset + other, tmp_path)

    def test_size_mismatch_on_load(self, tmp_path, dataset):
        save_dataset(dataset, tmp_path)
        m = read_manifest(tmp_path / MANIFEST_NAME)
        m.patch_size = 99
        with pytest.raises(DataError, match="99"):
            load_split(m, "train")

    def test_write_rejects_comma_fields(self, tmp_path, dataset):
        m = save_dataset(dataset, tmp_path)
        m.entries[0].event_id = "a,b"
        with pytest.raises(DataError, match="comma"):
            write_manifest(m, tmp_path / "m2.csv")
