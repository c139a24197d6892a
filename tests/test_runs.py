"""Tests for the batch run commands behind the CLI."""

import hashlib
import shutil
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from burnmap import nn, runs
from burnmap.bamcd import load_bamcd
from burnmap.errors import ConfigError, DataError
from burnmap.features import FeatureSchema, assemble_features, dsi_schema, sample_pixels
from burnmap.forest import load_forest
from burnmap.manifest import load_split, read_manifest, save_dataset
from burnmap.mlp import load_mlp
from burnmap.runs import (
    _synthetic_config,
    cmd_dl_run,
    cmd_index_eval,
    cmd_ingest,
    cmd_ml_run,
    cmd_report,
    cmd_synth,
)
from burnmap.synthetic import SyntheticConfig, generate_dataset, generate_scene
from burnmap.rasters import ALL_BANDS
from burnmap.threshold import ThresholdModel

DATASET_CFG = {
    "n_train": "6",
    "n_val": "2",
    "n_test": "2",
    "patch_size": "32",
    "noise": "0.0",
}


def fingerprint(root: Path) -> dict[str, str]:
    """Relative path -> content hash for every file under root."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[str(path.relative_to(root))] = digest
    return out


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("data") / "clean"
    cmd_synth(dict(DATASET_CFG), out, seed=5)
    return out


class TestSynth:
    def test_event_split_counts(self, tmp_path):
        manifest_path = cmd_synth({"events": "5", "patch_size": "24"}, tmp_path / "d", seed=1)
        manifest = read_manifest(manifest_path)
        by_split = {"train": 0, "val": 0, "test": 0}
        for e in manifest.entries:
            by_split[e.split] += 1
        assert by_split == {"train": 3, "val": 1, "test": 1}

    def test_rerun_is_byte_identical(self, tmp_path):
        cmd_synth(dict(DATASET_CFG), tmp_path / "a", seed=9)
        cmd_synth(dict(DATASET_CFG), tmp_path / "b", seed=9)
        fa, fb = fingerprint(tmp_path / "a"), fingerprint(tmp_path / "b")
        assert fa and fa == fb

    def test_seed_changes_patches(self, tmp_path):
        cmd_synth(dict(DATASET_CFG), tmp_path / "a", seed=9)
        cmd_synth(dict(DATASET_CFG), tmp_path / "b", seed=10)
        assert fingerprint(tmp_path / "a") != fingerprint(tmp_path / "b")

    def test_events_conflicts_with_counts(self, tmp_path):
        with pytest.raises(ConfigError, match="not both"):
            cmd_synth({"events": "5", "n_train": "4"}, tmp_path / "d", seed=0)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config keys"):
            cmd_synth({"n_patches": "4"}, tmp_path / "d", seed=0)

    def test_clean_preset_writes_the_bare_dataset(self, tmp_path):
        cmd_synth({"preset": "clean"}, tmp_path / "clean", seed=4)
        cmd_synth({}, tmp_path / "bare", seed=4)
        clean, bare = fingerprint(tmp_path / "clean"), fingerprint(tmp_path / "bare")
        assert clean.pop("run_config.txt") != bare.pop("run_config.txt")  # echoes the preset
        assert clean and clean == bare

    def test_benchmark_preset(self):
        cfg = _synthetic_config({"preset": "benchmark"})
        assert (cfg.n_train, cfg.n_val, cfg.n_test) == (40, 10, 10)
        assert cfg.distractor_prob == 0.6
        assert cfg.outlier_frac == 0.001
        # overrides still apply on top of the preset
        assert _synthetic_config({"preset": "benchmark", "noise": "0.05"}).noise == 0.05


class TestIngest:
    def _scene_file(self, path: Path, seed: int, height=48, width=72, dtype=np.float32) -> Path:
        cfg = SyntheticConfig(patch_size=24, noise=0.0)
        pre, post, truth, water = generate_scene(cfg, seed, height, width)
        np.savez(
            path,
            bands=np.array([b.value for b in pre.bands]),
            pre=pre.data.astype(dtype),
            post=post.data.astype(dtype),
            truth=truth.labels,
            water=water,
        )
        return path

    def test_tiles_one_scene_per_split(self, tmp_path):
        scene = self._scene_file(tmp_path / "scene.npz", seed=3)
        out = tmp_path / "ingested"
        manifest_path = cmd_ingest(
            {"scene_train": str(scene), "patch_size": "24"}, out, seed=0
        )
        manifest = read_manifest(manifest_path)
        assert len(manifest.entries) == (48 // 24) * (72 // 24)
        assert all(e.split == "train" for e in manifest.entries)
        assert manifest.patch_size == 24

    def test_missing_scene_array_rejected(self, tmp_path):
        bad = tmp_path / "bad.npz"
        np.savez(bad, pre=np.zeros((1, 8, 8), np.float32))
        with pytest.raises(DataError, match="missing array"):
            cmd_ingest({"scene_train": str(bad)}, tmp_path / "out", seed=0)

    def test_float64_scene_holds_each_date_once(self, tmp_path):
        """Each float64 date is let go once its float32 patch exists, so the
        peak for a float64 archive stays under 2.2x that for the same scene
        stored float32; holding both float64 dates beside both float32
        copies reads 2.7x."""
        scenes = {
            dtype: self._scene_file(tmp_path / f"{dtype}.npz", 3, 256, 256, dtype)
            for dtype in ("float32", "float64")
        }
        cmd_ingest({"scene_train": str(scenes["float32"])}, tmp_path / "warm", seed=0)
        peaks = {}
        for dtype, scene in scenes.items():
            tracemalloc.start()
            try:
                cmd_ingest({"scene_train": str(scene)}, tmp_path / dtype, seed=0)
                peaks[dtype] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["float64"] < 2.2 * peaks["float32"], peaks

    def test_damaged_scene_member_names_the_file(self, tmp_path):
        scene = self._scene_file(tmp_path / "scene.npz", seed=3)
        damaged = tmp_path / "damaged.npz"
        with zipfile.ZipFile(scene) as src, zipfile.ZipFile(damaged, "w") as dst:
            for name in src.namelist():
                data = src.read(name)
                dst.writestr(name, data[:-100] if name == "post.npy" else data)
        with pytest.raises(DataError, match=f"cannot read scene file {damaged}"):
            cmd_ingest({"scene_train": str(damaged)}, tmp_path / "out", seed=0)
        assert not (tmp_path / "out").exists()

    def test_no_scene_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one"):
            cmd_ingest({"patch_size": "24"}, tmp_path / "out", seed=0)


class TestIndexEval:
    def test_noiseless_dnbr_baseline(self, dataset_dir, tmp_path):
        out = tmp_path / "dnbr"
        report = cmd_index_eval(
            {"manifest": str(dataset_dir / "manifest.csv"), "index": "NBR"},
            out,
            seed=0,
        )
        assert report.burnt.f1 >= 0.99
        model = ThresholdModel.load(out / "threshold.txt")
        assert model.kind.value == "NBR"
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("dNBR,indices,0,")

    def test_rerun_is_byte_identical(self, dataset_dir, tmp_path):
        cfg = {"manifest": str(dataset_dir / "manifest.csv"), "index": "NBR"}
        cmd_index_eval(dict(cfg), tmp_path / "a", seed=4)
        cmd_index_eval(dict(cfg), tmp_path / "b", seed=4)
        fa, fb = fingerprint(tmp_path / "a"), fingerprint(tmp_path / "b")
        assert fa and fa == fb

    def test_missing_band_is_data_error(self, tmp_path):
        cfg = SyntheticConfig(
            patch_size=24, n_train=4, n_val=1, n_test=1, bands=ALL_BANDS[:8]
        )
        save_dataset(generate_dataset(cfg, seed=2), tmp_path / "narrow")
        with pytest.raises(DataError, match="B12"):
            cmd_index_eval(
                {"manifest": str(tmp_path / "narrow" / "manifest.csv"), "index": "NBR"},
                tmp_path / "out",
                seed=0,
            )

    def test_unknown_index_rejected(self, dataset_dir, tmp_path):
        with pytest.raises(ConfigError, match="unknown spectral index"):
            cmd_index_eval(
                {"manifest": str(dataset_dir / "manifest.csv"), "index": "XYZ"},
                tmp_path / "out",
                seed=0,
            )


RF_CFG = {
    "method": "rf",
    "schema": "All",
    "n_pixels": "300",
    "rf_trees": "15",
    "rf_max_depth": "8",
}


@pytest.fixture(scope="module")
def rf_all_run(dataset_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("ml") / "rf_all"
    cfg = dict(RF_CFG, manifest=str(dataset_dir / "manifest.csv"))
    cmd_ml_run(cfg, out, seed=8, repeats=2)
    return out


class TestMlRun:
    RF_CFG = RF_CFG

    def test_outputs_and_performance(self, rf_all_run):
        lines = (rf_all_run / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3  # header + one row per repeat
        assert lines[1].startswith("rf-All,ml,0,")
        assert lines[2].startswith("rf-All,ml,1,")
        f1_col = lines[0].split(",").index("f1_burnt")
        assert all(float(ln.split(",")[f1_col]) >= 0.9 for ln in lines[1:])
        assert (rf_all_run / "model_r0.npb").exists()
        assert (rf_all_run / "model_r1.npb").exists()
        assert "mean (std)" in (rf_all_run / "report.txt").read_text()

    def test_schema_and_importances_written(self, rf_all_run):
        schema = FeatureSchema.load(rf_all_run / "schema.txt")
        assert schema.variant == "All"
        assert len(schema) == 61  # 2*10 bands + 2*13 indices + 15 deltas
        lines = (rf_all_run / "importances.txt").read_text().splitlines()
        assert len(lines) == 61
        total = sum(float(ln.rsplit(",", 1)[1]) for ln in lines)
        assert abs(total - 1.0) < 1e-9

    def test_mi_schema_matches_hand_filter(self, rf_all_run, dataset_dir, tmp_path):
        out = tmp_path / "rf_mi"
        cfg = dict(
            self.RF_CFG,
            schema="MI",
            mi_source=str(rf_all_run),
            manifest=str(dataset_dir / "manifest.csv"),
        )
        cmd_ml_run(cfg, out, seed=8, repeats=1)
        mi = FeatureSchema.load(out / "schema.txt")
        assert mi.variant == "MI"
        kept_by_hand = []
        for line in (rf_all_run / "importances.txt").read_text().splitlines():
            label, raw = line.rsplit(",", 1)
            if float(raw) > 0.01:
                kept_by_hand.append(label)
        assert mi.labels() == kept_by_hand
        assert 0 < len(mi) < 61

    def test_mi_without_source_rejected(self, dataset_dir, tmp_path):
        cfg = dict(self.RF_CFG, schema="MI", manifest=str(dataset_dir / "manifest.csv"))
        with pytest.raises(ConfigError, match="mi_source"):
            cmd_ml_run(cfg, tmp_path / "out", seed=8)

    @pytest.mark.parametrize("name", ["schema.txt", "importances.txt"])
    def test_non_utf8_mi_source_is_data_error(self, rf_all_run, dataset_dir, tmp_path, name):
        source = shutil.copytree(rf_all_run, tmp_path / "source")
        text = bytearray((source / name).read_bytes())
        text[12] = 0xFF
        (source / name).write_bytes(bytes(text))
        cfg = dict(
            self.RF_CFG,
            schema="MI",
            mi_source=str(source),
            manifest=str(dataset_dir / "manifest.csv"),
        )
        with pytest.raises(DataError, match=f"{name} is not UTF-8 text: byte 0xff at offset 12"):
            cmd_ml_run(cfg, tmp_path / "out", seed=8)

    @pytest.mark.parametrize(
        "damaged",
        [
            "pre:B02,abc", "pre:B02 0.5", "pre:B02,", "pre:B02,nan", "pre:B02,inf",
            "pre:NOPE,0.5", "pre:B02,0.5",
        ],
    )
    def test_unparsable_importance_is_data_error(
        self, rf_all_run, dataset_dir, tmp_path, damaged
    ):
        source = shutil.copytree(rf_all_run, tmp_path / "source")
        lines = (source / "importances.txt").read_text().splitlines()
        lines[1] = damaged
        (source / "importances.txt").write_text("\n".join(lines) + "\n")
        cfg = dict(
            self.RF_CFG,
            schema="MI",
            mi_source=str(source),
            manifest=str(dataset_dir / "manifest.csv"),
        )
        with pytest.raises(DataError, match=f"importances.txt:2: .*{damaged!r}"):
            cmd_ml_run(cfg, tmp_path / "out", seed=8)
        assert not (tmp_path / "out").exists()

    def _mi_run(self, source: Path, dataset_dir, out: Path):
        cfg = dict(
            self.RF_CFG,
            schema="MI",
            mi_source=str(source),
            manifest=str(dataset_dir / "manifest.csv"),
        )
        return cmd_ml_run(cfg, out, seed=8)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: [lines[1], lines[0], *lines[2:]],
             "importances.txt:1: the label of 'pre:B03,.*' is not schema.txt entry 1, 'pre:B02'"),
            (lambda lines: [*lines, "pre:B02,0.5"],
             "importances.txt:62: the label of 'pre:B02,0.5' is not schema.txt entry 62, None"),
            (lambda lines: lines[:-1], "importances.txt: 60 weights for the 61 schema.txt entries"),
        ],
        ids=["swapped", "extra", "missing"],
    )
    def test_importance_labels_must_match_the_schema(
        self, rf_all_run, dataset_dir, tmp_path, edit, message
    ):
        """Weights pair with schema entries by position, so a line whose
        label is not the entry at its position would weigh another feature."""
        source = shutil.copytree(rf_all_run, tmp_path / "source")
        lines = (source / "importances.txt").read_text().splitlines()
        (source / "importances.txt").write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(DataError, match=message):
            self._mi_run(source, dataset_dir, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "lineno, damaged, message",
        [
            (1, "pre:B99", "unknown spectral index 'B99'"),
            (2, "pre:B02", "duplicate feature entries in schema"),
            (0, "variant=Foo", "unknown schema variant 'Foo'"),
        ],
        ids=["unknown-index", "duplicate", "unknown-variant"],
    )
    def test_damaged_mi_source_schema_is_data_error(
        self, rf_all_run, dataset_dir, tmp_path, lineno, damaged, message
    ):
        source = shutil.copytree(rf_all_run, tmp_path / "source")
        lines = (source / "schema.txt").read_text().splitlines()
        lines[lineno] = damaged
        (source / "schema.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"schema.txt: {message}"):
            self._mi_run(source, dataset_dir, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_mi_source_of_another_variant_is_config_error(self, rf_all_run, dataset_dir, tmp_path):
        """A well-formed schema of another variant means mi_source names the
        wrong run: a config error, not damaged data."""
        source = shutil.copytree(rf_all_run, tmp_path / "source")
        dsi_schema().save(source / "schema.txt")
        with pytest.raises(ConfigError, match="MI derives from All"):
            self._mi_run(source, dataset_dir, tmp_path / "out")

    def test_dsi_schema_has_only_deltas(self, dataset_dir, tmp_path):
        out = tmp_path / "rf_dsi"
        cfg = dict(
            self.RF_CFG, schema="dSI", manifest=str(dataset_dir / "manifest.csv")
        )
        cmd_ml_run(cfg, out, seed=8, repeats=1)
        schema = FeatureSchema.load(out / "schema.txt")
        assert schema.variant == "dSI"
        assert len(schema) == 15
        assert all(label.startswith("d:") for label in schema.labels())

    def test_mlp_run(self, dataset_dir, tmp_path):
        out = tmp_path / "mlp"
        cfg = {
            "manifest": str(dataset_dir / "manifest.csv"),
            "method": "mlp",
            "n_pixels": "400",
            "mlp_hidden": "16",
            "mlp_epochs": "10",
        }
        reports = cmd_ml_run(cfg, out, seed=8, repeats=1)
        assert reports[0].burnt.f1 >= 0.9
        model = load_mlp(out / "model_r0.npb")
        assert model.widths == (61, 16, 1)
        assert not (out / "importances.txt").exists()

    def test_streamed_rows_match_the_loaded_split(self, tmp_path):
        """Planning from the manifest rows and drawing patch by patch gives
        the rows of sample_pixels and assemble_features over the loaded
        split, also when positive and negative rows interleave."""
        cfg = SyntheticConfig(
            patch_size=24, n_train=10, n_val=1, n_test=1, noise=0.02, burn_frac=0.3
        )
        samples = list(generate_dataset(cfg, seed=4))
        # The first three are positive; three of the seven negatives are pooled.
        train = [samples[i] for i in (3, 0, 4, 5, 1, 6, 7, 2, 8, 9)]
        save_dataset(train + samples[10:], tmp_path)
        manifest = read_manifest(tmp_path / "manifest.csv")
        schema, x, y, nan_counts = runs._train_features(manifest, "All", None, 200, 3)
        loaded = load_split(manifest, "train")
        whole = assemble_features(schema, loaded, sample_pixels(loaded, 200, 3))
        assert x.tobytes() == whole.x.tobytes()
        assert y.tobytes() == whole.y.tobytes()
        assert nan_counts == whole.nan_counts

    def test_saved_forest_loads(self, rf_all_run):
        model = load_forest(rf_all_run / "model_r0.npb")
        assert len(model.trees) == 15

    def test_bad_repeats_rejected(self, dataset_dir, tmp_path):
        cfg = dict(self.RF_CFG, manifest=str(dataset_dir / "manifest.csv"))
        with pytest.raises(ConfigError, match="repeats"):
            cmd_ml_run(cfg, tmp_path / "out", seed=8, repeats=0)


class TestDlRun:
    DL_CFG = {
        "profile": "mini",
        "widths": "4,8",
        "blocks": "1,1",
        "stem_width": "4",
        "epochs": "2",
        "batch_size": "4",
        "loss": "bce",
    }

    def test_run_writes_artifacts(self, dataset_dir, tmp_path):
        out = tmp_path / "net"
        cfg = dict(self.DL_CFG, manifest=str(dataset_dir / "manifest.csv"))
        reports = cmd_dl_run(cfg, out, seed=6, repeats=1)
        assert len(reports) == 1
        trace_lines = (out / "trace_r0.csv").read_text().splitlines()
        assert trace_lines[0] == "epoch,train_loss,val_f1_burnt"
        assert len(trace_lines) == 3  # two epochs
        model = load_bamcd(out / "checkpoint_r0.npb")
        assert model.config.widths == (4, 8)
        assert model.config.loss == "bce"
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("bamcd-mini,dl,0,")

    def test_network_choices_are_plumbed_through(self, dataset_dir, tmp_path):
        cfg = dict(
            self.DL_CFG,
            loss="dice",
            skip_mode="diff",
            manifest=str(dataset_dir / "manifest.csv"),
        )
        cmd_dl_run(cfg, tmp_path / "net", seed=6, repeats=1)
        model = load_bamcd(tmp_path / "net" / "checkpoint_r0.npb")
        assert model.config.loss == "dice"
        assert model.config.skip_mode == "diff"

    def test_rerun_is_byte_identical(self, dataset_dir, tmp_path):
        cfg = dict(self.DL_CFG, manifest=str(dataset_dir / "manifest.csv"))
        cmd_dl_run(dict(cfg), tmp_path / "a", seed=6, repeats=1)
        cmd_dl_run(dict(cfg), tmp_path / "b", seed=6, repeats=1)
        fa, fb = fingerprint(tmp_path / "a"), fingerprint(tmp_path / "b")
        assert fa and fa == fb

    def test_missing_manifest_is_data_error(self, tmp_path):
        cfg = dict(self.DL_CFG, manifest=str(tmp_path / "nowhere" / "manifest.csv"))
        with pytest.raises(DataError, match="manifest not found"):
            cmd_dl_run(cfg, tmp_path / "out", seed=6)


def traced_peak(run) -> int:
    """The tracemalloc peak of ``run()``, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDatasetMemory:
    """A dataset command holds one patch at a time, so its traced peak on
    24/8/8 patches of 64x64 is within two patches' bytes of its peak on
    6/2/2; dl-run holds its stacks and not much more."""

    PATCH_BYTES = 2 * 10 * 64 * 64 * 4 + 2 * 64 * 64  # float32 pre/post, uint8 truth/water

    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory) -> dict[int, dict]:
        """Synth configs by train count, each written once already, which
        also warms up every first-call allocation."""
        root = tmp_path_factory.mktemp("memory")
        configs = {
            n: {"n_train": str(n), "n_val": str(n // 3), "n_test": str(n // 3),
                "patch_size": "64", "noise": "0.02"}
            for n in (6, 24)
        }
        return {
            n: {"config": cfg, "manifest": str(cmd_synth(dict(cfg), root / f"d{n}", seed=2))}
            for n, cfg in configs.items()
        }

    def assert_flat(self, run):
        run(6)  # a command's first call in a process makes one-time allocations
        small, large = (traced_peak(lambda: run(n)) for n in (6, 24))
        assert large - small <= 2 * self.PATCH_BYTES, (small, large)

    def test_synth(self, datasets, tmp_path):
        self.assert_flat(lambda n: cmd_synth(dict(datasets[n]["config"]), tmp_path / f"s{n}", 2))

    def test_index_eval(self, datasets, tmp_path):
        self.assert_flat(lambda n: cmd_index_eval(
            {"manifest": datasets[n]["manifest"], "index": "NBR"}, tmp_path / f"i{n}", 2
        ))

    def test_ml_run(self, datasets, tmp_path):
        # 400 pixels fill every quota of both sets, so the sample is one size.
        self.assert_flat(lambda n: cmd_ml_run(
            {"manifest": datasets[n]["manifest"], "method": "rf", "rf_trees": "5",
             "n_pixels": "400"},
            tmp_path / f"r{n}", 2,
        ))

    def test_dl_run_holds_its_stacks(self, datasets, tmp_path, monkeypatch):
        """Memory held when training starts is the model, its optimizer's
        buffers, the NCHW stacks of the three splits and at most two patches."""
        held = {}

        class Started(Exception):
            pass

        def start(module, optimizer, *args):
            held["bytes"] = tracemalloc.get_traced_memory()[0]
            held["optimizer"] = sum(
                v.nbytes for v in vars(optimizer).values() if isinstance(v, np.ndarray)
            )
            raise Started

        monkeypatch.setattr(nn, "train_epochs", start)
        tracemalloc.start()
        try:
            with pytest.raises(Started):
                cmd_dl_run({"manifest": datasets[24]["manifest"]}, tmp_path / "net", 2)
        finally:
            tracemalloc.stop()
        stacks = 40 * (2 * 10 * 64 * 64 * 4 + 64 * 64 * 4)  # pre, post and float32 truth
        assert held["bytes"] - held["optimizer"] <= stacks + 2 * self.PATCH_BYTES, held


class TestReport:
    HEADER = (
        "method,family,repeat,seed,precision_unburnt,recall_unburnt,f1_unburnt,"
        "iou_unburnt,precision_burnt,recall_burnt,f1_burnt,iou_burnt,mean_f1,mean_iou"
    )

    def _run_dir(self, root: Path, method: str, family: str, f1_values) -> Path:
        d = root / method
        d.mkdir(parents=True)
        lines = [self.HEADER]
        for r, f1 in enumerate(f1_values):
            iou = f1 / (2.0 - f1)
            cells = [method, family, str(r), str(100 + r)] + ["0.9"] * 4
            cells += ["0.9", "0.9", repr(f1), repr(iou), "0.9", "0.9"]
            lines.append(",".join(cells))
        (d / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return d

    def test_merge_sorts_and_bolds_best(self, tmp_path):
        dl = self._run_dir(tmp_path, "bamcd-mini", "dl", [0.90, 0.92])
        idx = self._run_dir(tmp_path, "dNBR", "indices", [0.50])
        ml = self._run_dir(tmp_path, "rf-All", "ml", [0.80, 0.84])
        table = cmd_report([ml, dl, idx], tmp_path / "summary")

        lines = table.splitlines()
        order = [ln.split()[0] for ln in lines[2:]]
        assert order == ["indices/dNBR", "ml/rf-All", "dl/bamcd-mini"]
        assert "*0.9100 (0.0100)*" in table  # best mean burnt F1 bolded
        assert "*0.5000" not in table
        assert (tmp_path / "summary" / "report.txt").read_text() == table

    def test_single_run(self, tmp_path):
        d = self._run_dir(tmp_path, "dNBR", "indices", [0.75])
        table = cmd_report([d], tmp_path / "summary")
        rows = table.splitlines()[2:]
        assert len(rows) == 1 and rows[0].startswith("indices/dNBR")

    def test_empty_input_gives_header_only(self, tmp_path):
        table = cmd_report([], tmp_path / "summary")
        lines = table.splitlines()
        assert len(lines) == 2  # header + rule, no rows
        assert lines[0].startswith("method")

    def test_missing_metrics_rejected(self, tmp_path):
        empty = tmp_path / "no_run"
        empty.mkdir()
        with pytest.raises(DataError, match="no metrics.csv"):
            cmd_report([empty], tmp_path / "summary")
