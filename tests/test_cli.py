"""End-to-end tests of the command-line front door: argument parsing,
dispatch, printed output, and the exit-code contract."""

import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from burnmap.cli import exit_code_for, main
from burnmap.errors import (
    ConfigError,
    DataError,
    DivergenceError,
    FitError,
    FormatError,
)
from burnmap.manifest import save_dataset
from burnmap.rasters import ALL_BANDS, BandId
from burnmap.synthetic import SyntheticConfig, generate_dataset


def write_config(path: Path, items: dict[str, str]) -> Path:
    lines = [f"{k}={v}" for k, v in items.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def fingerprint(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[str(path.relative_to(root))] = digest
    return out


SYNTH_ITEMS = {
    "n_train": "4",
    "n_val": "1",
    "n_test": "1",
    "patch_size": "32",
    "noise": "0.0",
}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "synth.cfg", SYNTH_ITEMS)
    out = root / "data"
    rc = main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    assert rc == 0
    return out


class TestSynthCommand:
    def test_prints_manifest_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", SYNTH_ITEMS)
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d"), "--seed", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.startswith("wrote ")
        assert printed.strip().endswith("manifest.csv")
        assert (tmp_path / "d" / "manifest.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "s.cfg", SYNTH_ITEMS)
        for name in ("a", "b"):
            rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / name), "--seed", "6"])
            assert rc == 0
        fa, fb = fingerprint(tmp_path / "a"), fingerprint(tmp_path / "b")
        assert fa and fa == fb

    def test_runs_without_config_file(self, tmp_path):
        # every synth key has a default: bare invocation must work
        rc = main(["synth", "--out", str(tmp_path / "d"), "--seed", "1"])
        assert rc == 0


class TestIndexEvalCommand:
    def test_prints_report_table(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "i.cfg",
            {"manifest": str(dataset_dir / "manifest.csv"), "index": "NBR"},
        )
        rc = main(["index-eval", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0].startswith("method")
        assert "dNBR[r0]" in printed
        assert "mean (std)" in printed
        assert (tmp_path / "run" / "threshold.txt").exists()


class TestMlRunCommand:
    def test_repeats_flag_reaches_the_run(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "m.cfg",
            {
                "manifest": str(dataset_dir / "manifest.csv"),
                "method": "rf",
                "n_pixels": "200",
                "rf_trees": "5",
                "rf_max_depth": "6",
            },
        )
        out = tmp_path / "run"
        rc = main(
            ["ml-run", "--config", str(cfg), "--out", str(out), "--seed", "2", "--repeats", "2"]
        )
        assert rc == 0
        assert (out / "model_r1.npb").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3


class TestDlRunCommand:
    def test_tiny_network_run(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "n.cfg",
            {
                "manifest": str(dataset_dir / "manifest.csv"),
                "profile": "mini",
                "widths": "4,8",
                "blocks": "1,1",
                "stem_width": "4",
                "epochs": "1",
                "batch_size": "4",
            },
        )
        out = tmp_path / "run"
        rc = main(["dl-run", "--config", str(cfg), "--out", str(out), "--seed", "2"])
        assert rc == 0
        assert (out / "checkpoint_r0.npb").exists()
        assert (out / "trace_r0.csv").exists()


class TestReportCommand:
    def test_merges_run_directories(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "i.cfg",
            {"manifest": str(dataset_dir / "manifest.csv"), "index": "NBR"},
        )
        run = tmp_path / "run"
        assert main(["index-eval", "--config", str(cfg), "--out", str(run)]) == 0
        capsys.readouterr()  # drop the index-eval table

        rc = main(["report", str(run), "--out", str(tmp_path / "summary")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0].startswith("method")
        assert "indices/dNBR" in printed
        assert (tmp_path / "summary" / "report.txt").exists()


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", {"n_patches": "4"})
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("burnmap synth: error:")
        assert "unknown config keys" in err

    def test_dl_run_rejects_eval_patch(self, tmp_path, capsys):
        """dl-run rejects eval_patch: a key that no code reads is an error, not ignored."""
        cfg = write_config(
            tmp_path / "n.cfg",
            {"manifest": str(tmp_path / "manifest.csv"), "eval_patch": "32"},
        )
        rc = main(["dl-run", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown config keys ['eval_patch']" in err

    def test_malformed_config_line_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_train 4\n", encoding="utf-8")
        rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        rc = main(
            ["synth", "--config", str(tmp_path / "nowhere.cfg"), "--out", str(tmp_path / "d")]
        )
        assert rc == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"n_train=4\n\xff\n")
        rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "bad.cfg is not UTF-8 text: byte 0xff at offset 10" in capsys.readouterr().err

    def test_non_utf8_manifest_is_data_error(self, dataset_dir, tmp_path, capsys):
        data = shutil.copytree(dataset_dir, tmp_path / "data")
        manifest = bytearray((data / "manifest.csv").read_bytes())
        manifest[40] = 0xFF
        (data / "manifest.csv").write_bytes(bytes(manifest))
        cfg = write_config(
            tmp_path / "i.cfg", {"manifest": str(data / "manifest.csv"), "index": "NBR"}
        )
        rc = main(["index-eval", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "manifest.csv is not UTF-8 text: byte 0xff at offset 40" in capsys.readouterr().err

    def test_non_utf8_metrics_table_is_data_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_bytes(b"method,\xfe\n")
        rc = main(["report", str(run), "--out", str(tmp_path / "summary")])
        assert rc == 3
        assert "metrics.csv is not UTF-8 text: byte 0xfe at offset 7" in capsys.readouterr().err

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "i.cfg",
            {"manifest": str(tmp_path / "gone" / "manifest.csv"), "index": "NBR"},
        )
        rc = main(["index-eval", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "manifest not found" in capsys.readouterr().err

    def test_missing_band_is_data_error(self, tmp_path, capsys):
        narrow = SyntheticConfig(
            patch_size=24, n_train=2, n_val=1, n_test=1, bands=ALL_BANDS[:8]
        )
        save_dataset(generate_dataset(narrow, seed=4), tmp_path / "narrow")
        cfg = write_config(
            tmp_path / "i.cfg",
            {"manifest": str(tmp_path / "narrow" / "manifest.csv"), "index": "NBR"},
        )
        rc = main(["index-eval", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "B12" in capsys.readouterr().err

    def test_nan_reflectance_in_scene_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        pre = rng.uniform(0.05, 0.9, (len(ALL_BANDS), 32, 32)).astype(np.float32)
        post = pre.copy()
        post[ALL_BANDS.index(BandId.B11), 20, 9] = np.nan
        scene = tmp_path / "scene.npz"
        np.savez(
            scene, bands=np.array([b.value for b in ALL_BANDS]), pre=pre, post=post,
            truth=np.zeros((32, 32), np.uint8),
        )
        cfg = write_config(tmp_path / "g.cfg", {"scene_train": str(scene), "patch_size": "16"})
        rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 3
        assert "band B11 has non-finite reflectance nan at (row 20, col 9)" in capsys.readouterr().err

    def test_divergent_training_exit_code(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "m.cfg",
            {
                "manifest": str(dataset_dir / "manifest.csv"),
                "method": "mlp",
                "n_pixels": "200",
                "mlp_hidden": "8",
                "mlp_epochs": "2",
                "mlp_lr": "1e30",
            },
        )
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["ml-run", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 4
        assert "non-finite training loss" in capsys.readouterr().err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        capsys.readouterr()

    def test_exception_mapping(self):
        assert exit_code_for(ConfigError("x")) == 2
        assert exit_code_for(DataError("x")) == 3
        assert exit_code_for(FormatError("x")) == 3
        assert exit_code_for(FitError("x")) == 3
        assert exit_code_for(OSError("x")) == 3
        assert exit_code_for(DivergenceError("x", epoch=0)) == 4
        with pytest.raises(ValueError):
            exit_code_for(ValueError("boom"))
