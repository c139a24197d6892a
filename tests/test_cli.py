"""End-to-end tests of the command-line front door: argument parsing,
dispatch, printed output, and the exit-code contract."""

import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from burnmap import runs
from burnmap.cli import exit_code_for, main
from burnmap.errors import (
    ConfigError,
    DataError,
    DivergenceError,
    FitError,
    FormatError,
)
from burnmap.manifest import save_dataset
from burnmap.modelio import pack_blocks, unpack_blocks
from burnmap.rasters import ALL_BANDS, BandId
from burnmap.synthetic import SyntheticConfig, generate_dataset, generate_scene


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

    def test_damaged_patch_error_names_the_file(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        patch = sorted((data / "patches").glob("*-train-*.npb"))[-1]
        patch.write_bytes(patch.read_bytes()[:-100])
        cfg = write_config(
            tmp_path / "i.cfg", {"manifest": str(data / "manifest.csv"), "index": "NBR"}
        )
        rc = main(["index-eval", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 3
        assert f"patches/{patch.name}: truncated container" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [256, 0.5])
    def test_non_binary_scene_truth_is_data_error(self, tmp_path, capsys, value):
        rng = np.random.default_rng(9)
        pre = rng.uniform(0.05, 0.9, (len(ALL_BANDS), 32, 32)).astype(np.float32)
        truth = np.zeros((32, 32), type(value))
        truth[3, 4] = value
        scene = tmp_path / "scene.npz"
        np.savez(scene, bands=np.array([b.value for b in ALL_BANDS]), pre=pre, post=pre, truth=truth)
        cfg = write_config(tmp_path / "g.cfg", {"scene_train": str(scene), "patch_size": "16"})
        rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 3
        assert f"mask labels must be 0/1, found [{value}]" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

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


# Every command's config table, as the command reads it.
COMMAND_FIELDS = {
    "synth": runs.SYNTH_FIELDS,
    "ingest": runs.INGEST_FIELDS,
    "index-eval": runs.INDEX_EVAL_FIELDS,
    "ml-run": {**runs.ML_FIELDS, **runs.FIT_FIELDS["rf"], **runs.FIT_FIELDS["mlp"]},
    "dl-run": runs.DL_FIELDS,
}
PATH_KEYS = {"manifest", "mi_source", "scene_train", "scene_val", "scene_test"}


def _config_paragraphs() -> dict[str, str]:
    """README's "Config keys by command" paragraphs, by command name."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys by command", 1)[1].split("\n## ", 1)[0]
    paragraphs = {}
    for paragraph in section.split("\n\n"):
        if paragraph.startswith("**"):
            paragraphs[paragraph[2:].split("**", 1)[0]] = paragraph
    return paragraphs


def _run_config(tmp_path, command: str, items: dict[str, str]):
    """Exit code of one command run, which must not create its --out."""
    cfg = write_config(tmp_path / "c.cfg", items)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()
    return rc


class TestConfigValues:
    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c, fields in COMMAND_FIELDS.items() for k in fields if k not in PATH_KEYS],
    )
    def test_malformed_value_is_config_error(self, command, key, tmp_path, capsys):
        """Every value is read before any data: a missing data path would exit 3."""
        absent = str(tmp_path / "absent")
        items = {
            "synth": {},
            "ingest": {"scene_train": absent},
            "index-eval": {"manifest": absent, "index": "NBR"},
            "ml-run": {"manifest": absent, "method": "mlp" if key.startswith("mlp_") else "rf"},
            "dl-run": {"manifest": absent},
        }[command]
        items[key] = "1,x"
        assert _run_config(tmp_path, command, items) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, items, key",
        [
            ("synth", {"n_train": "-1"}, "n_train"),
            ("synth", {"clip_max": "0.3"}, "clip_max"),
            ("synth", {"preset": "clean", "water_prob": "1.5"}, "water_prob"),
            ("ingest", {"patch_size": "0"}, "patch_size"),
            ("ingest", {"clip_max": "0"}, "clip_max"),
            ("index-eval", {"index": "NBR", "steps": "1"}, "steps"),
            ("ml-run", {"method": "rf", "rf_trees": "0"}, "rf_trees"),
            ("ml-run", {"method": "rf", "rf_trees": "abc"}, "rf_trees"),
            ("ml-run", {"method": "rf", "n_pixels": "201"}, "n_pixels"),
            ("ml-run", {"method": "rf", "mlp_hidden": "abc"}, "mlp_hidden"),
            ("ml-run", {"method": "mlp", "rf_trees": "5"}, "rf_trees"),
            ("ml-run", {"method": "mlp", "mlp_lr": "nan"}, "mlp_lr"),
            ("ml-run", {"method": "rf", "mi_source": "elsewhere"}, "mi_source"),
            ("ml-run", {"method": "rf", "schema": "MI"}, "mi_source"),
            ("dl-run", {"loss": "focal", "focal_alpha": "-3"}, "focal_alpha"),
            ("dl-run", {"loss": "focal", "focal_alpha": "nan"}, "focal_alpha"),
            ("dl-run", {"loss": "focal", "focal_gamma": "0"}, "focal_gamma"),
            ("dl-run", {"loss": "focal", "focal_gamma": "nan"}, "focal_gamma"),
            ("synth", {"n_train": "0", "n_val": "0", "n_test": "0"}, "n_train"),
            ("index-eval", {"index": "NBR", "steps": "1048577"}, "steps"),
            ("index-eval", {"index": "NBR", "steps": "1000000000000"}, "steps"),
            ("synth", {"patch_size": "1025"}, "patch_size"),
            ("synth", {"patch_size": "1000000"}, "patch_size"),
        ],
    )
    def test_out_of_range_value_is_config_error(
        self, command, items, key, dataset_dir, tmp_path, capsys
    ):
        """Checked against real data: a late check would write into --out first."""
        if command == "ingest":
            pre, post, truth, water = generate_scene(SyntheticConfig(patch_size=16), 2, 32, 32)
            scene = tmp_path / "scene.npz"
            np.savez(scene, bands=np.array([b.value for b in pre.bands]), pre=pre.data,
                     post=post.data, truth=truth.labels, water=water)
            items = {"scene_train": str(scene), **items}
        elif command != "synth":
            items = {"manifest": str(dataset_dir / "manifest.csv"), **items}
        assert _run_config(tmp_path, command, items) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_FIELDS))
    def test_readme_lists_every_key(self, command):
        paragraph = _config_paragraphs()[command]
        missing = [key for key in COMMAND_FIELDS[command] if f"`{key}`" not in paragraph]
        assert missing == []


class TestInputBoundaries:
    """Damaged inputs exit 3 with a message naming the file; a config value
    that would do nothing exits 2 before --out exists."""

    @pytest.fixture
    def index_run(self, dataset_dir, tmp_path, capsys) -> Path:
        cfg = write_config(
            tmp_path / "i.cfg", {"manifest": str(dataset_dir / "manifest.csv"), "index": "NBR"}
        )
        run = tmp_path / "run"
        assert main(["index-eval", "--config", str(cfg), "--out", str(run)]) == 0
        capsys.readouterr()
        return run

    def test_report_rejects_a_renamed_column(self, index_run, tmp_path, capsys):
        path = index_run / "metrics.csv"
        path.write_text(path.read_text().replace("iou_unburnt", "iou_unburnX"))
        rc = main(["report", str(index_run), "--out", str(tmp_path / "summary")])
        assert rc == 3
        assert "metrics.csv: header is not method,family,repeat,seed," in capsys.readouterr().err
        assert not (tmp_path / "summary").exists()

    def test_report_rejects_a_metric_that_is_not_a_number(self, index_run, tmp_path, capsys):
        path = index_run / "metrics.csv"
        header, row = path.read_text().splitlines()
        for cell, problem in [
            ("abc", "is not a number: 'abc'"),
            ("nan", "is 'nan', outside [0, 1]"),
            ("inf", "is 'inf', outside [0, 1]"),
            ("1.5", "is '1.5', outside [0, 1]"),
        ]:
            cells = row.split(",")
            cells[5] = cell
            path.write_text(f"{header}\n{','.join(cells)}\n")
            rc = main(["report", str(index_run), "--out", str(tmp_path / "summary")])
            assert rc == 3
            assert f"metrics.csv:2: recall_unburnt {problem}" in capsys.readouterr().err
            assert not (tmp_path / "summary").exists()

    def test_report_rejects_a_header_without_rows(self, index_run, tmp_path, capsys):
        path = index_run / "metrics.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        rc = main(["report", str(index_run), "--out", str(tmp_path / "summary")])
        assert rc == 3
        assert f"{path}: no rows under the header" in capsys.readouterr().err
        assert not (tmp_path / "summary").exists()

    def _scene(self, path: Path, bands, **layers) -> Path:
        """A 32x32 scene archive of 10 bands, with ``layers`` replaced."""
        pre, post, truth, water = generate_scene(SyntheticConfig(patch_size=16), 2, 32, 32)
        arrays = dict(pre=pre.data, post=post.data, truth=truth.labels, water=water)
        np.savez(path, bands=np.array(bands), **{**arrays, **layers})
        return path

    def _ingest(self, scene: Path, tmp_path) -> int:
        cfg = write_config(tmp_path / "g.cfg", {"scene_train": str(scene), "patch_size": "16"})
        rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()
        return rc

    def test_truncated_scene_archive_is_data_error(self, tmp_path, capsys):
        scene = self._scene(tmp_path / "scene.npz", [b.value for b in ALL_BANDS])
        scene.write_bytes(scene.read_bytes()[:1000])
        assert self._ingest(scene, tmp_path) == 3
        assert f"cannot read scene file {scene}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bands, message",
        [
            ([b.value for b in ALL_BANDS[:-1]] + ["B99"], "'B99' is not a valid BandId"),
            ("B02", "iteration over a 0-d array"),
        ],
        ids=["unknown-name", "0-d"],
    )
    def test_bad_scene_band_list_is_data_error(self, tmp_path, capsys, bands, message):
        scene = self._scene(tmp_path / "scene.npz", bands)
        assert self._ingest(scene, tmp_path) == 3
        assert f"scene file {scene}: array 'bands': {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, found", [("x", "['x']"), (0.5, "[0.5]"), (300, "[300]")],
        ids=["string", "half", "300"],
    )
    def test_non_binary_scene_water_is_data_error(self, tmp_path, capsys, value, found):
        """A uint8 cast would read 0.5 as 0 and 300 as 44, and int() fails on a string."""
        water = np.full((32, 32), value)
        scene = self._scene(tmp_path / "scene.npz", [b.value for b in ALL_BANDS], water=water)
        assert self._ingest(scene, tmp_path) == 3
        err = capsys.readouterr().err
        assert f"scene file {scene}: array 'water': mask labels must be 0/1, found {found}" in err

    @pytest.mark.parametrize(
        "layer, value, message",
        [
            ("water", np.zeros((32, 64), np.uint8), "water mask dimensions do not match"),
            ("truth", np.zeros((32, 64), np.uint8), "truth mask dimensions do not match"),
            ("post", np.zeros((10, 32, 64), np.float32),
             "pre shape (10, 32, 32) != post shape (10, 32, 64)"),
            ("pre", np.full((10, 32, 32), np.nan, np.float32),
             "band B02 has non-finite reflectance nan at (row 0, col 0)"),
            ("pre", np.zeros((9, 32, 32), np.float32),
             "patch data shape (9, 32, 32) does not match 10 bands"),
            ("pre", np.full((10, 32, 32), "0.5"),
             "patch data of dtype <U3 is not real reflectance"),
            ("post", np.zeros((10, 32, 32), np.complex64),
             "patch data of dtype complex64 is not real reflectance"),
        ],
        ids=[
            "water-32x64", "truth-32x64", "post-32x64", "pre-nan", "pre-9-bands", "pre-strings",
            "post-complex",
        ],
    )
    def test_bad_scene_layer_names_the_file(self, tmp_path, capsys, layer, value, message):
        scene = self._scene(tmp_path / "scene.npz", [b.value for b in ALL_BANDS], **{layer: value})
        assert self._ingest(scene, tmp_path) == 3
        assert f"scene file {scene}: {message}" in capsys.readouterr().err

    def test_scene_without_bands_is_data_error(self, tmp_path, capsys):
        """An empty band list would write patch records that every reader
        refuses; ingest refuses the archive instead."""
        empty = np.zeros((0, 32, 32), np.float32)
        scene = self._scene(tmp_path / "scene.npz", [], pre=empty, post=empty)
        assert self._ingest(scene, tmp_path) == 3
        assert f"scene file {scene}: patch has no bands" in capsys.readouterr().err

    def test_non_binary_patch_water_names_the_file(self, dataset_dir, tmp_path, capsys):
        """A water mask is checked like the truth mask when a patch loads."""
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        patch = sorted((data / "patches").glob("*-train-*.npb"))[0]
        record = unpack_blocks(patch.read_bytes())
        record["water"] = np.full_like(record["truth"], 7)
        patch.write_bytes(pack_blocks(record))
        cfg = write_config(
            tmp_path / "i.cfg", {"manifest": str(data / "manifest.csv"), "index": "NBR"}
        )
        rc = main(["index-eval", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"patches/{patch.name}: water mask labels must be 0/1, found [7]" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("empty", ["n_train", "n_test"])
    def test_index_eval_rejects_an_empty_split(self, tmp_path, capsys, empty):
        data = tmp_path / "data"
        synth = write_config(tmp_path / "s.cfg", {**SYNTH_ITEMS, empty: "0"})
        assert main(["synth", "--config", str(synth), "--out", str(data)]) == 0
        cfg = write_config(tmp_path / "i.cfg", {"manifest": str(data / "manifest.csv"), "index": "NBR"})
        rc = main(["index-eval", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "index-eval needs non-empty train and test splits" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [("focal_alpha", "0.9"), ("focal_gamma", "4.0")])
    def test_dl_run_rejects_focal_keys_without_the_focal_loss(
        self, dataset_dir, tmp_path, capsys, key, value
    ):
        items = {"manifest": str(dataset_dir / "manifest.csv"), key: value}
        assert _run_config(tmp_path, "dl-run", items) == 2
        assert f"config key '{key}': only loss=focal reads it" in capsys.readouterr().err
