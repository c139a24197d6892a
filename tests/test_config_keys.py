"""Every config key a command accepts changes a primary output.

A key that parses but changes nothing is a knob the user turns for no
effect (Xu et al., "Hey, You Have Given Me Too Many Knobs!", ESEC/FSE 2015).
Each command's key table must be covered by ``CASES``: one non-default value
per key, the primary output file it must change, and any context keys that
both the reference run and the changed run carry. ``run_config.txt`` echoes
the config, so it never counts as a change.
"""

from pathlib import Path

import numpy as np
import pytest

from burnmap import runs
from burnmap.synthetic import SyntheticConfig, generate_scene

DATA = {"n_train": "6", "n_val": "2", "n_test": "2", "patch_size": "16"}
ML = {"method": "rf", "n_pixels": "200", "rf_trees": "5"}
MLP = {"method": "mlp", "n_pixels": "200", "mlp_epochs": "2"}
DL = {"widths": "4,8", "blocks": "1,1", "epochs": "1"}
FOCAL = {**DL, "loss": "focal"}
PATCH = "patches/ev-train-000.npb"

# Placeholders that the ``sweep`` fixture replaces with paths: <data> is a
# clean synth set and <other> a benchmark-preset one, <rf-a>/<rf-b> are two
# All-schema rf runs on <data>, <scene-a>/<scene-b> are two scene archives of
# one name and <scene-c> a third.
COMMAND_BASE = {
    "synth": {"patch_size": "16"},
    "ingest": {"scene_train": "<scene-a>", "patch_size": "16"},
    "index-eval": {"manifest": "<data>", "index": "NBR"},
    "ml-run": {"manifest": "<data>"},
    "dl-run": {"manifest": "<data>"},
}

# (command, key, value, file that must change, context)
CASES = [
    ("synth", "preset", "benchmark", PATCH, {}),
    ("synth", "events", "12", "manifest.csv", {}),
    ("synth", "patch_size", "24", PATCH, {}),
    ("synth", "n_train", "3", "manifest.csv", {}),
    ("synth", "n_val", "3", "manifest.csv", {}),
    ("synth", "n_test", "3", "manifest.csv", {}),
    ("synth", "noise", "0.05", PATCH, {}),
    ("synth", "outlier_frac", "0.05", PATCH, {}),
    ("synth", "distractor_prob", "1.0", PATCH, {}),
    ("synth", "water_prob", "1.0", PATCH, {}),
    ("synth", "burn_frac", "0.1", "patches/ev-train-010.npb", {}),
    ("ingest", "scene_train", "<scene-b>", "patches/scene_r0c0.npb", {}),
    ("ingest", "scene_val", "<scene-c>", "manifest.csv", {}),
    ("ingest", "scene_test", "<scene-c>", "manifest.csv", {}),
    ("ingest", "patch_size", "8", "manifest.csv", {}),
    ("ingest", "clip_max", "0.3", "patches/scene_r0c0.npb", {}),
    ("index-eval", "manifest", "<other>", "metrics.csv", {}),
    ("index-eval", "index", "NDVI", "metrics.csv", {}),
    ("index-eval", "steps", "8", "threshold.txt", {}),
    ("ml-run", "manifest", "<other>", "model_r0.npb", ML),
    ("ml-run", "method", "mlp", "model_r0.npb", {"method": "rf", "n_pixels": "200"}),
    ("ml-run", "schema", "dSI", "model_r0.npb", ML),
    ("ml-run", "n_pixels", "100", "model_r0.npb", ML),
    ("ml-run", "mi_source", "<rf-b>", "schema.txt", {**ML, "schema": "MI", "mi_source": "<rf-a>"}),
    ("ml-run", "rf_trees", "3", "model_r0.npb", ML),
    ("ml-run", "rf_max_depth", "2", "model_r0.npb", ML),
    ("ml-run", "rf_min_leaf", "20", "model_r0.npb", ML),
    ("ml-run", "mlp_hidden", "4", "model_r0.npb", MLP),
    ("ml-run", "mlp_epochs", "3", "model_r0.npb", MLP),
    ("ml-run", "mlp_batch", "8", "model_r0.npb", MLP),
    ("ml-run", "mlp_lr", "0.01", "model_r0.npb", MLP),
    ("dl-run", "manifest", "<other>", "trace_r0.csv", DL),
    ("dl-run", "profile", "paperlike", "trace_r0.csv", DL),
    ("dl-run", "widths", "4,4", "trace_r0.csv", DL),
    ("dl-run", "blocks", "1,2", "trace_r0.csv", DL),
    ("dl-run", "stem_width", "8", "trace_r0.csv", DL),
    ("dl-run", "reduction", "4", "trace_r0.csv", DL),
    ("dl-run", "sharing", "pseudo_siamese", "trace_r0.csv", DL),
    ("dl-run", "skip_mode", "diff", "trace_r0.csv", DL),
    ("dl-run", "scse_combine", "add", "trace_r0.csv", DL),
    ("dl-run", "loss", "bce", "trace_r0.csv", DL),
    ("dl-run", "learning_rate", "0.01", "trace_r0.csv", DL),
    ("dl-run", "epochs", "2", "trace_r0.csv", DL),
    ("dl-run", "batch_size", "2", "trace_r0.csv", DL),
    ("dl-run", "focal_alpha", "0.9", "trace_r0.csv", FOCAL),
    ("dl-run", "focal_gamma", "4.0", "trace_r0.csv", FOCAL),
]

# Every key each command accepts, as the command reads it.
COMMAND_FIELDS = {
    "synth": runs.SYNTH_FIELDS,
    "ingest": runs.INGEST_FIELDS,
    "index-eval": runs.INDEX_EVAL_FIELDS,
    "ml-run": {**runs.ML_FIELDS, **runs.FIT_FIELDS["rf"], **runs.FIT_FIELDS["mlp"]},
    "dl-run": runs.DL_FIELDS,
}

COMMANDS = {
    "synth": runs.cmd_synth,
    "ingest": runs.cmd_ingest,
    "index-eval": runs.cmd_index_eval,
    "ml-run": runs.cmd_ml_run,
    "dl-run": runs.cmd_dl_run,
}


@pytest.mark.parametrize("command", sorted(COMMAND_FIELDS))
def test_every_key_has_a_case(command):
    covered = [key for c, key, *_ in CASES if c == command]
    assert sorted(covered) == sorted(COMMAND_FIELDS[command])
    assert all(changed != "run_config.txt" for _, _, _, changed, _ in CASES)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Run a command once per distinct config; return (config -> output dir)."""
    root = tmp_path_factory.mktemp("keys")
    places = {}
    for name, preset in (("data", "clean"), ("other", "benchmark")):
        runs.cmd_synth({**DATA, "preset": preset}, root / name, 3)
        places[f"<{name}>"] = str(root / name / "manifest.csv")
    for name, seed, path in (("a", 1, "a/scene"), ("b", 2, "b/scene"), ("c", 3, "c/other")):
        pre, post, truth, water = generate_scene(SyntheticConfig(patch_size=16), seed, 32, 32)
        (root / path).parent.mkdir()
        np.savez(root / path, bands=np.array([b.value for b in pre.bands]), pre=pre.data,
                 post=post.data, truth=truth.labels, water=water)
        places[f"<scene-{name}>"] = str(root / f"{path}.npz")
    for name, seed in (("a", 1), ("b", 2)):
        out = root / f"rf-{name}"
        runs.cmd_ml_run({**ML, "manifest": places["<data>"]}, out, seed)
        places[f"<rf-{name}>"] = str(out)

    done: dict[tuple, Path] = {}

    def run(command: str, items: dict[str, str]) -> Path:
        config = {k: places.get(v, v) for k, v in items.items()}
        key = (command, tuple(sorted(config.items())))
        if key not in done:
            out = root / f"run{len(done)}"
            COMMANDS[command](config, out, 5)
            done[key] = out
        return done[key]

    return run


@pytest.mark.parametrize(
    "command, key, value, changed, context",
    CASES,
    ids=[f"{c}-{k}" for c, k, *_ in CASES],
)
def test_key_changes_its_output(sweep, command, key, value, changed, context):
    reference = {**COMMAND_BASE[command], **context}
    assert reference.get(key) != value
    before = sweep(command, reference) / changed
    after = sweep(command, {**reference, key: value}) / changed
    assert before.read_bytes() != after.read_bytes()
