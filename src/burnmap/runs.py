"""Batch run orchestration behind the CLI subcommands.

Each command reads a flat key=value config, performs one pipeline stage, and
writes its primary outputs under a run directory:

    metrics.csv    one row per repeat: method, family, repeat, seed, metrics
    report.txt     aligned per-repeat table plus a mean (std) summary row
    run_config.txt resolved configuration echo (sorted keys)

plus stage-specific artifacts (manifest + patches, threshold model text,
forest/MLP/network containers, training traces). All floats are written via
repr(), so a rerun with the same config and seed is byte-identical.

Every source of randomness is derived from the root seed and a component
name (see seeding); repeat r uses the child seed "repeat/{r}", which is how
repeat runs measure seed variation and nothing else.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bamcd
from .errors import ConfigError, DataError
from .features import (
    FeatureSchema,
    PixelPosition,
    all_schema,
    assemble_features,
    derive_mi_schema,
    dsi_schema,
    sample_pixels,
)
from .forest import rf_fit, rf_predict, save_forest
from .manifest import MANIFEST_NAME, load_split, read_manifest, save_dataset
from .metrics import (
    ConfusionCounts,
    MetricReport,
    accumulate,
    align_table,
    compute_metrics,
    metric_names,
    report_table,
)
from .mlp import mlp_fit, mlp_predict, save_mlp
from .rasters import BandId, GroundTruthMask, RasterPatch, ingest_scene
from .runconfig import (
    check_keys,
    get_choice,
    get_float,
    get_int,
    get_int_tuple,
    get_str,
)
from .seeding import derive_seed
from .spectral import IndexKind
from .synthetic import SyntheticConfig, benchmark_config, generate_dataset, split_counts
from .threshold import GRID_STEPS, evaluate_threshold, fit_threshold

FAMILY_ORDER = ("indices", "ml", "dl")


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _echo_config(out_dir: Path, config: dict[str, str], seed: int, repeats: int):
    lines = [f"{k}={config[k]}" for k in sorted(config)]
    lines += [f"seed={seed}", f"repeats={repeats}"]
    _write(out_dir / "run_config.txt", "\n".join(lines) + "\n")


def _write_run_reports(
    out_dir: Path,
    family: str,
    method: str,
    seeds: list[int],
    reports: list[MetricReport],
):
    """metrics.csv (one row per repeat) and report.txt (rows + mean/std)."""
    names = metric_names()
    lines = [",".join(["method", "family", "repeat", "seed"] + names)]
    for r, (seed, rep) in enumerate(zip(seeds, reports)):
        cells = [method, family, str(r), str(seed)]
        cells += [repr(v) for _, v in rep.as_row()]
        lines.append(",".join(cells))
    _write(out_dir / "metrics.csv", "\n".join(lines) + "\n")

    named = [(f"{method}[r{r}]", rep) for r, rep in enumerate(reports)]
    table = report_table(named)
    values = np.array([[v for _, v in rep.as_row()] for rep in reports], np.float64)
    mean = values.mean(axis=0)
    std = values.std(axis=0)  # population std over the repeats actually run
    summary = align_table(
        ["method"] + names,
        [[method] + [f"{m:.4f} ({s:.4f})" for m, s in zip(mean, std)]],
    )
    flagged = sorted({flag for rep in reports for flag in rep.flags})
    text = table + "\nmean (std) over repeats:\n" + summary
    if flagged:
        text += "\nzero-denominator metrics (reported as 0): " + ", ".join(flagged) + "\n"
    _write(out_dir / "report.txt", text)


# ------------------------------------------------------------------- synth

SYNTH_KEYS = {
    "preset", "events", "n_train", "n_val", "n_test", "patch_size", "noise",
    "outlier_frac", "distractor_prob", "water_prob", "burn_frac", "clip_max",
}


def _synthetic_config(config: dict[str, str]) -> SyntheticConfig:
    preset = get_choice(config, "preset", ("benchmark",), None)
    base = benchmark_config() if preset == "benchmark" else SyntheticConfig()
    events = get_int(config, "events", None)
    explicit = [k for k in ("n_train", "n_val", "n_test") if k in config]
    if events is not None and explicit:
        raise ConfigError(f"give either events= or {explicit}, not both")
    overrides = {}
    if events is not None:
        overrides.update({f"n_{k}": v for k, v in split_counts(events).items()})
    for key in explicit:
        overrides[key] = get_int(config, key)
    for key in ("noise", "outlier_frac", "distractor_prob", "water_prob", "burn_frac"):
        if key in config:
            overrides[key] = get_float(config, key)
    if "patch_size" in config:
        overrides["patch_size"] = get_int(config, "patch_size")
    return replace(base, **overrides)


def cmd_synth(config: dict[str, str], out_dir: Path, seed: int) -> Path:
    """Generate a synthetic dataset; write patches plus the manifest."""
    check_keys(config, SYNTH_KEYS, "synth")
    cfg = _synthetic_config(config)
    clip_max = get_float(config, "clip_max", 1.0)
    samples = generate_dataset(cfg, seed)
    save_dataset(samples, out_dir, clip_max=clip_max)
    _echo_config(out_dir, config, seed, 1)
    return out_dir / MANIFEST_NAME


# ------------------------------------------------------------------ ingest

INGEST_KEYS = {"scene_train", "scene_val", "scene_test", "patch_size", "clip_max"}


def _load_scene(path: str):
    """Scene archive: bands (names), pre/post (C,H,W), truth (H,W), water?."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except OSError as exc:
        raise DataError(f"cannot read scene file {path}: {exc}") from exc
    for required in ("bands", "pre", "post", "truth"):
        if required not in arrays:
            raise DataError(f"scene file {path} is missing array {required!r}")
    bands = tuple(BandId(str(b)) for b in arrays["bands"])
    return (
        RasterPatch(bands, arrays["pre"]),
        RasterPatch(bands, arrays["post"]),
        GroundTruthMask(arrays["truth"]),
        arrays.get("water"),
    )


def cmd_ingest(config: dict[str, str], out_dir: Path, seed: int) -> Path:
    """Tile one scene file per split into patches; write the manifest."""
    check_keys(config, INGEST_KEYS, "ingest")
    patch_size = get_int(config, "patch_size", 64)
    clip_max = get_float(config, "clip_max", 1.0)
    scene_keys = [k for k in ("scene_train", "scene_val", "scene_test") if k in config]
    if not scene_keys:
        raise ConfigError("ingest needs at least one of scene_train/scene_val/scene_test")
    samples = []
    for key in scene_keys:
        split = key.partition("_")[2]
        path = get_str(config, key)
        pre, post, truth, water = _load_scene(path)
        samples += ingest_scene(
            pre, post, truth, patch_size,
            clip_max=clip_max, water=water,
            event_id=Path(path).stem, split=split,
        )
    save_dataset(samples, out_dir, clip_max=clip_max)
    _echo_config(out_dir, config, seed, 1)
    return out_dir / MANIFEST_NAME


# -------------------------------------------------------------- index-eval

INDEX_EVAL_KEYS = {"manifest", "index", "steps"}


def cmd_index_eval(config: dict[str, str], out_dir: Path, seed: int) -> MetricReport:
    """Fit a delta-index threshold on train pixels; evaluate on test pixels."""
    check_keys(config, INDEX_EVAL_KEYS, "index-eval")
    kind = IndexKind.parse(get_str(config, "index"))
    steps = get_int(config, "steps", GRID_STEPS)
    manifest = read_manifest(get_str(config, "manifest"))
    model = fit_threshold(kind, load_split(manifest, "train"), steps)
    _, report = evaluate_threshold(model, load_split(manifest, "test"))
    out_dir.mkdir(parents=True, exist_ok=True)
    model.save(out_dir / "threshold.txt")
    method = f"d{kind.value}"
    _write_run_reports(out_dir, "indices", method, [seed], [report])
    _echo_config(out_dir, config, seed, 1)
    return report


# ----------------------------------------------------------------- ml-run

ML_KEYS = {
    "manifest", "method", "schema", "n_pixels", "mi_source",
    "rf_trees", "rf_max_depth", "rf_min_leaf",
    "mlp_hidden", "mlp_epochs", "mlp_batch", "mlp_lr",
}


def _resolve_schema(config: dict[str, str], bands) -> FeatureSchema:
    variant = get_choice(config, "schema", ("All", "MI", "dSI"), "All")
    if variant == "All":
        return all_schema(bands)
    if variant == "dSI":
        return dsi_schema()
    source = Path(get_str(config, "mi_source"))
    base = FeatureSchema.load(source / "schema.txt")
    if base.variant != "All":
        raise ConfigError(
            f"mi_source run used schema {base.variant!r}; MI derives from All"
        )
    importance_lines = (source / "importances.txt").read_text(encoding="utf-8")
    weights = []
    for line in importance_lines.splitlines():
        if line.strip():
            weights.append(float(line.rsplit(",", 1)[1]))
    return derive_mi_schema(base, np.array(weights))


def _full_patch_positions(sample) -> list[PixelPosition]:
    h, w = sample.truth.labels.shape
    labels = sample.truth.labels
    return [
        PixelPosition(sample.event_id, r, c, int(labels[r, c]))
        for r in range(h)
        for c in range(w)
    ]


def _evaluate_pixel_model(predict, schema, samples) -> MetricReport:
    """Pooled full-raster evaluation of a pixel classifier over samples."""
    counts = ConfusionCounts()
    for s in samples:
        ds = assemble_features(schema, [s], _full_patch_positions(s))
        probs = predict(ds.x)
        mask = (probs >= 0.5).astype(np.uint8).reshape(s.truth.labels.shape)
        counts = counts + accumulate(mask, s.truth.labels)
    return compute_metrics(counts)


def cmd_ml_run(
    config: dict[str, str], out_dir: Path, seed: int, repeats: int = 1
) -> list[MetricReport]:
    """Pixel-classifier runs: sample -> assemble -> fit -> evaluate, repeated."""
    check_keys(config, ML_KEYS, "ml-run")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    method = get_choice(config, "method", ("rf", "mlp"))
    manifest = read_manifest(get_str(config, "manifest"))
    train = load_split(manifest, "train")
    test = load_split(manifest, "test")
    if not train or not test:
        raise DataError("ml-run needs non-empty train and test splits")

    schema = _resolve_schema(config, train[0].pre.bands)
    n_pixels = get_int(config, "n_pixels", 4000)
    positions = sample_pixels(train, n_pixels, derive_seed(seed, "pixels"))
    train_ds = assemble_features(schema, train, positions)

    out_dir.mkdir(parents=True, exist_ok=True)
    schema.save(out_dir / "schema.txt")

    reports: list[MetricReport] = []
    seeds: list[int] = []
    importances = []
    for r in range(repeats):
        model_seed = derive_seed(seed, f"repeat/{r}")
        seeds.append(model_seed)
        if method == "rf":
            model = rf_fit(
                train_ds.x,
                train_ds.y,
                seed=model_seed,
                n_trees=get_int(config, "rf_trees", 100),
                max_depth=get_int(config, "rf_max_depth", 12),
                min_leaf=get_int(config, "rf_min_leaf", 2),
            )
            save_forest(out_dir / f"model_r{r}.npb", model)
            importances.append(model.feature_importances)
            predict = lambda x, m=model: rf_predict(m, x)
        else:
            hidden = get_int_tuple(config, "mlp_hidden", (128, 64))
            widths = (train_ds.x.shape[1], *hidden, 1)
            model = mlp_fit(
                train_ds.x,
                train_ds.y,
                seed=model_seed,
                widths=widths,
                epochs=get_int(config, "mlp_epochs", 50),
                batch_size=get_int(config, "mlp_batch", 32),
                learning_rate=get_float(config, "mlp_lr", 0.001),
            )
            save_mlp(out_dir / f"model_r{r}.npb", model)
            predict = lambda x, m=model: mlp_predict(m, x)
        reports.append(_evaluate_pixel_model(predict, schema, test))

    if importances:
        mean_imp = np.mean(np.stack(importances), axis=0)
        lines = [
            f"{label},{float(value)!r}" for label, value in zip(schema.labels(), mean_imp)
        ]
        _write(out_dir / "importances.txt", "\n".join(lines) + "\n")

    nonzero_nan = {k: v for k, v in train_ds.nan_counts.items() if v}
    if nonzero_nan:
        lines = [f"{k},{v}" for k, v in sorted(nonzero_nan.items())]
        _write(out_dir / "nan_counts.txt", "\n".join(lines) + "\n")

    _write_run_reports(out_dir, "ml", f"{method}-{schema.variant}", seeds, reports)
    _echo_config(out_dir, config, seed, repeats)
    return reports


# ----------------------------------------------------------------- dl-run

DL_KEYS = {
    "manifest", "profile", "loss", "epochs", "batch_size", "learning_rate",
    "sharing", "skip_mode", "scse_combine", "reduction", "stem_width",
    "widths", "blocks", "focal_alpha", "focal_gamma",
}


def _network_config(config: dict[str, str], bands) -> bamcd.BamCdConfig:
    profile = get_choice(config, "profile", ("mini", "paperlike"), "mini")
    base = bamcd.mini_config() if profile == "mini" else bamcd.paperlike_config()
    overrides: dict = {"bands": tuple(bands)}
    if "widths" in config:
        overrides["widths"] = get_int_tuple(config, "widths")
    if "blocks" in config:
        overrides["blocks"] = get_int_tuple(config, "blocks")
    if "stem_width" in config:
        overrides["stem_width"] = get_int(config, "stem_width")
    if "loss" in config:
        overrides["loss"] = get_str(config, "loss")
    if "epochs" in config:
        overrides["epochs"] = get_int(config, "epochs")
    if "batch_size" in config:
        overrides["batch_size"] = get_int(config, "batch_size")
    if "learning_rate" in config:
        overrides["learning_rate"] = get_float(config, "learning_rate")
    if "sharing" in config:
        overrides["sharing"] = get_str(config, "sharing")
    if "skip_mode" in config:
        overrides["skip_mode"] = get_str(config, "skip_mode")
    if "scse_combine" in config:
        overrides["scse_combine"] = get_str(config, "scse_combine")
    if "reduction" in config:
        overrides["reduction"] = get_int(config, "reduction")
    if "focal_alpha" in config:
        overrides["focal_alpha"] = get_float(config, "focal_alpha")
    if "focal_gamma" in config:
        overrides["focal_gamma"] = get_float(config, "focal_gamma")
    return replace(base, **overrides)


def evaluate_network(model: bamcd.BamCdModel, samples) -> MetricReport:
    """Pooled test-pixel metrics of thresholded probability maps."""
    counts = ConfusionCounts()
    for s in samples:
        probs = bamcd.forward(model, s.pre, s.post)
        mask = (probs >= bamcd.PROBABILITY_THRESHOLD).astype(np.uint8)
        counts = counts + accumulate(mask, s.truth.labels)
    return compute_metrics(counts)


def cmd_dl_run(
    config: dict[str, str], out_dir: Path, seed: int, repeats: int = 1
) -> list[MetricReport]:
    """Train the change-detection network; evaluate its best checkpoint."""
    check_keys(config, DL_KEYS, "dl-run")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    manifest = read_manifest(get_str(config, "manifest"))
    train_split = load_split(manifest, "train")
    val_split = load_split(manifest, "val")
    test_split = load_split(manifest, "test")
    if not train_split or not val_split or not test_split:
        raise DataError("dl-run needs non-empty train, val and test splits")

    base = _network_config(config, train_split[0].pre.bands)
    profile = get_choice(config, "profile", ("mini", "paperlike"), "mini")
    out_dir.mkdir(parents=True, exist_ok=True)

    reports: list[MetricReport] = []
    seeds: list[int] = []
    for r in range(repeats):
        run_seed = derive_seed(seed, f"repeat/{r}")
        seeds.append(run_seed)
        cfg = replace(base, seed=run_seed)
        model = bamcd.build(cfg)
        model, trace = bamcd.train(model, train_split, val_split, cfg)
        bamcd.save_bamcd(out_dir / f"checkpoint_r{r}.npb", model)
        _write(out_dir / f"trace_r{r}.csv", bamcd.trace_to_text(trace))
        reports.append(evaluate_network(model, test_split))

    _write_run_reports(out_dir, "dl", f"bamcd-{profile}", seeds, reports)
    _echo_config(out_dir, config, seed, repeats)
    return reports


# ----------------------------------------------------------------- report


def _read_metrics_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataError(f"{path} is empty")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"{path}: row has {len(cells)} cells, header {len(header)}")
        rows.append(dict(zip(header, cells)))
    return rows


def cmd_report(run_dirs: list[Path], out_dir: Path) -> str:
    """Merge run metrics into one table; best mean burnt F1/IoU in *bold*."""
    rows: list[dict[str, str]] = []
    for d in run_dirs:
        path = Path(d) / "metrics.csv"
        if not path.exists():
            raise DataError(f"run directory {d} has no metrics.csv")
        rows += _read_metrics_csv(path)

    names = metric_names()
    grouped: dict[tuple[str, str], list[dict[str, str]]] = {}
    for row in rows:
        grouped.setdefault((row["family"], row["method"]), []).append(row)

    def family_rank(family: str) -> int:
        return FAMILY_ORDER.index(family) if family in FAMILY_ORDER else len(FAMILY_ORDER)

    ordered = sorted(grouped, key=lambda k: (family_rank(k[0]), k[1]))
    stats = {}
    for key in ordered:
        values = np.array(
            [[float(row[name]) for name in names] for row in grouped[key]], np.float64
        )
        stats[key] = (values.mean(axis=0), values.std(axis=0))

    def best(metric: str):
        column = names.index(metric)
        return max((stats[k][0][column] for k in ordered), default=None)

    best_f1 = best("f1_burnt")
    best_iou = best("iou_burnt")
    table_rows = []
    for family, method in ordered:
        mean, std = stats[(family, method)]
        cells = [f"{family}/{method}"]
        for i, name in enumerate(names):
            cell = f"{mean[i]:.4f} ({std[i]:.4f})"
            if (name == "f1_burnt" and mean[i] == best_f1) or (
                name == "iou_burnt" and mean[i] == best_iou
            ):
                cell = f"*{cell}*"
            cells.append(cell)
        table_rows.append(cells)

    table = align_table(["method"] + names, table_rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "report.txt", table)
    return table
