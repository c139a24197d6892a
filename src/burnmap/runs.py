"""Batch run orchestration behind the CLI subcommands.

Each command accepts exactly the keys of its ``*_FIELDS`` table, checks every
value before it reads data or creates its output directory, performs one
pipeline stage, and writes its primary outputs under a run directory:

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

import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bamcd, synthetic
from .errors import ConfigError, DataError, read_text
from .features import (
    FeatureSchema,
    all_schema,
    assemble_features,
    derive_mi_schema,
    dsi_schema,
    feature_cube,
    sample_pixels,
    zero_nonfinite,
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
from .rasters import BandId, BitemporalSample, GroundTruthMask, RasterPatch, ingest_scene
from .runconfig import (
    get_str, int_at_least, int_in, one_of, positive_float, positive_ints, read_fields, reader,
)
from .seeding import derive_seed
from .synthetic import SyntheticConfig, benchmark_config, generate_dataset, split_counts
from .threshold import GRID_STEPS, MAX_GRID_STEPS, evaluate_threshold, fit_threshold, get_index_kind

FAMILY_ORDER = ("indices", "ml", "dl")
RUN_COLUMNS = ["method", "family", "repeat", "seed"]  # metrics.csv, before the metrics


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
    lines = [",".join(RUN_COLUMNS + names)]
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

PRESETS = {"clean": SyntheticConfig, "benchmark": benchmark_config}
SPLIT_KEYS = ("n_train", "n_val", "n_test")

# Every SyntheticConfig field but the bands can be set, plus preset and events.
SYNTH_FIELDS = {"preset": one_of(*PRESETS), "events": int_at_least(3)}
SYNTH_FIELDS.update(
    (key, read) for key, (read, _) in synthetic.CONFIG_FIELDS.items() if key != "bands"
)


def _synthetic_config(config: dict[str, str]) -> SyntheticConfig:
    fields = read_fields(config, SYNTH_FIELDS, "synth")
    base = PRESETS[fields.pop("preset", "clean")]()
    if "events" in fields:
        explicit = [k for k in SPLIT_KEYS if k in fields]
        if explicit:
            raise ConfigError(f"give either events= or {explicit}, not both")
        fields.update({f"n_{k}": n for k, n in split_counts(fields.pop("events")).items()})
    return replace(base, **fields)


def cmd_synth(config: dict[str, str], out_dir: Path, seed: int) -> Path:
    """Generate a synthetic dataset; write patches plus the manifest."""
    samples = generate_dataset(_synthetic_config(config), seed)
    save_dataset(samples, out_dir)
    _echo_config(out_dir, config, seed, 1)
    return out_dir / MANIFEST_NAME


# ------------------------------------------------------------------ ingest

SCENE_KEYS = ("scene_train", "scene_val", "scene_test")
INGEST_FIELDS = {
    **dict.fromkeys(SCENE_KEYS, get_str),
    "patch_size": int_at_least(1),
    "clip_max": positive_float,
}


def _read_scene(path: str, split: str) -> BitemporalSample:
    """A scene archive as one sample; every error is a DataError naming the file."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            return _scene_sample(archive, Path(path).stem, split)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:  # ValueError: a damaged .npy
        raise DataError(f"cannot read scene file {path}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"scene file {path}: {exc}") from None


def _scene_sample(archive: np.lib.npyio.NpzFile, event_id: str, split: str) -> BitemporalSample:
    """A scene archive's arrays as one sample: bands (names), pre/post
    (C,H,W), truth (H,W), water?. The sample checks the bands and shapes.

    The archive decodes a member on every access, so each is read once, and
    in turn: a date's array is dropped as soon as its float32 patch exists,
    so a float64 archive never holds both dates at both precisions."""
    for required in ("bands", "pre", "post", "truth"):
        if required not in archive.files:
            raise DataError(f"missing array {required!r}")
    names = archive["bands"]
    try:
        bands = tuple(BandId(str(b)) for b in names)
    except (TypeError, ValueError) as exc:  # a 0-d array, or a name that is not a band
        raise DataError(f"array 'bands': {exc}") from None

    def mask(name: str) -> GroundTruthMask:  # truth and water are both 0/1 masks
        try:
            return GroundTruthMask(archive[name])
        except DataError as exc:
            raise DataError(f"array {name!r}: {exc}") from None

    return BitemporalSample(
        RasterPatch(bands, archive["pre"]), RasterPatch(bands, archive["post"]), mask("truth"),
        mask("water").labels if "water" in archive.files else None, event_id, split,
    )


def cmd_ingest(config: dict[str, str], out_dir: Path, seed: int) -> Path:
    """Tile one scene file per split into patches; write the manifest."""
    fields = read_fields(config, INGEST_FIELDS, "ingest")
    patch_size = fields.pop("patch_size", 64)
    clip_max = fields.pop("clip_max", 1.0)
    if not fields:
        raise ConfigError(f"ingest needs at least one of {'/'.join(SCENE_KEYS)}")
    samples = []
    for key, path in fields.items():
        scene = _read_scene(path, key.partition("_")[2])
        try:
            samples += ingest_scene(scene, patch_size, clip_max)
        except DataError as exc:
            raise DataError(f"scene file {path}: {exc}") from None
    save_dataset(samples, out_dir, clip_max=clip_max)
    _echo_config(out_dir, config, seed, 1)
    return out_dir / MANIFEST_NAME


# -------------------------------------------------------------- index-eval


def _checked_manifest(path: str, command: str, splits: tuple[str, ...]):
    """The manifest at ``path`` once each of ``splits`` has rows; reads no patch."""
    manifest = read_manifest(path)
    if not all(manifest.by_split(split) for split in splits):
        named = " and ".join([", ".join(splits[:-1]), splits[-1]])
        raise DataError(f"{command} needs non-empty {named} splits")
    return manifest


INDEX_EVAL_FIELDS = {
    "manifest": get_str,
    "index": get_index_kind,
    "steps": int_in(2, MAX_GRID_STEPS),
}


def cmd_index_eval(config: dict[str, str], out_dir: Path, seed: int) -> MetricReport:
    """Fit a delta-index threshold on train pixels; evaluate on test pixels."""
    fields = read_fields(config, INDEX_EVAL_FIELDS, "index-eval", ("manifest", "index"))
    kind = fields["index"]
    manifest = _checked_manifest(fields["manifest"], "index-eval", ("train", "test"))
    model = fit_threshold(kind, load_split(manifest, "train"), fields.get("steps", GRID_STEPS))
    _, report = evaluate_threshold(model, load_split(manifest, "test"))
    out_dir.mkdir(parents=True, exist_ok=True)
    model.save(out_dir / "threshold.txt")
    method = f"d{kind.value}"
    _write_run_reports(out_dir, "indices", method, [seed], [report])
    _echo_config(out_dir, config, seed, 1)
    return report


# ----------------------------------------------------------------- ml-run

ML_FIELDS = {
    "manifest": get_str,
    "method": one_of("rf", "mlp"),
    "schema": one_of("All", "MI", "dSI"),
    "n_pixels": reader(int, "an even integer >= 2", lambda v: v >= 2 and v % 2 == 0),
    "mi_source": get_str,
}

# Each method's hyperparameters: config key -> (fit argument, reader). A run
# passes only the keys it was given, so the defaults live in forest and mlp.
FIT_FIELDS = {
    "rf": {
        "rf_trees": ("n_trees", int_at_least(1)),
        "rf_max_depth": ("max_depth", int_at_least(1)),
        "rf_min_leaf": ("min_leaf", int_at_least(1)),
    },
    "mlp": {
        "mlp_hidden": ("widths", positive_ints),
        "mlp_epochs": ("epochs", int_at_least(1)),
        "mlp_batch": ("batch_size", int_at_least(1)),
        "mlp_lr": ("learning_rate", positive_float),
    },
}


def _resolve_schema(variant: str, mi_source: str | None, bands) -> FeatureSchema:
    if variant == "All":
        return all_schema(bands)
    if variant == "dSI":
        return dsi_schema()
    source = Path(mi_source)
    base = FeatureSchema.load(source / "schema.txt")
    if base.variant != "All":
        raise ConfigError(
            f"mi_source run used schema {base.variant!r}; MI derives from All"
        )
    path = source / "importances.txt"
    weights = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if line.strip():
            try:
                _, value = line.rsplit(",", 1)
                weights.append(float(value))
            except ValueError:  # no comma, or a weight that is not a number
                raise DataError(f"{path}:{lineno}: expected label,weight, got {line!r}") from None
            if not np.isfinite(weights[-1]):
                raise DataError(f"{path}:{lineno}: weight is not finite: {line!r}")
    return derive_mi_schema(base, np.array(weights))


def _evaluate_pixel_model(predict, schema, samples) -> MetricReport:
    """Pooled full-raster evaluation of a pixel classifier over samples."""
    counts = ConfusionCounts()
    for s in samples:
        # One row per pixel in row-major order, C-contiguous like a gathered x.
        x = np.ascontiguousarray(feature_cube(schema, s).reshape(len(schema), -1).T)
        zero_nonfinite(x)
        probs = predict(x)
        mask = (probs >= bamcd.PROBABILITY_THRESHOLD).astype(np.uint8).reshape(s.truth.labels.shape)
        counts = counts + accumulate(mask, s.truth.labels)
    return compute_metrics(counts)


def cmd_ml_run(
    config: dict[str, str], out_dir: Path, seed: int, repeats: int = 1
) -> list[MetricReport]:
    """Pixel-classifier runs: sample -> assemble -> fit -> evaluate, repeated."""
    method = ML_FIELDS["method"](config, "method")
    method_fields = FIT_FIELDS[method]
    readers = {**ML_FIELDS, **{key: read for key, (_, read) in method_fields.items()}}
    fields = read_fields(config, readers, f"ml-run method={method}", ("manifest",))
    variant = fields.get("schema", "All")
    if ("mi_source" in fields) != (variant == "MI"):
        raise ConfigError("config key 'mi_source' is required with schema=MI, and only then")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    fit_args = {arg: fields[key] for key, (arg, _) in method_fields.items() if key in fields}
    manifest = _checked_manifest(fields["manifest"], "ml-run", ("train", "test"))
    train = load_split(manifest, "train")
    test = load_split(manifest, "test")

    schema = _resolve_schema(variant, fields.get("mi_source"), train[0].pre.bands)
    positions = sample_pixels(train, fields.get("n_pixels", 4000), derive_seed(seed, "pixels"))
    train_ds = assemble_features(schema, train, positions)
    if "widths" in fit_args:
        fit_args["widths"] = (train_ds.x.shape[1], *fit_args["widths"], 1)

    out_dir.mkdir(parents=True, exist_ok=True)
    schema.save(out_dir / "schema.txt")

    reports: list[MetricReport] = []
    seeds: list[int] = []
    importances = []
    for r in range(repeats):
        model_seed = derive_seed(seed, f"repeat/{r}")
        seeds.append(model_seed)
        if method == "rf":
            model = rf_fit(train_ds.x, train_ds.y, seed=model_seed, **fit_args)
            save_forest(out_dir / f"model_r{r}.npb", model)
            importances.append(model.feature_importances)
            predict = lambda x, m=model: rf_predict(m, x)
        else:
            model = mlp_fit(train_ds.x, train_ds.y, seed=model_seed, **fit_args)
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

PROFILES = {"mini": bamcd.mini_config, "paperlike": bamcd.paperlike_config}

# Every BamCdConfig field but the bands (taken from the data) and the seed
# (--seed) can be overridden.
DL_FIELDS = {"manifest": get_str, "profile": one_of(*PROFILES)}
DL_FIELDS.update(
    (key, read) for key, (read, _) in bamcd.CONFIG_FIELDS.items() if key not in ("bands", "seed")
)


def evaluate_network(model: bamcd.BamCdModel, samples) -> MetricReport:
    """Pooled test-pixel metrics of thresholded probability maps."""
    x_pre, x_post, truth = bamcd.stack_samples(samples, model.config)
    return bamcd.stack_metrics(model, x_pre, x_post, truth)


def cmd_dl_run(
    config: dict[str, str], out_dir: Path, seed: int, repeats: int = 1
) -> list[MetricReport]:
    """Train the change-detection network; evaluate its best checkpoint."""
    fields = read_fields(config, DL_FIELDS, "dl-run", ("manifest",))
    profile = fields.pop("profile", "mini")
    manifest_path = fields.pop("manifest")
    base = PROFILES[profile](**fields)  # BamCdConfig checks every value before any data
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    manifest = _checked_manifest(manifest_path, "dl-run", ("train", "val", "test"))
    train_split = load_split(manifest, "train")
    val_split = load_split(manifest, "val")
    test_split = load_split(manifest, "test")

    base = replace(base, bands=tuple(train_split[0].pre.bands))
    out_dir.mkdir(parents=True, exist_ok=True)

    reports: list[MetricReport] = []
    seeds: list[int] = []
    for r in range(repeats):
        run_seed = derive_seed(seed, f"repeat/{r}")
        seeds.append(run_seed)
        cfg = replace(base, seed=run_seed)
        model, trace = bamcd.train(bamcd.build(cfg), train_split, val_split)
        bamcd.save_bamcd(out_dir / f"checkpoint_r{r}.npb", model)
        _write(out_dir / f"trace_r{r}.csv", bamcd.trace_to_text(trace))
        reports.append(evaluate_network(model, test_split))

    _write_run_reports(out_dir, "dl", f"bamcd-{profile}", seeds, reports)
    _echo_config(out_dir, config, seed, repeats)
    return reports


# ----------------------------------------------------------------- report


def _read_metrics_csv(path: Path, names: list[str]) -> list[tuple[str, str, list[float]]]:
    """(family, method, metric values) per row of a ``_write_run_reports`` table."""
    lines = read_text(path).splitlines()
    header = RUN_COLUMNS + names
    if not lines or lines[0].split(",") != header:
        raise DataError(f"{path}: header is not {','.join(header)}")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"{path}:{lineno}: row has {len(cells)} cells, header {len(header)}")
        values = []
        for name, cell in zip(names, cells[len(RUN_COLUMNS):]):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"{path}:{lineno}: {name} is not a number: {cell!r}") from None
            if not 0.0 <= values[-1] <= 1.0:  # every metric is a ratio; NaN fails this too
                raise DataError(f"{path}:{lineno}: {name} is {cell!r}, outside [0, 1]")
        rows.append((cells[1], cells[0], values))
    if not rows:  # every run writes at least one row
        raise DataError(f"{path}: no rows under the header")
    return rows


def cmd_report(run_dirs: list[Path], out_dir: Path) -> str:
    """Merge run metrics into one table; best mean burnt F1/IoU in *bold*."""
    names = metric_names()
    grouped: dict[tuple[str, str], list[list[float]]] = {}
    for d in run_dirs:
        path = Path(d) / "metrics.csv"
        if not path.exists():
            raise DataError(f"run directory {d} has no metrics.csv")
        for family, method, values in _read_metrics_csv(path, names):
            grouped.setdefault((family, method), []).append(values)

    def family_rank(family: str) -> int:
        return FAMILY_ORDER.index(family) if family in FAMILY_ORDER else len(FAMILY_ORDER)

    ordered = sorted(grouped, key=lambda k: (family_rank(k[0]), k[1]))
    stats = {}
    for key in ordered:
        values = np.array(grouped[key], np.float64)
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
