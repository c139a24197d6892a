"""Global thresholding of delta-index fields.

A pixel is burnt iff its delta value is >= the threshold; NaN pixels are
always unburnt. The threshold is found by grid search on pooled training
pixels: 256 evenly spaced candidates between the 1st and 99th percentile of
the defined delta values, scored by burnt-class F1, ties resolved toward the
smallest candidate.

A fitted model is stored as six ``key=value`` lines, written and read
through one field table (``MODEL_FIELDS``) with the run-config reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FitError, read_text
from .metrics import ConfusionCounts, MetricReport, accumulate, compute_metrics
from .rasters import BitemporalSample
from .runconfig import format_fields, get_float, get_int, get_str, parse_fields
from .spectral import IndexKind, delta_field

GRID_STEPS = 256
MAX_GRID_STEPS = 2**20  # index-eval's bound: the scan holds ~10 grid-length float64 arrays
_PERCENTILES = (1.0, 99.0)


def get_index_kind(config: dict[str, str], key: str) -> IndexKind:
    """Config reader of an index name (``IndexKind.parse``)."""
    try:
        return IndexKind.parse(get_str(config, key))
    except ConfigError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


# Every ThresholdModel field in declaration order: (reader, formatter).
MODEL_FIELDS = {
    "kind": (get_index_kind, lambda kind: kind.value),
    "threshold": (get_float, repr),
    "grid_lo": (get_float, repr),
    "grid_hi": (get_float, repr),
    "grid_steps": (get_int, str),
    "train_f1": (get_float, repr),
}


@dataclass
class ThresholdModel:
    kind: IndexKind
    threshold: float
    grid_lo: float
    grid_hi: float
    grid_steps: int
    train_f1: float

    def __post_init__(self):
        if not self.grid_lo < self.grid_hi:
            raise FitError(f"grid lo {self.grid_lo} must be < hi {self.grid_hi}")
        if self.grid_steps < 2:
            raise FitError(f"grid needs >= 2 steps, got {self.grid_steps}")
        if not self.grid_lo <= self.threshold <= self.grid_hi:
            raise FitError(f"threshold {self.threshold} outside grid bounds")

    def to_text(self) -> str:
        return format_fields(self, MODEL_FIELDS)

    @classmethod
    def from_text(cls, text: str) -> "ThresholdModel":
        """Read ``to_text`` output; a missing or unparsable field is a DataError."""
        try:
            fields = parse_fields(text, MODEL_FIELDS)
        except ConfigError as exc:
            raise DataError(f"threshold model: {exc}") from None
        return cls(**fields)

    def save(self, path: str | Path):
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ThresholdModel":
        return cls.from_text(read_text(path))


def binarize(field: np.ndarray, threshold: float) -> np.ndarray:
    """1 where value >= threshold, else 0; NaN compares unburnt."""
    with np.errstate(invalid="ignore"):
        return (field >= threshold).astype(np.uint8)


def candidate_grid(values: np.ndarray, steps: int = GRID_STEPS) -> np.ndarray:
    """Evenly spaced thresholds between the 1st and 99th percentile of the
    defined (non-NaN) values."""
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise FitError("no defined delta values to build a threshold grid from")
    lo, hi = np.percentile(finite.astype(np.float64), _PERCENTILES)
    if not lo < hi:
        raise FitError(f"degenerate delta distribution (lo=hi={lo})")
    return np.linspace(lo, hi, steps)


def _pool_deltas(
    kind: IndexKind, samples: list[BitemporalSample]
) -> tuple[np.ndarray, np.ndarray]:
    values = []
    labels = []
    for s in samples:
        values.append(delta_field(kind, s.pre, s.post).ravel())
        labels.append(s.truth.labels.ravel())
    return np.concatenate(values), np.concatenate(labels)


def fit_threshold(
    kind: IndexKind, samples: list[BitemporalSample], steps: int = GRID_STEPS
) -> ThresholdModel:
    """Grid-search the burnt-F1-optimal global threshold on pooled train pixels.

    Equivalent to scoring binarize() at every grid point, but counted from two
    value sorts, of the defined deltas and of the defined burnt deltas: the
    pixels at or above a grid point are those from its left insertion point
    on, so each count is one ``searchsorted`` and the scan is
    O((n + steps) log n). Burnt pixels whose delta is NaN count as misses.
    """
    if not samples:
        raise FitError("no training samples")
    values, labels = _pool_deltas(kind, samples)
    total_burnt = int(labels.sum())
    if total_burnt == 0 or total_burnt == labels.size:
        raise FitError("training pixels contain a single class; cannot fit")

    finite = np.isfinite(values)
    v_sorted = np.sort(values[finite])
    burnt_sorted = np.sort(values[finite & (labels == 1)])
    grid = candidate_grid(v_sorted, steps)

    predicted = (v_sorted.size - np.searchsorted(v_sorted, grid, "left")).astype(np.float64)
    tp = (burnt_sorted.size - np.searchsorted(burnt_sorted, grid, "left")).astype(np.float64)
    fp = predicted - tp
    fn = total_burnt - tp
    # Same arithmetic as metrics.compute_metrics so the recorded F1 is
    # bit-identical to re-scoring the fitted model through binarize().
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        rec = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(prec + rec > 0, 2.0 * prec * rec / (prec + rec), 0.0)

    best = int(np.argmax(f1))  # first occurrence = smallest threshold on ties
    return ThresholdModel(
        kind=kind,
        threshold=float(grid[best]),
        grid_lo=float(grid[0]),
        grid_hi=float(grid[-1]),
        grid_steps=steps,
        train_f1=float(f1[best]),
    )


def apply_threshold(model: ThresholdModel, sample: BitemporalSample) -> np.ndarray:
    """Binary burnt mask for one sample under a fitted model."""
    return binarize(delta_field(model.kind, sample.pre, sample.post), model.threshold)


def evaluate_threshold(
    model: ThresholdModel, samples: list[BitemporalSample]
) -> tuple[ConfusionCounts, MetricReport]:
    """Pooled-pixel evaluation of a fitted model over a sample list."""
    counts = ConfusionCounts()
    for s in samples:
        counts = counts + accumulate(apply_threshold(model, s), s.truth.labels)
    return counts, compute_metrics(counts)
