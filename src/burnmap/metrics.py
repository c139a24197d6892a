"""Confusion accumulation and per-class segmentation metrics.

The burnt class is the positive class; unburnt counts follow by complement.
Zero-denominator metrics evaluate to 0 and the affected metric names are
listed in the report's ``flags`` so the convention is never silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionCounts:
    """Pixel counts with burnt as the positive class."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise DataError("confusion counts must be nonnegative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tn + other.tn,
        )


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    iou: float


@dataclass(frozen=True)
class MetricReport:
    burnt: ClassMetrics
    unburnt: ClassMetrics
    mean_f1: float
    mean_iou: float
    flags: tuple[str, ...] = ()

    def as_row(self) -> list[tuple[str, float]]:
        """Ordered (name, value) pairs: per-class metrics then macro means."""
        out = []
        for cls_name, m in (("unburnt", self.unburnt), ("burnt", self.burnt)):
            for metric in ("precision", "recall", "f1", "iou"):
                out.append((f"{metric}_{cls_name}", getattr(m, metric)))
        out.append(("mean_f1", self.mean_f1))
        out.append(("mean_iou", self.mean_iou))
        return out


def accumulate(prediction: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    """Pixelwise burnt-class confusion between a predicted and a true mask."""
    prediction = np.asarray(prediction)
    truth = np.asarray(truth)
    if prediction.shape != truth.shape:
        raise DataError(
            f"prediction shape {prediction.shape} != truth shape {truth.shape}"
        )
    p = prediction.astype(bool)
    t = truth.astype(bool)
    return ConfusionCounts(
        tp=int((p & t).sum()),
        fp=int((p & ~t).sum()),
        fn=int((~p & t).sum()),
        tn=int((~p & ~t).sum()),
    )


def _safe_ratio(num: int, den: int, name: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def _class_metrics(tp: int, fp: int, fn: int, prefix: str, flags: list[str]) -> ClassMetrics:
    precision = _safe_ratio(tp, tp + fp, f"{prefix}.precision", flags)
    recall = _safe_ratio(tp, tp + fn, f"{prefix}.recall", flags)
    if precision + recall == 0.0:
        flags.append(f"{prefix}.f1")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    iou = _safe_ratio(tp, tp + fp + fn, f"{prefix}.iou", flags)
    return ClassMetrics(precision, recall, f1, iou)


def compute_metrics(counts: ConfusionCounts) -> MetricReport:
    """Precision/recall/F1/IoU for both classes plus their arithmetic means."""
    flags: list[str] = []
    burnt = _class_metrics(counts.tp, counts.fp, counts.fn, "burnt", flags)
    # For the unburnt class the positives are the unburnt pixels.
    unburnt = _class_metrics(counts.tn, counts.fn, counts.fp, "unburnt", flags)
    return MetricReport(
        burnt=burnt,
        unburnt=unburnt,
        mean_f1=(burnt.f1 + unburnt.f1) / 2.0,
        mean_iou=(burnt.iou + unburnt.iou) / 2.0,
        flags=tuple(flags),
    )


def align_table(header: list[str], rows: list[list[str]]) -> str:
    """Monospace table: first column left-aligned, the rest right-aligned."""
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"table row {i} has {len(row)} cells, header has {len(header)}")
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]

    def fmt(cells):
        out = [cells[0].ljust(widths[0])]
        out += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join(out).rstrip()

    lines = [fmt(header), "  ".join("-" * w for w in widths)]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines) + "\n"


def metric_names() -> list[str]:
    """Column order shared by every emitted report."""
    return [name for name, _ in compute_metrics(ConfusionCounts(1, 0, 0, 1)).as_row()]


def report_table(named: list[tuple[str, MetricReport]]) -> str:
    """Aligned per-class metric table: one row per labelled report."""
    rows = [
        [label] + [f"{v:.4f}" for _, v in report.as_row()] for label, report in named
    ]
    return align_table(["method"] + metric_names(), rows)
