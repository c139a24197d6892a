"""Pixel sampling and feature assembly for the classical learners.

Sampling pools N/2 burnt and N/2 unburnt pixels from the positive patches
plus an equal count of negative patches. Quotas divide evenly across patches
(remainder to the earliest, keeping manifest order authoritative); a patch
containing water must place at least 10% of its unburnt draw on water
(rounded up). Understocked strata contribute everything they have — the
shortfall is logged, never silently re-drawn elsewhere.

Feature schemas follow the three benchmark variants: All (pre/post bands,
pre/post indices, delta indices), dSI (delta indices only) and MI (the All
entries whose forest importance exceeds 0.01).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FitError, read_text
from .rasters import ALL_BANDS, BandId, BitemporalSample, balance_negatives
from .seeding import rng_for
from .spectral import BITEMPORAL, UNITEMPORAL, IndexKind, IndexPlanes

log = logging.getLogger(__name__)

WATER_QUOTA = 0.10
VARIANTS = ("All", "MI", "dSI")


@dataclass(frozen=True)
class FeatureKey:
    """One column: a band in one epoch, an index in one epoch, or a delta index."""

    source: str  # "pre" | "post" | "delta"
    band: BandId | None = None
    index: IndexKind | None = None

    def __post_init__(self):
        if self.source not in ("pre", "post", "delta"):
            raise ConfigError(f"bad feature source {self.source!r}")
        if (self.band is None) == (self.index is None):
            raise ConfigError("feature key needs exactly one of band/index")
        if self.source == "delta" and self.index is None:
            raise ConfigError("delta features are index-valued")

    @property
    def label(self) -> str:
        tag = "d" if self.source == "delta" else self.source
        name = self.band.value if self.band is not None else self.index.value
        return f"{tag}:{name}"

    @classmethod
    def parse(cls, label: str) -> "FeatureKey":
        tag, _, name = label.partition(":")
        source = {"pre": "pre", "post": "post", "d": "delta"}.get(tag)
        if source is None or not name:
            raise ConfigError(f"bad feature label {label!r}")
        if name in BandId.__members__:
            if source == "delta":
                raise ConfigError(f"delta feature must name an index: {label!r}")
            return cls(source, band=BandId(name))
        return cls(source, index=IndexKind.parse(name))


@dataclass(frozen=True)
class FeatureSchema:
    variant: str
    entries: tuple[FeatureKey, ...]

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown schema variant {self.variant!r}")
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ConfigError("duplicate feature entries in schema")

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]

    def to_text(self) -> str:
        return "\n".join([f"variant={self.variant}"] + self.labels()) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FeatureSchema":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("variant="):
            raise DataError("schema text must start with 'variant='")
        try:
            entries = tuple(FeatureKey.parse(ln) for ln in lines[1:])
            return cls(lines[0].partition("=")[2], entries)
        except ConfigError as exc:  # a damaged record is bad data, not bad config
            raise DataError(str(exc)) from None

    def save(self, path: str | Path):
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "FeatureSchema":
        """The schema saved at ``path``; text that does not parse is a
        DataError whose message starts with the path."""
        text = read_text(path)
        try:
            return cls.from_text(text)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def all_schema(bands: tuple[BandId, ...] = ALL_BANDS) -> FeatureSchema:
    """Bands per epoch, unitemporal indices per epoch, then the dSI deltas."""
    entries: list[FeatureKey] = []
    entries += [FeatureKey("pre", band=b) for b in bands]
    entries += [FeatureKey("post", band=b) for b in bands]
    entries += [FeatureKey("pre", index=k) for k in UNITEMPORAL]
    entries += [FeatureKey("post", index=k) for k in UNITEMPORAL]
    return FeatureSchema("All", (*entries, *dsi_schema().entries))


def dsi_schema() -> FeatureSchema:
    """Delta indices only: every unitemporal index, then RdNBR and RBR."""
    kinds = (*UNITEMPORAL, *BITEMPORAL)
    return FeatureSchema("dSI", tuple(FeatureKey("delta", index=k) for k in kinds))


def derive_mi_schema(schema: FeatureSchema, importances: np.ndarray) -> FeatureSchema:
    """Keep the entries whose importance is strictly greater than 0.01."""
    importances = np.asarray(importances, dtype=np.float64)
    if importances.shape != (len(schema),):
        raise DataError(
            f"importances length {importances.shape} != schema length {len(schema)}"
        )
    if (importances < 0).any():
        raise DataError("importances must be nonnegative")
    kept = tuple(e for e, w in zip(schema.entries, importances) if w > 0.01)
    return FeatureSchema("MI", kept)


# One sampled pixel: its patch (an index into the sampled list), place and label.
POSITION = np.dtype(
    [("sample", np.int64), ("row", np.int64), ("col", np.int64), ("label", np.uint8)]
)


def _allocate(total: int, parts: int) -> list[int]:
    """Even split, remainder to the earliest parts."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _draw(rng: np.random.Generator, rows, cols, take: int) -> tuple[np.ndarray, np.ndarray]:
    if take <= 0 or rows.size == 0:
        return rows[:0], cols[:0]
    idx = rng.choice(rows.size, size=min(take, rows.size), replace=False)
    idx.sort()
    return rows[idx], cols[idx]


def _positions(sample: int, rows: np.ndarray, cols: np.ndarray, label: int) -> np.ndarray:
    out = np.empty(rows.size, POSITION)
    out["sample"], out["row"], out["col"], out["label"] = sample, rows, cols, label
    return out


def pixel_plan(patches: list, n_pixels: int, seed: int) -> list[tuple[object, int, int]]:
    """(patch, burnt quota, unburnt quota) of every pooled patch, in pool
    order: the positives, then the seeded negative draw. ``patches`` may be
    samples or manifest entries; only their ``is_positive()`` is read, so a
    split's plan needs none of its reflectance."""
    if n_pixels <= 0 or n_pixels % 2:
        raise ConfigError(f"pixel budget must be positive and even, got {n_pixels}")
    n_positive = sum(p.is_positive() for p in patches)
    if not n_positive:
        raise FitError("sampling needs at least one patch with burnt pixels")
    pool = balance_negatives(patches, seed)
    half = n_pixels // 2
    burnt_quota = _allocate(half, n_positive) + [0] * (len(pool) - n_positive)
    return list(zip(pool, burnt_quota, _allocate(half, len(pool))))


def draw_pixels(
    sample: BitemporalSample, burnt_quota: int, unburnt_quota: int, seed: int, index: int = 0
) -> np.ndarray:
    """One pooled patch's positions (``POSITION``, ``sample`` = ``index``):
    its burnt draw, then its water and land unburnt draws, from the patch's
    own ``pixels/<event id>`` stream, so they do not depend on which patches
    were drawn before it."""
    rng = rng_for(seed, f"pixels/{sample.event_id}")
    burnt_mask = sample.truth.labels.astype(bool)
    water_mask = (
        sample.water.astype(bool) if sample.water is not None
        else np.zeros_like(burnt_mask)
    )
    chunks: list[np.ndarray] = []
    if sample.is_positive():
        rows, cols = np.nonzero(burnt_mask)
        got_rows, got_cols = _draw(rng, rows, cols, burnt_quota)
        if got_rows.size < burnt_quota:
            log.warning(
                "patch %s: burnt stratum %d short of quota %d",
                sample.event_id, rows.size, burnt_quota,
            )
        chunks.append(_positions(index, got_rows, got_cols, 1))

    unburnt_mask = ~burnt_mask
    w_rows, w_cols = np.nonzero(unburnt_mask & water_mask)
    l_rows, l_cols = np.nonzero(unburnt_mask & ~water_mask)
    stock = w_rows.size + l_rows.size
    take_u = min(unburnt_quota, stock)
    if take_u < unburnt_quota:
        log.warning(
            "patch %s: unburnt stratum %d short of quota %d",
            sample.event_id, stock, unburnt_quota,
        )
    quota_w = math.ceil(WATER_QUOTA * take_u) if w_rows.size else 0
    take_w = min(quota_w, w_rows.size)
    take_l = min(take_u - take_w, l_rows.size)
    take_w += min(take_u - take_w - take_l, w_rows.size - take_w)

    got_w = _draw(rng, w_rows, w_cols, take_w)
    got_l = _draw(rng, l_rows, l_cols, take_l)
    return np.concatenate(
        [*chunks, _positions(index, *got_w, 0), _positions(index, *got_l, 0)]
    )


def sample_pixels(
    samples: list[BitemporalSample], n_pixels: int, seed: int
) -> np.ndarray:
    """Balanced pixel positions (a ``POSITION`` array): N/2 burnt + N/2
    unburnt with the water quota, in draw order (``pixel_plan`` and
    ``draw_pixels`` over every pooled sample)."""
    index_of = {id(s): i for i, s in enumerate(samples)}
    return np.concatenate([
        draw_pixels(s, burnt, unburnt, seed, index_of[id(s)])
        for s, burnt, unburnt in pixel_plan(samples, n_pixels, seed)
    ])


@dataclass
class FeatureDataset:
    schema: FeatureSchema
    x: np.ndarray  # (n, d) float32, NaN-free
    y: np.ndarray  # (n,) uint8
    provenance: np.ndarray  # POSITION array, one entry per row of x
    nan_counts: dict[str, int]


def validate_training_data(x: np.ndarray, y: np.ndarray):
    """Check the (n, d) features and (n,) labels that a pixel classifier
    fits on: aligned, non-empty, finite features and 0/1 labels of both
    classes. Raises DataError, or FitError for a single-class set."""
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DataError(f"features {x.shape} and labels {y.shape} do not align")
    if x.shape[0] == 0:
        raise DataError("empty training set")
    if not np.isfinite(x).all():
        raise DataError("non-finite feature values")
    classes = np.unique(y)
    if classes.size < 2:
        raise FitError(
            f"single-class training set (label {classes[0]!r}): model would be degenerate"
        )
    if not np.isin(classes, (0, 1)).all():
        raise DataError(f"labels must be 0/1, got {classes.tolist()}")


def feature_cube(schema: FeatureSchema, sample: BitemporalSample) -> np.ndarray:
    """The (d, H, W) float32 feature stack of one sample, NaN where a formula
    is undefined; each raw index plane is evaluated once (``IndexPlanes``)."""
    planes = IndexPlanes(sample.pre, sample.post)
    cube = np.empty((len(schema), sample.height, sample.width), np.float32)
    for i, key in enumerate(schema.entries):
        if key.band is not None:
            cube[i] = (sample.pre if key.source == "pre" else sample.post).band(key.band)
        elif key.source == "delta":
            cube[i] = planes.change(key.index)
        else:
            cube[i] = planes.index(key.source, key.index)
    return cube


def zero_nonfinite(x: np.ndarray) -> np.ndarray:
    """Set the NaN/inf entries of an (n, d) feature matrix to 0 in place;
    return how many were replaced in each column."""
    bad = ~np.isfinite(x)
    x[bad] = 0.0
    return bad.sum(axis=0)


def assemble_features(
    schema: FeatureSchema,
    samples: list[BitemporalSample],
    positions: np.ndarray,
) -> FeatureDataset:
    """Gather feature vectors at the given positions, pooling in sample order.

    ``positions["sample"]`` indexes ``samples``. NaN feature values become 0;
    how many were replaced is reported per feature in ``nan_counts``.
    """
    if len(schema) == 0:
        raise DataError(f"cannot assemble an empty {schema.variant} schema")
    unknown = (positions["sample"] < 0) | (positions["sample"] >= len(samples))
    if unknown.any():
        raise DataError(
            f"positions reference unknown patches: {np.unique(positions['sample'][unknown])[:3]}"
        )
    if positions.size == 0:
        raise DataError("no positions matched the given samples")
    pooled = positions[np.argsort(positions["sample"], kind="stable")]
    bounds = np.searchsorted(pooled["sample"], np.arange(len(samples) + 1))

    x = np.empty((pooled.size, len(schema)), np.float32)
    for i, s in enumerate(samples):
        here = pooled[bounds[i] : bounds[i + 1]]
        if not here.size:
            continue
        rows, cols = here["row"], here["col"]
        if rows.max() >= s.height or cols.max() >= s.width:
            raise DataError(f"position outside patch {s.event_id}")
        x[bounds[i] : bounds[i + 1]] = feature_cube(schema, s)[:, rows, cols].T
    counts = zero_nonfinite(x)
    return FeatureDataset(
        schema=schema,
        x=x,
        y=pooled["label"].copy(),
        provenance=pooled,
        nan_counts={label: int(n) for label, n in zip(schema.labels(), counts)},
    )
