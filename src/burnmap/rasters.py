"""Patch data model: bands, reflectance patches, bitemporal samples, tiling.

Reflectance is dimensionless surface reflectance stored as float32 in
[band][row][col] order. Ingestion clips a scene's outliers in place to a
configurable ceiling and cuts the scene into non-overlapping square tiles,
views of it, dropping partial borders.
Inputs are assumed to be co-registered and already resampled to a common
ground sampling distance; no resampling happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError
from .seeding import rng_for

DEFAULT_CLIP_MAX = 1.0


class BandId(str, Enum):
    """Sentinel-2 bands usable in a patch (10m bands assumed resampled to 20m)."""

    B02 = "B02"
    B03 = "B03"
    B04 = "B04"
    B05 = "B05"
    B06 = "B06"
    B07 = "B07"
    B08 = "B08"
    B8A = "B8A"
    B11 = "B11"
    B12 = "B12"


ALL_BANDS: tuple[BandId, ...] = tuple(BandId)

SPLITS = ("train", "val", "test")


@dataclass
class RasterPatch:
    """Dense reflectance array with its band table, shaped (bands, height, width)."""

    bands: tuple[BandId, ...]
    data: np.ndarray

    def __post_init__(self):
        self.bands = tuple(BandId(b) for b in self.bands)
        if not self.bands:
            raise DataError("patch has no bands")
        if len(set(self.bands)) != len(self.bands):
            raise DataError(f"duplicate bands in patch: {[b.value for b in self.bands]}")
        data = np.asarray(self.data)
        if data.dtype.kind not in "biuf":  # a cast would drop an imaginary part
            raise DataError(f"patch data of dtype {data.dtype} is not real reflectance")
        self.data = data.astype(np.float32, copy=False)
        if self.data.ndim != 3 or self.data.shape[0] != len(self.bands):
            raise DataError(
                f"patch data shape {self.data.shape} does not match {len(self.bands)} bands"
            )
        if not np.isfinite(self.data).all():
            b, row, col = np.argwhere(~np.isfinite(self.data))[0]
            raise DataError(
                f"band {self.bands[b].value} has non-finite reflectance "
                f"{self.data[b, row, col]} at (row {row}, col {col})"
            )

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def band(self, band: BandId) -> np.ndarray:
        """The (height, width) plane for one band."""
        band = BandId(band)
        try:
            i = self.bands.index(band)
        except ValueError:
            raise DataError(f"band {band.value} not present in patch") from None
        return self.data[i]

    def has_band(self, band: BandId) -> bool:
        return BandId(band) in self.bands


@dataclass
class GroundTruthMask:
    """Binary burnt/unburnt labels, shaped (height, width), 1 = burnt."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2:
            raise DataError(f"mask must be 2-D, got shape {labels.shape}")
        # Checked before the uint8 cast, which would wrap 256 and truncate 0.5 to 0.
        if labels.dtype == np.uint8:
            binary = labels.max(initial=0) <= 1
        else:
            binary = ((labels == 0) | (labels == 1)).all()
        if not binary:
            bad = np.unique(labels[(labels != 0) & (labels != 1)])
            raise DataError(f"mask labels must be 0/1, found {bad.tolist()}")
        self.labels = labels.astype(np.uint8, copy=False)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def positive_pixels(self) -> int:
        return int(self.labels.sum())


@dataclass
class BitemporalSample:
    """Pre/post patch pair with ground truth, the unit of training and evaluation."""

    pre: RasterPatch
    post: RasterPatch
    truth: GroundTruthMask
    water: np.ndarray | None = None
    event_id: str = ""
    split: str = "train"

    def __post_init__(self):
        if self.pre.bands != self.post.bands:
            raise DataError("pre and post patches carry different band lists")
        if self.pre.data.shape != self.post.data.shape:
            raise DataError(
                f"pre shape {self.pre.data.shape} != post shape {self.post.data.shape}"
            )
        if (self.truth.height, self.truth.width) != (self.pre.height, self.pre.width):
            raise DataError("truth mask dimensions do not match the patches")
        if self.water is not None:
            try:
                self.water = GroundTruthMask(self.water).labels
            except DataError as exc:
                raise DataError(f"water {exc}") from None
            if self.water.shape != (self.pre.height, self.pre.width):
                raise DataError("water mask dimensions do not match the patches")
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r}")

    @property
    def height(self) -> int:
        return self.pre.height

    @property
    def width(self) -> int:
        return self.pre.width

    def is_positive(self) -> bool:
        return self.truth.positive_pixels() > 0


def clip_reflectance(data: np.ndarray, clip_max: float) -> np.ndarray:
    """Clip reflectance outliers into [0, clip_max] in place and return
    ``data``. Idempotent."""
    if clip_max <= 0:
        raise DataError(f"clip_max must be positive, got {clip_max}")
    return np.clip(data, 0.0, np.float32(clip_max), out=data)


def ingest_scene(
    scene: BitemporalSample, patch_size: int, clip_max: float = DEFAULT_CLIP_MAX
) -> list[BitemporalSample]:
    """Cut a scene into non-overlapping patch_size tiles in row-major order.

    The scene is one sample, so its bands and layer shapes are already
    checked. Border pixels beyond the last full tile are dropped. The
    scene is consumed: its pre and post reflectances are clipped to
    [0, clip_max] in place, and every tile's arrays are views of the
    scene's, so ingesting adds no copy of the scene. Tiles keep the
    scene's split and are named "<event_id>/r<i>c<j>".
    """
    if patch_size <= 0 or scene.height < patch_size or scene.width < patch_size:
        raise DataError(
            f"scene {scene.height}x{scene.width} smaller than patch size {patch_size}"
        )

    bands = scene.pre.bands
    pre_data = clip_reflectance(scene.pre.data, clip_max)
    post_data = clip_reflectance(scene.post.data, clip_max)
    samples = []
    for i in range(scene.height // patch_size):
        for j in range(scene.width // patch_size):
            rs = slice(i * patch_size, (i + 1) * patch_size)
            cs = slice(j * patch_size, (j + 1) * patch_size)
            samples.append(
                BitemporalSample(
                    pre=RasterPatch(bands, pre_data[:, rs, cs]),
                    post=RasterPatch(bands, post_data[:, rs, cs]),
                    truth=GroundTruthMask(scene.truth.labels[rs, cs]),
                    water=None if scene.water is None else scene.water[rs, cs],
                    event_id=f"{scene.event_id}/r{i}c{j}" if scene.event_id else f"r{i}c{j}",
                    split=scene.split,
                )
            )
    return samples


def balance_negatives(
    samples: list[BitemporalSample], seed: int
) -> list[BitemporalSample]:
    """All positive patches plus an equal, seeded, uniform draw of negatives.

    Positives keep their order; the negative draw preserves pool order too so
    the result is deterministic for a fixed seed.
    """
    positives = [s for s in samples if s.is_positive()]
    negatives = [s for s in samples if not s.is_positive()]
    if len(negatives) < len(positives):
        raise DataError(
            f"balance: {len(positives)} positive patches but only "
            f"{len(negatives)} negatives available"
        )
    if not positives:
        return []
    rng = rng_for(seed, "balance_negatives")
    picked = sorted(rng.choice(len(negatives), size=len(positives), replace=False))
    return positives + [negatives[i] for i in picked]
