"""Synthetic bitemporal scene generator.

Scenes are built from constant per-class reflectance profiles (vegetated,
burnt, water) with star-convex polygonal burn scars and water bodies, plus
three optional corruption layers:

* ``noise``          -- i.i.d. Gaussian reflectance noise on every band/epoch;
* ``outlier_frac``   -- isolated single-band, single-epoch reflectance spikes
                        (sensor glitches / unmasked clouds);
* ``distractor_prob``-- per-patch chance of a "false burn" blob: a polygon
                        where SWIR2 rises after the event with no change in
                        the other bands. Its delta-NBR overlaps the true burn
                        signature, so single-index thresholding cannot separate
                        it, while the untouched NIR plane gives multi-band
                        models an easy handle.

All randomness derives from one root seed per dataset; every patch gets its
own stream, so contents do not depend on generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .rasters import ALL_BANDS, BandId, BitemporalSample, GroundTruthMask, RasterPatch
from .runconfig import (
    check_values, fraction, get_bands, int_at_least, int_in, nonnegative_float, reader,
)
from .seeding import rng_for

VEGETATION_PROFILE: dict[BandId, float] = {
    BandId.B02: 0.030,
    BandId.B03: 0.050,
    BandId.B04: 0.060,
    BandId.B05: 0.100,
    BandId.B06: 0.250,
    BandId.B07: 0.350,
    BandId.B08: 0.430,
    BandId.B8A: 0.450,
    BandId.B11: 0.200,
    BandId.B12: 0.120,
}

BURNT_PROFILE: dict[BandId, float] = {
    BandId.B02: 0.040,
    BandId.B03: 0.060,
    BandId.B04: 0.090,
    BandId.B05: 0.110,
    BandId.B06: 0.130,
    BandId.B07: 0.150,
    BandId.B08: 0.170,
    BandId.B8A: 0.180,
    BandId.B11: 0.300,
    BandId.B12: 0.280,
}

# Shallow/turbid water: dark in SWIR yet bright enough that normalized
# ratios keep a safe denominator under noise.
WATER_PROFILE: dict[BandId, float] = {
    BandId.B02: 0.060,
    BandId.B03: 0.080,
    BandId.B04: 0.055,
    BandId.B05: 0.060,
    BandId.B06: 0.070,
    BandId.B07: 0.080,
    BandId.B08: 0.095,
    BandId.B8A: 0.100,
    BandId.B11: 0.060,
    BandId.B12: 0.050,
}

_SPOKES = 12
_BURN_RADIUS = (0.15, 0.30)  # fraction of min(height, width)
_WATER_RADIUS = (0.10, 0.22)
_DISTRACTOR_RADIUS = (0.08, 0.18)
_DISTRACTOR_SHIFT = (0.50, 0.90)
_SPIKE = (0.40, 0.90)
_MAX_POLYGON_TRIES = 32
_MIN_BURNT_PIXELS = 16  # land pixels a placed burn scar must cover
MAX_PATCH_SIZE = 1024  # synth's bound: one patch's float64 pre/post cubes take ~170 MB


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for one generated dataset. Defaults give a clean, confounder-free set."""

    patch_size: int = 64
    n_train: int = 40
    n_val: int = 10
    n_test: int = 10
    bands: tuple[BandId, ...] = ALL_BANDS
    noise: float = 0.0
    outlier_frac: float = 0.0
    distractor_prob: float = 0.0
    water_prob: float = 0.5
    burn_frac: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "bands", check_values(self, CONFIG_FIELDS)["bands"])
        if not any(self.counts().values()):
            raise ConfigError("'n_train', 'n_val' and 'n_test' are all 0: no patches to generate")

    def counts(self) -> dict[str, int]:
        return {"train": self.n_train, "val": self.n_val, "test": self.n_test}


# Every SyntheticConfig field in declaration order: (read and range-check from
# a key=value dict, format as text). synth's config keys come from it too.
CONFIG_FIELDS = {
    "patch_size": (int_in(8, MAX_PATCH_SIZE), str),
    **dict.fromkeys(("n_train", "n_val", "n_test"), (int_at_least(0), str)),
    "bands": (get_bands, ",".join),
    "noise": (nonnegative_float, repr),
    **dict.fromkeys(("outlier_frac", "distractor_prob", "water_prob"), (fraction, repr)),
    "burn_frac": (reader(float, "a number in (0, 1]", lambda v: 0 < v <= 1), repr),
}


def benchmark_config(noise: float = 0.02) -> SyntheticConfig:
    """The standard 40/10/10 64x64 benchmark: noise plus confounders enabled."""
    return SyntheticConfig(
        patch_size=64,
        n_train=40,
        n_val=10,
        n_test=10,
        noise=noise,
        outlier_frac=0.001,
        distractor_prob=0.6,
        water_prob=0.5,
    )


def split_counts(n_events: int) -> dict[str, int]:
    """60/20/20 event split with round-half-up; test takes the remainder."""
    if n_events < 3:
        raise ConfigError(f"need at least 3 events to split, got {n_events}")
    train = math.floor(0.6 * n_events + 0.5)
    val = math.floor(0.2 * n_events + 0.5)
    test = n_events - train - val
    if min(train, val, test) < 1:
        train, val, test = n_events - 2, 1, 1
    return {"train": train, "val": val, "test": test}


def _profile_vector(profile: dict[BandId, float], bands: tuple[BandId, ...]) -> np.ndarray:
    return np.array([profile[b] for b in bands], dtype=np.float64)


def _star_mask(
    rng: np.random.Generator, height: int, width: int, radius_frac: tuple[float, float]
) -> np.ndarray:
    """Random star-convex polygon: spoke radii linearly interpolated over angle.

    Only the pixels inside the polygon's clipped bounding box are evaluated.
    The box reaches one pixel past the longest spoke, so a rim that
    ``np.interp`` rounds up by an ulp still cannot reach a pixel outside it.
    """
    radius = min(height, width) * rng.uniform(*radius_frac)
    cy = rng.uniform(0.15, 0.85) * height
    cx = rng.uniform(0.15, 0.85) * width
    spokes = radius * rng.uniform(0.55, 1.0, _SPOKES)
    angles = np.arange(_SPOKES) * (2.0 * np.pi / _SPOKES)
    reach = spokes.max() + 1.0
    rows = slice(max(0, int(cy - reach)), min(height, int(cy + reach) + 2))
    cols = slice(max(0, int(cx - reach)), min(width, int(cx + reach) + 2))
    yy, xx = np.mgrid[rows, cols]
    dy = yy - cy
    dx = xx - cx
    theta = np.mod(np.arctan2(dy, dx), 2.0 * np.pi)
    rim = np.interp(theta, angles, spokes, period=2.0 * np.pi)
    mask = np.zeros((height, width), dtype=bool)
    mask[rows, cols] = np.hypot(dy, dx) <= rim
    return mask


def _render(
    rng: np.random.Generator,
    cfg: SyntheticConfig,
    height: int,
    width: int,
    n_burn: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One scene: float32 (pre, post) reflectance cubes and boolean (truth,
    water) masks.

    The cubes are built in float64; noise goes in one band plane at a time,
    drawn in the order of one cube-sized draw, and each cube is cast to
    float32 as soon as it is clipped. So the scene peaks near 2.5 times its
    float32 output, not at a cube-sized noise array beside both cubes.
    """
    bands = cfg.bands
    veg = _profile_vector(VEGETATION_PROFILE, bands)
    burnt = _profile_vector(BURNT_PROFILE, bands)
    wat = _profile_vector(WATER_PROFILE, bands)

    pre = np.broadcast_to(veg[:, None, None], (len(bands), height, width)).copy()
    post = pre.copy()

    water = np.zeros((height, width), dtype=bool)
    if rng.random() < cfg.water_prob:
        water = _star_mask(rng, height, width, _WATER_RADIUS)

    burn = np.zeros((height, width), dtype=bool)
    for _ in range(n_burn):
        for _attempt in range(_MAX_POLYGON_TRIES):
            scar = _star_mask(rng, height, width, _BURN_RADIUS)
            if (scar & ~water).sum() >= _MIN_BURNT_PIXELS:
                burn |= scar
                break
        else:
            raise DataError(
                f"could not place a burn scar with >= {_MIN_BURNT_PIXELS} "
                f"land pixels in a {height}x{width} scene"
            )
    truth = burn & ~water

    post[:, truth] = burnt[:, None]
    pre[:, water] = wat[:, None]
    post[:, water] = wat[:, None]

    if rng.random() < cfg.distractor_prob and BandId.B12 in bands:
        blob = _star_mask(rng, height, width, _DISTRACTOR_RADIUS)
        post[bands.index(BandId.B12)][blob] += rng.uniform(*_DISTRACTOR_SHIFT)

    if cfg.noise > 0:
        for plane in (*pre, *post):
            plane += rng.normal(0.0, cfg.noise, plane.shape)

    n_out = int(round(cfg.outlier_frac * height * width))
    if n_out > 0:
        flat = rng.choice(height * width, size=n_out, replace=False)
        band_idx = rng.integers(0, len(bands), n_out)
        epoch = rng.integers(0, 2, n_out)
        mag = rng.uniform(*_SPIKE, n_out)
        rows, cols = np.divmod(flat, width)
        for cube, which in ((pre, epoch == 0), (post, epoch == 1)):
            cube[band_idx[which], rows[which], cols[which]] += mag[which]

    pre = np.clip(pre, 0.0, 1.0, out=pre).astype(np.float32)
    post = np.clip(post, 0.0, 1.0, out=post).astype(np.float32)
    return pre, post, truth, water


def generate_sample(
    cfg: SyntheticConfig, seed: int, split: str, index: int, positive: bool
) -> BitemporalSample:
    """One patch sample with its own derived random stream."""
    rng = rng_for(seed, f"synth/{split}/{index}")
    pre, post, truth, water = _render(
        rng, cfg, cfg.patch_size, cfg.patch_size, n_burn=1 if positive else 0
    )
    return BitemporalSample(
        pre=RasterPatch(cfg.bands, pre),
        post=RasterPatch(cfg.bands, post),
        truth=GroundTruthMask(truth.astype(np.uint8)),
        water=water.astype(np.uint8),
        event_id=f"ev-{split}-{index:03d}",
        split=split,
    )


def generate_dataset(cfg: SyntheticConfig, seed: int) -> list[BitemporalSample]:
    """All splits' patches. Within a split the first round(burn_frac*n) are positive."""
    samples = []
    for split, count in cfg.counts().items():
        n_pos = int(round(cfg.burn_frac * count))
        for i in range(count):
            samples.append(generate_sample(cfg, seed, split, i, positive=i < n_pos))
    return samples


def generate_scene(
    cfg: SyntheticConfig, seed: int, height: int, width: int
) -> tuple[RasterPatch, RasterPatch, GroundTruthMask, np.ndarray]:
    """A full scene (for the tiling/ingestion path) with area-scaled scar count."""
    if height < cfg.patch_size or width < cfg.patch_size:
        raise ConfigError(
            f"scene {height}x{width} smaller than patch size {cfg.patch_size}"
        )
    rng = rng_for(seed, f"synth/scene/{height}x{width}")
    n_burn = max(1, int(round(height * width / 128**2)))
    pre, post, truth, water = _render(rng, cfg, height, width, n_burn=n_burn)
    return (
        RasterPatch(cfg.bands, pre),
        RasterPatch(cfg.bands, post),
        GroundTruthMask(truth.astype(np.uint8)),
        water.astype(np.uint8),
    )
