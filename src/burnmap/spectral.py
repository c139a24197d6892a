"""Spectral indices for burnt-area mapping.

Thirteen unitemporal indices evaluable on a single patch, their differenced
forms (pre minus post), and two inherently bitemporal ratios (RdNBR, RBR)
defined on the pre/post NBR pair.

Formula symbols bind to Sentinel-2 bands through one fixed table
(``ROLE_BANDS``): Blue=B02, Green=B03, Red=B04, RedEdge=B06, NIR=B8A,
NIR1=B07, NIR2=B8A, SWIR=B12, SWIR1=B11, SWIR2=B12. Alternate mappings are
one-line edits there.

Arithmetic runs in float64 and is stored as float32. Pixels where a formula
is undefined (zero denominator, negative radicand) come out as NaN — never a
clamped stand-in value.

Note on RdNBR: the usual definition divides by sqrt(|NBR/1000|), written for
NBR scaled by 1000; applied to unscaled NBR in [-1, 1] it inflates magnitudes
by ~sqrt(1000). The formula is kept verbatim rather than second-guessed; see
README.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError
from .rasters import BandId, RasterPatch


class IndexKind(str, Enum):
    SAVI = "SAVI"
    NDVI = "NDVI"
    EVI = "EVI"
    NDWI = "NDWI"
    BAI = "BAI"
    NBR = "NBR"
    NBR2 = "NBR2"
    NBRPLUS = "NBRPLUS"
    MIRBI = "MIRBI"
    CSI = "CSI"
    BAIS2 = "BAIS2"
    NBI = "NBI"
    ABAI = "ABAI"
    RDNBR = "RDNBR"
    RBR = "RBR"

    @classmethod
    def parse(cls, name: str) -> "IndexKind":
        try:
            return cls(name.strip().upper().replace("+", "PLUS"))
        except ValueError:
            raise ConfigError(f"unknown spectral index {name!r}") from None


BITEMPORAL = (IndexKind.RDNBR, IndexKind.RBR)
UNITEMPORAL = tuple(k for k in IndexKind if k not in BITEMPORAL)

# Formula symbol -> Sentinel-2 band.
ROLE_BANDS: dict[str, BandId] = {
    "blue": BandId.B02,
    "green": BandId.B03,
    "red": BandId.B04,
    "red_edge": BandId.B06,
    "nir": BandId.B8A,
    "nir1": BandId.B07,
    "nir2": BandId.B8A,
    "swir": BandId.B12,
    "swir1": BandId.B11,
    "swir2": BandId.B12,
}


@dataclass
class ScalarField:
    """One float32 value per pixel; NaN where the source formula is undefined."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise DataError(f"scalar field must be 2-D, got shape {self.values.shape}")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _savi(nir, red):
    # Soil Adjusted Vegetation Index (Huete, 1988), L = 0.5.
    return 1.5 * (nir - red) / (nir + red + 0.5)


def _ndvi(nir, red):
    return (nir - red) / (nir + red)


def _evi(nir, red, blue):
    # Enhanced Vegetation Index (Huete et al., 2002), MODIS coefficients.
    return 2.5 * (nir - red) / (nir + 6.0 * red - 7.5 * blue + 1.0)


def _ndwi(green, nir):
    # Water index of McFeeters (1996).
    return (green - nir) / (green + nir)


def _bai(red, nir):
    # Burned Area Index (Chuvieco et al., 2002): reciprocal distance to the
    # char convergence point (0.1, 0.06) in the Red/NIR plane.
    return 1.0 / ((0.1 - red) ** 2 + (0.06 - nir) ** 2)


def _nbr(nir, swir):
    # Normalized Burn Ratio (Key & Benson, 1999).
    return (nir - swir) / (nir + swir)


def _nbr2(swir1, swir2):
    return (swir1 - swir2) / (swir1 + swir2)


def _nbrplus(swir, nir, green, blue):
    # NBR+ (Alcaras et al., 2022).
    return (swir - nir - green - blue) / (swir + nir + green + blue)


def _mirbi(swir1, swir2):
    # Mid-Infrared Burn Index (Trigg & Flasse, 2001); linear, always defined.
    return 10.0 * swir1 - 9.8 * swir2 + 2.0


def _csi(nir, swir):
    # Char Soil Index (Smith et al., 2005).
    return nir / swir


def _bais2(red_edge, nir1, nir2, red, swir):
    # Burned Area Index for Sentinel-2 (Filipponi, 2018).
    return (1.0 - np.sqrt(red_edge * nir1 * nir2 / red)) * (
        (swir - nir2) / np.sqrt(swir + nir2) + 1.0
    )


def _nbi(swir, blue):
    # Normalized Burn Index (Mpakairi et al., 2020).
    return (swir - blue) / (swir + blue)


def _abai(swir1, swir2, green):
    # Analytical Burnt Area Index (Wu et al., 2022).
    return (3.0 * swir1 - 2.0 * swir2 - 3.0 * green) / (
        3.0 * swir1 + 2.0 * swir2 + 3.0 * green
    )


_FORMULAS = {
    IndexKind.SAVI: (_savi, ("nir", "red")),
    IndexKind.NDVI: (_ndvi, ("nir", "red")),
    IndexKind.EVI: (_evi, ("nir", "red", "blue")),
    IndexKind.NDWI: (_ndwi, ("green", "nir")),
    IndexKind.BAI: (_bai, ("red", "nir")),
    IndexKind.NBR: (_nbr, ("nir", "swir")),
    IndexKind.NBR2: (_nbr2, ("swir1", "swir2")),
    IndexKind.NBRPLUS: (_nbrplus, ("swir", "nir", "green", "blue")),
    IndexKind.MIRBI: (_mirbi, ("swir1", "swir2")),
    IndexKind.CSI: (_csi, ("nir", "swir")),
    IndexKind.BAIS2: (_bais2, ("red_edge", "nir1", "nir2", "red", "swir")),
    IndexKind.NBI: (_nbi, ("swir", "blue")),
    IndexKind.ABAI: (_abai, ("swir1", "swir2", "green")),
}


def required_bands(kind: IndexKind) -> tuple[BandId, ...]:
    """Distinct bands a formula needs, in first-use order."""
    if kind in BITEMPORAL:
        roles = _FORMULAS[IndexKind.NBR][1]
    else:
        roles = _FORMULAS[kind][1]
    seen: list[BandId] = []
    for role in roles:
        band = ROLE_BANDS[role]
        if band not in seen:
            seen.append(band)
    return tuple(seen)


def _evaluate(kind: IndexKind, patch: RasterPatch) -> np.ndarray:
    """Raw float64 evaluation; may contain inf/NaN at singular pixels."""
    fn, roles = _FORMULAS[kind]
    planes = []
    for role in roles:
        band = ROLE_BANDS[role]
        if not patch.has_band(band):
            raise DataError(f"{kind.value} requires band {band.value} ({role})")
        planes.append(patch.band(band).astype(np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        return fn(*planes)


def _sanitize(values: np.ndarray) -> ScalarField:
    out = np.where(np.isfinite(values), values, np.nan)
    return ScalarField(out.astype(np.float32))


def compute_index(kind: IndexKind, patch: RasterPatch) -> ScalarField:
    """One unitemporal index on one patch."""
    if kind in BITEMPORAL:
        raise ConfigError(f"{kind.value} needs a pre/post pair; use compute_{kind.value.lower()}")
    return _sanitize(_evaluate(kind, patch))


def compute_delta(kind: IndexKind, pre: RasterPatch, post: RasterPatch) -> ScalarField:
    """dSI = SI_pre - SI_post; NaN propagates from either epoch."""
    if kind in BITEMPORAL:
        raise ConfigError(f"{kind.value} is not a differenced index")
    if pre.data.shape != post.data.shape:
        raise DataError(
            f"delta {kind.value}: pre {pre.data.shape} vs post {post.data.shape}"
        )
    with np.errstate(invalid="ignore"):  # inf - inf at pixels singular in both epochs
        out = _evaluate(kind, pre) - _evaluate(kind, post)
    return _sanitize(out)


def compute_rdnbr(pre: RasterPatch, post: RasterPatch) -> ScalarField:
    """Relative differenced NBR: (NBRpre - NBRpost)/sqrt(|NBRpre/1000|).

    NBRpre = 0 makes the denominator vanish -> NaN there.
    """
    nbr_pre = _evaluate(IndexKind.NBR, pre)
    nbr_post = _evaluate(IndexKind.NBR, post)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (nbr_pre - nbr_post) / np.sqrt(np.abs(nbr_pre / 1000.0))
    return _sanitize(out)


def compute_rbr(pre: RasterPatch, post: RasterPatch) -> ScalarField:
    """Relativized Burn Ratio: (NBRpre - NBRpost)/(NBRpre + 1.001)."""
    nbr_pre = _evaluate(IndexKind.NBR, pre)
    nbr_post = _evaluate(IndexKind.NBR, post)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (nbr_pre - nbr_post) / (nbr_pre + 1.001)
    return _sanitize(out)


def delta_field(kind: IndexKind, pre: RasterPatch, post: RasterPatch) -> ScalarField:
    """The bitemporal change field for any index kind.

    Differenced form for unitemporal indices, the index itself for RdNBR/RBR.
    """
    if kind is IndexKind.RDNBR:
        return compute_rdnbr(pre, post)
    if kind is IndexKind.RBR:
        return compute_rbr(pre, post)
    return compute_delta(kind, pre, post)
