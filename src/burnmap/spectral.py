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


def _evaluate(kind: IndexKind, patch: RasterPatch) -> np.ndarray:
    """Raw float64 evaluation; may contain inf/NaN at singular pixels."""
    if kind in BITEMPORAL:
        raise ConfigError(f"{kind.value} needs a pre/post pair; use delta_field")
    fn, roles = _FORMULAS[kind]
    planes = []
    for role in roles:
        band = ROLE_BANDS[role]
        if not patch.has_band(band):
            raise DataError(f"{kind.value} requires band {band.value} ({role})")
        planes.append(patch.band(band).astype(np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        return fn(*planes)


def _sanitize(values: np.ndarray) -> np.ndarray:
    """float32 copy of a 2-D raw plane, NaN wherever it is not finite."""
    return np.where(np.isfinite(values), values, np.nan).astype(np.float32)


class IndexPlanes:
    """The index and change fields of one pre/post patch pair.

    Every raw float64 (epoch, index) plane is evaluated at most once and
    shared by all the fields built on it: dNBR, RdNBR, RBR and the pre/post
    NBR features of one sample cost two NBR evaluations, not eight.
    """

    def __init__(self, pre: RasterPatch, post: RasterPatch):
        if pre.data.shape != post.data.shape:
            raise DataError(
                f"delta fields need equal shapes: pre {pre.data.shape} vs post {post.data.shape}"
            )
        self._patches = {"pre": pre, "post": post}
        self._raw: dict[tuple[str, IndexKind], np.ndarray] = {}

    def _plane(self, epoch: str, kind: IndexKind) -> np.ndarray:
        key = (epoch, kind)
        if key not in self._raw:
            self._raw[key] = _evaluate(kind, self._patches[epoch])
        return self._raw[key]

    def index(self, epoch: str, kind: IndexKind) -> np.ndarray:
        """One unitemporal index in one epoch, ``"pre"`` or ``"post"``."""
        return _sanitize(self._plane(epoch, kind))

    def change(self, kind: IndexKind) -> np.ndarray:
        """dSI = SI_pre - SI_post for a unitemporal index; NaN propagates
        from either epoch. From the NBR pair: RdNBR =
        (NBRpre - NBRpost) / sqrt(|NBRpre / 1000|), NaN where NBRpre = 0,
        and RBR = (NBRpre - NBRpost) / (NBRpre + 1.001)."""
        source = IndexKind.NBR if kind in BITEMPORAL else kind
        pre, post = self._plane("pre", source), self._plane("post", source)
        # inf - inf at pixels singular in both epochs; RdNBR's zero denominator.
        with np.errstate(divide="ignore", invalid="ignore"):
            if kind is IndexKind.RDNBR:
                out = (pre - post) / np.sqrt(np.abs(pre / 1000.0))
            elif kind is IndexKind.RBR:
                out = (pre - post) / (pre + 1.001)
            else:
                out = pre - post
        return _sanitize(out)


def compute_index(kind: IndexKind, patch: RasterPatch) -> np.ndarray:
    """One unitemporal index on one patch."""
    return _sanitize(_evaluate(kind, patch))


def delta_field(kind: IndexKind, pre: RasterPatch, post: RasterPatch) -> np.ndarray:
    """The bitemporal change field for any index kind.

    Differenced form for unitemporal indices, the index itself for RdNBR/RBR.
    """
    return IndexPlanes(pre, post).change(kind)
