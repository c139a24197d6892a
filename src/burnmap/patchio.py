"""One bitemporal patch sample as a kind-``patch`` NPB record (see modelio).

Blocks, in order:

    __meta__   kind=patch, split=<index into rasters.SPLITS>
    bands      text: the band names, comma-separated
    event_id   text: the event id as raw UTF-8 (no key=value, so ``#`` stays)
    pre, post  float32 (bands, P, P)
    truth      uint8 (P, P)
    water      uint8 (P, P), only when the sample has a water mask

A damaged record (a container fault, a missing or unexpected block, a wrong
dtype or shape, an unknown band or split) raises FormatError. A record of
another kind, non-finite reflectance or a truth or water value other than
0/1 raises DataError.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError
from .modelio import block_text, meta_int, pack_blocks, read_record, record_blocks, text_block
from .rasters import BandId, BitemporalSample, GroundTruthMask, RasterPatch, SPLITS


def _split(text: str) -> str:
    code = meta_int(text)
    if code >= len(SPLITS):
        raise ValueError(text)
    return SPLITS[code]


def _array(blocks, name: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
    arr = blocks[name]
    if arr.dtype != dtype or arr.shape != shape:
        raise FormatError(
            f"block {name!r} is {arr.dtype} {arr.shape}, expected {np.dtype(dtype)} {shape}"
        )
    return arr


def _sample(meta: dict, blocks) -> BitemporalSample:
    names = block_text(blocks["bands"]).split(",")
    try:
        bands = tuple(map(BandId, names))
    except ValueError:
        raise FormatError(f"unknown band in {names}") from None
    plane = blocks["pre"].shape[-2:]
    pre, post = (_array(blocks, n, np.float32, (len(bands), *plane)) for n in ("pre", "post"))
    truth = GroundTruthMask(_array(blocks, "truth", np.uint8, plane))
    water = _array(blocks, "water", np.uint8, plane) if "water" in blocks else None
    event_id = block_text(blocks["event_id"])
    return BitemporalSample(
        RasterPatch(bands, pre), RasterPatch(bands, post), truth, water, event_id, meta["split"]
    )


def write_sample(sample: BitemporalSample) -> bytes:
    """Serialize one sample to the bytes of its patch record."""
    blocks = {
        "bands": text_block(",".join(b.value for b in sample.pre.bands)),
        "event_id": text_block(sample.event_id),
        "pre": sample.pre.data,
        "post": sample.post.data,
        "truth": sample.truth.labels,
    }
    if sample.water is not None:
        blocks["water"] = sample.water
    meta = {"split": SPLITS.index(sample.split)}
    return pack_blocks(record_blocks("patch", meta, blocks))


def read_sample(blob: bytes) -> BitemporalSample:
    """Parse a patch record back into a sample. Inverse of write_sample."""
    return read_record(blob, "patch", {"split": _split}, _sample, "patch record")


def save_sample(sample: BitemporalSample, path: str | Path):
    Path(path).write_bytes(write_sample(sample))


def load_sample(path: str | Path) -> BitemporalSample:
    return read_sample(Path(path).read_bytes())
