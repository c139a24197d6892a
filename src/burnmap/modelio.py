"""Versioned binary container of named array blocks.

One format serves every model family (forest, perceptron, change-detection
network): a flat, ordered mapping from block names to dense arrays. Layout,
all little-endian:

    magic "NPB1" | u16 version | u32 block count
    per block: u16 name length | name UTF-8 | u8 dtype code | u8 ndim
               | u32 extents... | raw array payload

Free-form metadata travels as UTF-8 bytes in a uint8 block (see text_block /
block_text). Malformed input raises FormatError carrying the byte offset;
trailing bytes are rejected.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"NPB1"
VERSION = 1

_DTYPES: dict[int, np.dtype] = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("u1"),
    3: np.dtype("<i4"),
    4: np.dtype("<i8"),
}
_CODES = {dt: code for code, dt in _DTYPES.items()}


def text_block(text: str) -> np.ndarray:
    """Encode free-form text as a storable uint8 block."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def block_text(block: np.ndarray) -> str:
    return bytes(np.asarray(block, dtype=np.uint8)).decode("utf-8")


def pack_blocks(blocks: dict[str, np.ndarray]) -> bytes:
    out = [MAGIC, struct.pack("<HI", VERSION, len(blocks))]
    for name, array in blocks.items():
        raw = name.encode("utf-8")
        if not raw or len(raw) > 0xFFFF:
            raise FormatError(f"block name {name!r} must encode to 1..65535 bytes")
        arr = np.asarray(array)  # tobytes() below always emits C order
        dt = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
        code = _CODES.get(np.dtype(dt))
        if code is None:
            raise FormatError(f"block {name!r}: unsupported dtype {array.dtype}")
        if arr.ndim > 0xFF:
            raise FormatError(f"block {name!r}: too many dimensions ({arr.ndim})")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(struct.pack("<BB", code, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.astype(_DTYPES[code], copy=False).tobytes())
    return b"".join(out)


def unpack_blocks(blob: bytes) -> dict[str, np.ndarray]:
    pos = 0

    def need(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(
                f"truncated container: needed {n} bytes for {what}", offset=pos
            )
        piece = blob[pos : pos + n]
        pos += n
        return piece

    if need(4, "magic") != MAGIC:
        raise FormatError("bad magic: not a parameter-block container", offset=0)
    version, count = struct.unpack("<HI", need(6, "header"))
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}", offset=4)

    blocks: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", need(2, f"block {i} name length"))
        name_at = pos
        try:
            name = need(name_len, f"block {i} name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"block {i} name is not UTF-8", offset=name_at) from exc
        code_at = pos
        code, ndim = struct.unpack("<BB", need(2, f"block {name!r} dtype/ndim"))
        dtype = _DTYPES.get(code)
        if dtype is None:
            raise FormatError(f"block {name!r}: unknown dtype code {code}", offset=code_at)
        shape = struct.unpack(f"<{ndim}I", need(4 * ndim, f"block {name!r} shape"))
        n_items = math.prod(shape)  # exact: np.prod would wrap on corrupted extents
        payload = need(n_items * dtype.itemsize, f"block {name!r} payload")
        if name in blocks:
            raise FormatError(f"duplicate block name {name!r}", offset=name_at)
        try:
            blocks[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:  # more dimensions than numpy supports
            raise FormatError(f"block {name!r}: {exc}", offset=code_at) from exc
    if pos != len(blob):
        raise FormatError(
            f"{len(blob) - pos} trailing bytes after the last block", offset=pos
        )
    return blocks


def save_blocks(path: str | Path, blocks: dict[str, np.ndarray]):
    Path(path).write_bytes(pack_blocks(blocks))


def load_blocks(path: str | Path) -> dict[str, np.ndarray]:
    return unpack_blocks(Path(path).read_bytes())
