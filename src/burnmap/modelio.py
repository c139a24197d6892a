"""Versioned binary container of named array blocks.

One format serves every model family (forest, perceptron, change-detection
network): a flat, ordered mapping from block names to dense arrays. Layout,
all little-endian:

    magic "NPB1" | u16 version | u32 block count
    per block: u16 name length | name UTF-8 | u8 dtype code | u8 ndim
               | u32 extents... | raw array payload

Free-form text travels as UTF-8 bytes in a uint8 block (see text_block /
block_text). Malformed input raises FormatError carrying the byte offset;
trailing bytes are rejected.

A record (a model file, or a patch sample: see patchio) is a container
whose first block, ``__meta__``, is text: ``kind=<kind>\n``, then one
``key=value\n`` line per metadata field, each value a non-negative integer
or comma-separated ones. ``record_blocks`` and ``read_record`` are the only
code that writes or parses it; ``save_model`` and ``load_model`` are their
file halves. Reading a damaged record raises FormatError; a well-formed
record of another kind raises DataError.
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .errors import ConfigError, DataError, FormatError

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
    try:
        return bytes(np.asarray(block, dtype=np.uint8)).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"text block is not UTF-8: {exc.reason} at byte {exc.start}") from None


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
    view = memoryview(blob)  # slices share the buffer: each payload is copied once
    pos = 0

    def need(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(
                f"truncated container: needed {n} bytes for {what}", offset=pos
            )
        piece = view[pos : pos + n]
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
            name = str(need(name_len, f"block {i} name"), "utf-8")
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


# -------------------------------------------------------------------- records

Model = TypeVar("Model")
Meta = dict[str, int | tuple[int, ...]]
Fields = dict[str, Callable[[str], object]]
_UINT = re.compile(r"[0-9]+")


def meta_int(text: str) -> int:
    """Meta value reader: a non-negative decimal integer."""
    if not _UINT.fullmatch(text):
        raise ValueError(text)
    return int(text)


def meta_ints(text: str) -> tuple[int, ...]:
    """Meta value reader: comma-separated non-negative decimal integers."""
    return tuple(meta_int(part) for part in text.split(","))


def _meta_value(value: int | tuple[int, ...]) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def record_blocks(kind: str, meta: Meta, blocks: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The blocks of a record: ``__meta__``, then ``blocks`` in order."""
    text = f"kind={kind}\n" + "".join(f"{key}={_meta_value(v)}\n" for key, v in meta.items())
    return {"__meta__": text_block(text), **blocks}


def save_model(path: str | Path, kind: str, meta: Meta, blocks: dict[str, np.ndarray]):
    """Write a model file: the record of ``kind``, ``meta`` and ``blocks``."""
    save_blocks(path, record_blocks(kind, meta, blocks))


class _RecordBlocks(dict):
    """The blocks of one record. Looking up a missing name raises
    FormatError, and every name looked up is removed from ``unread``."""

    def __init__(self, source: object, blocks: dict[str, np.ndarray]):
        super().__init__(blocks)
        self.source = source
        self.unread = set(blocks)

    def __getitem__(self, name: str) -> np.ndarray:
        self.unread.discard(name)
        return super().__getitem__(name)

    def __missing__(self, name: str):
        raise FormatError(f"{self.source}: no block {name!r}")


def read_record(
    blob: bytes, kind: str, fields: Fields, build: Callable[..., Model], source: object
) -> Model:
    """Parse a record of ``kind`` and return ``build(meta, blocks)``.

    ``meta`` maps each key of ``fields`` to its value as parsed by the
    field's reader (``meta_int``, ``meta_ints``). Raises DataError when the
    record holds another kind, and FormatError when it is damaged: a missing
    block, a meta text that is not UTF-8, a meta line without ``=``, a
    missing key or an unparsable value, a ConfigError raised by ``build``
    (stored config text or arrays that do not fit the model they describe),
    or a block that ``build`` never looks up. Messages start with ``source``.
    """
    blocks = _RecordBlocks(source, unpack_blocks(blob))
    raw: dict[str, str] = {}
    for line in block_text(blocks["__meta__"]).splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{source}: meta line {line!r} is not key=value")
        raw[key] = value
    if raw.get("kind", kind) != kind:  # another kind need not have this kind's keys
        raise DataError(f"{source} holds a {raw['kind']!r} model, not {kind!r}")
    for key in ("kind", *fields):
        if key not in raw:
            raise FormatError(f"{source}: meta has no {key!r}")
    meta = {}
    for key, read in fields.items():
        try:
            meta[key] = read(raw[key])
        except ValueError:
            raise FormatError(f"{source}: meta {key}={raw[key]!r} is unparsable") from None
    try:
        model = build(meta, blocks)
    except ConfigError as exc:
        raise FormatError(f"{source}: {exc}") from None
    if blocks.unread:
        raise FormatError(f"{source}: unexpected blocks {sorted(blocks.unread)}")
    return model


def load_model(path: str | Path, kind: str, fields: Fields, build: Callable[..., Model]) -> Model:
    """Read the model file at ``path``: ``read_record`` of its bytes."""
    return read_record(Path(path).read_bytes(), kind, fields, build, path)
