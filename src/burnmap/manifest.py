"""Dataset manifest: a small CSV inventory pointing at patch record files
(``patches/<event id>.npb``, see patchio).

Format: UTF-8 text, ``#`` comment lines carrying dataset-level settings
(``# patch_size=64``, ``# clip_max=1.0``), then a header row and one row per
patch::

    event_id,split,path,positive_pixels

``path`` is relative to the manifest's own directory so a dataset directory
can be moved wholesale.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, read_text
from .patchio import load_sample, save_sample
from .rasters import SPLITS, BitemporalSample

MANIFEST_NAME = "manifest.csv"
_HEADER = "event_id,split,path,positive_pixels"


@dataclass
class ManifestEntry:
    event_id: str
    split: str
    path: str
    positive_pixels: int

    def is_positive(self) -> bool:
        """The row's record has burnt pixels (``load_entry`` checks the count)."""
        return self.positive_pixels > 0


@dataclass
class DatasetManifest:
    patch_size: int
    clip_max: float
    entries: list[ManifestEntry] = field(default_factory=list)
    root: Path = Path(".")

    def by_split(self, split: str) -> list[ManifestEntry]:
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}")
        return [e for e in self.entries if e.split == split]


def _entry_filename(event_id: str) -> str:
    safe = event_id.replace("/", "_").replace("\\", "_")
    return f"patches/{safe}.npb"


def save_dataset(
    samples: Iterable[BitemporalSample],
    out_dir: str | Path,
    clip_max: float = 1.0,
) -> DatasetManifest:
    """Write each sample as a patch record file as it arrives, then the
    manifest that indexes them, so a generator of samples is held one patch
    at a time. An empty input is refused before ``out_dir`` is created. A
    sample whose size differs from the first's, or whose event id repeats,
    raises DataError once the earlier patches are written; the manifest,
    written last, is then missing."""
    samples = iter(samples)
    first = next(samples, None)
    if first is None:
        raise DataError("refusing to write an empty dataset")
    out_dir = Path(out_dir)
    (out_dir / "patches").mkdir(parents=True, exist_ok=True)
    size = first.height
    manifest = DatasetManifest(patch_size=size, clip_max=clip_max, root=out_dir)
    seen: set[str] = set()
    for s in itertools.chain([first], samples):
        if s.height != size or s.width != size:
            raise DataError(f"mixed patch sizes {sorted({size, s.height, s.width})} in one dataset")
        if s.event_id in seen:
            raise DataError(f"duplicate event id {s.event_id!r}")
        seen.add(s.event_id)
        rel = _entry_filename(s.event_id)
        save_sample(s, out_dir / rel)
        manifest.entries.append(
            ManifestEntry(s.event_id, s.split, rel, s.truth.positive_pixels())
        )
    write_manifest(manifest, out_dir / MANIFEST_NAME)
    return manifest


def write_manifest(manifest: DatasetManifest, path: str | Path):
    lines = [
        f"# patch_size={manifest.patch_size}",
        f"# clip_max={manifest.clip_max!r}",
        _HEADER,
    ]
    for e in manifest.entries:
        if "," in e.event_id or "," in e.path:
            raise DataError(f"comma in manifest field: {e.event_id!r} / {e.path!r}")
        lines.append(f"{e.event_id},{e.split},{e.path},{e.positive_pixels}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    settings: dict[str, str] = {}
    entries: list[ManifestEntry] = []
    saw_header = False
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                settings[key.strip()] = value.strip()
            continue
        if not saw_header:
            if line != _HEADER:
                raise DataError(f"{path}:{lineno}: expected header {_HEADER!r}, got {line!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        event_id, split, rel, pos = (p.strip() for p in parts)
        if split not in SPLITS:
            raise DataError(f"{path}:{lineno}: unknown split {split!r}")
        try:
            positive = int(pos)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad positive_pixels {pos!r}") from None
        entries.append(ManifestEntry(event_id, split, rel, positive))
    if not saw_header:
        raise DataError(f"{path}: missing header row")
    for key in ("patch_size", "clip_max"):
        if key not in settings:
            raise DataError(f"{path}: missing '# {key}=' setting line")
    try:
        patch_size = int(settings["patch_size"])
        clip_max = float(settings["clip_max"])
    except ValueError as exc:
        raise DataError(f"{path}: bad setting value ({exc})") from None
    ids = [e.event_id for e in entries]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate event ids")
    return DatasetManifest(
        patch_size=patch_size, clip_max=clip_max, entries=entries, root=path.parent
    )


def load_entry(manifest: DatasetManifest, entry: ManifestEntry) -> BitemporalSample:
    """The entry's sample; a damaged or invalid patch file, or one whose
    event id, split or burnt-pixel count is not the row's, raises its
    DataError or FormatError with a message that starts with the file's path.
    ``read_manifest`` strips the row's fields, so the event ids are compared
    stripped."""
    try:
        sample = load_sample(manifest.root / entry.path)
    except DataError as exc:
        exc.args = (f"{entry.path}: {exc}",)
        raise
    if sample.height != manifest.patch_size:
        raise DataError(
            f"{entry.path}: patch size {sample.height} != manifest {manifest.patch_size}"
        )
    row = (entry.event_id, entry.split, entry.positive_pixels)
    record = (sample.event_id.strip(), sample.split, sample.truth.positive_pixels())
    if record != row:
        raise DataError(
            f"{entry.path}: record is event {record[0]!r}, split {record[1]!r} with "
            f"{record[2]} burnt pixels, but the manifest row says {row[0]!r}, {row[1]!r}, {row[2]}"
        )
    return sample


def iter_split(manifest: DatasetManifest, split: str) -> Iterator[BitemporalSample]:
    """The split's samples in manifest order, each loaded (``load_entry``)
    only when the caller asks for it."""
    return (load_entry(manifest, e) for e in manifest.by_split(split))


def load_split(manifest: DatasetManifest, split: str) -> list[BitemporalSample]:
    return list(iter_split(manifest, split))
