"""Flat ``key=value`` text of run configs and of the records the package
writes (checkpoint config, threshold model). No sections, no nesting, no
quoting; ``#`` starts a comment. ``parse_config_text`` is the one parser.

Each consumer declares its keys once, in a table of key -> reader
``read(config, key)`` (see ``reader``), which raises ConfigError naming the
key when it is missing, does not parse or is out of range. A command's
``read_fields`` rejects keys outside its table, so a typo never falls back to
a default. A config dataclass checks its values through the same table
(``check_values``), so a key's range lives in its reader alone.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError, read_text
from .rasters import BandId


def parse_config_text(text: str) -> dict[str, str]:
    """Key/value pairs in file order. Duplicate keys are an error."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_config(path: str | Path) -> dict[str, str]:
    try:
        text = read_text(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def check_keys(config: dict[str, str], allowed: set[str], command: str):
    """Reject unknown keys, naming them and the keys that are accepted."""
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise ConfigError(
            f"{command}: unknown config keys {unknown}; allowed: {sorted(allowed)}"
        )


def read_fields(config: dict[str, str], readers: dict, command: str, required=()) -> dict:
    """``config`` read through ``readers`` (key -> reader), rejecting other
    keys. Holds the keys given plus ``required`` ones (absent ones raise)."""
    check_keys(config, set(readers), command)
    wanted = set(config) | set(required)
    return {key: read(config, key) for key, read in readers.items() if key in wanted}


def format_fields(record, fields: dict) -> str:
    """One ``key=value`` line per field of ``fields`` (key -> (reader, formatter))."""
    return "".join(f"{key}={fmt(getattr(record, key))}\n" for key, (_, fmt) in fields.items())


def parse_fields(text: str, fields: dict) -> dict:
    """Inverse of ``format_fields``: every key of ``fields``, read by its reader."""
    config = parse_config_text(text)
    return {key: read(config, key) for key, (read, _) in fields.items()}


def check_values(record, fields: dict) -> dict:
    """``record``'s fields read back from their text form, so a value that its
    reader refuses raises the ConfigError a config file or checkpoint would."""
    return parse_fields(format_fields(record, fields), fields)


def get_str(config: dict[str, str], key: str) -> str:
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    return config[key]


def reader(parse, expected: str, accept=lambda value: True):
    """Reader of ``parse(value)``. A value that ``parse`` rejects with
    ValueError, or whose result ``accept`` refuses, is a ConfigError naming
    the key and the ``expected`` form."""

    def read(config: dict[str, str], key: str):
        value = get_str(config, key)
        try:
            result = parse(value)
            if accept(result):
                return result
        except ValueError:
            pass
        raise ConfigError(f"config key {key!r}: expected {expected}, got {value!r}")

    return read


def int_list(value: str) -> tuple[int, ...]:
    return tuple(int(part) for part in value.split(","))


def band_list(value: str) -> tuple[BandId, ...]:
    return tuple(BandId(part) for part in value.split(","))


get_int = reader(int, "an integer")
get_float = reader(float, "a number")
positive_ints = reader(int_list, "comma-separated positive integers", lambda v: min(v) >= 1)
get_bands = reader(band_list, "comma-separated distinct band names", lambda v: len(set(v)) == len(v))
positive_float = reader(float, "a finite number > 0", lambda v: 0 < v < math.inf)
nonnegative_float = reader(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)
fraction = reader(float, "a number in [0, 1]", lambda v: 0 <= v <= 1)


def one_of(*choices: str):
    return reader(str, f"one of {choices}", lambda v: v in choices)


def int_at_least(lo: int):
    return reader(int, f"an integer >= {lo}", lambda v: v >= lo)


def int_in(lo: int, hi: int):
    return reader(int, f"an integer in [{lo}, {hi}]", lambda v: lo <= v <= hi)
