"""Run-configuration files: flat ``key=value`` lines, ``#`` comments.

No sections, no nesting, no quoting — values are taken verbatim after the
first ``=``. Each command declares its allowed keys and rejects anything
else, so a typo never silently falls back to a default.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError, read_text

_MISSING = object()


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


def get_str(config: dict[str, str], key: str, default=_MISSING) -> str:
    if key in config:
        return config[key]
    if default is _MISSING:
        raise ConfigError(f"config is missing required key {key!r}")
    return default


def get_int(config: dict[str, str], key: str, default=_MISSING) -> int:
    value = get_str(config, key, default)
    if isinstance(value, int) or value is None:
        return value
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}") from None


def get_float(config: dict[str, str], key: str, default=_MISSING) -> float:
    value = get_str(config, key, default)
    if isinstance(value, (int, float)) or value is None:
        return value
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {value!r}") from None


def get_choice(config: dict[str, str], key: str, choices: tuple[str, ...], default=_MISSING) -> str:
    value = get_str(config, key, default)
    if value is not None and value not in choices:
        raise ConfigError(f"config key {key!r}: expected one of {choices}, got {value!r}")
    return value


def get_int_tuple(config: dict[str, str], key: str, default=_MISSING) -> tuple[int, ...]:
    value = get_str(config, key, default)
    if value is None or isinstance(value, tuple):
        return value
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: expected comma-separated integers, got {value!r}"
        ) from None
