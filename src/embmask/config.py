"""Strict flat key/value configuration files.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
allowed. Parsing is strict -- unknown keys, duplicate keys, and uncoercible
values all fail loudly with the offending line. ``seed`` is mandatory in
every file; runs are never seeded from the clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import ConfigError


@dataclass
class Field:
    type: type  # int, float, bool, str
    default: Any = None
    required: bool = False


def parse_kv_text(text: str) -> dict[str, tuple[str, int]]:
    """Raw key -> (value, line number). Syntax errors carry line/column."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            col = len(raw) - len(raw.lstrip()) + 1
            raise ConfigError(f"line {lineno}, col {col}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}, col 1: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def _coerce(key: str, raw: str, typ: type, lineno: int) -> Any:
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None


def build_config(
    schema: dict[str, Field],
    raw: dict[str, tuple[str, int]],
    overrides: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Validate raw keys against the schema and apply CLI overrides."""
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        merged[key] = (value, 0)  # line 0 marks a CLI override

    unknown = [k for k in merged if k not in schema]
    if unknown:
        lines = {k: merged[k][1] for k in unknown}
        raise ConfigError(f"unknown keys (key: line): {lines}")

    out: dict[str, Any] = {}
    for key, spec in schema.items():
        if key in merged:
            value, lineno = merged[key]
            out[key] = _coerce(key, value, spec.type, lineno)
        elif spec.required:
            raise ConfigError(f"missing required key {key!r}")
        else:
            out[key] = spec.default
    return out


def load_config(
    path: str, schema: dict[str, Field], overrides: dict[str, str] | None = None
) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from None
    return build_config(schema, parse_kv_text(text), overrides)


def parse_grid(raw: str) -> list[float]:
    """Comma-separated percents in [0, 100] including 0, e.g. '0,5,10';
    '-0' reads as 0.0."""
    try:
        grid = [float(tok) + 0.0 for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {raw!r}: {exc}") from None
    if 0.0 not in grid or not all(0.0 <= p <= 100.0 for p in grid):
        raise ConfigError(f"bad grid {raw!r}: percents must lie in [0, 100] and include 0")
    return grid


def parse_hidden(raw: str) -> list[int]:
    """Comma-separated hidden sizes >= 1; empty string means no hidden layers."""
    raw = raw.strip()
    if not raw:
        return []
    try:
        sizes = [int(tok) for tok in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad hidden sizes {raw!r}: {exc}") from None
    if min(sizes) < 1:
        raise ConfigError(f"bad hidden sizes {raw!r}: each must be >= 1")
    return sizes
