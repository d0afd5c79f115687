"""Shared run configuration for the command-line pipeline.

The config file is a flat ``key = value`` text file; command-line flags
override file values.  ``SETTINGS`` is the one list of keys, each a
``Config`` field: a flag stores its text under its key, and the key's
parser reads that text as it reads a config line's value.  Any other key,
or a value of the wrong type, is an error that names the file and line;
a path that does not exist names the file.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import DEFAULT_MIN_RUN_CHARS
from .resources import parse_file
from .segment import DEFAULT_BOUNDARIES

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}
_PATH_KEYS = ("lexicon_dir", "rules_path", "variables_path", "semantic_map_path")


class ConfigError(ValueError):
    """Bad key, value or path in a configuration source."""


class Config:
    """Each ``SETTINGS`` key; one not set on the instance has its class default."""

    min_run_chars: int = DEFAULT_MIN_RUN_CHARS
    boundaries: frozenset[str] = DEFAULT_BOUNDARIES
    strict_adjacency: bool = False
    lexicon_dir: Path | None = None
    rules_path: Path | None = None
    variables_path: Path | None = None
    semantic_map_path: Path | None = None
    show_all_negative_fields: bool = False

    def __eq__(self, other: object) -> bool:
        same = type(other) is Config
        return same and all(getattr(self, key) == getattr(other, key) for key in SETTINGS)

    def validate(self) -> "Config":
        if self.min_run_chars < 1:
            raise ConfigError("min_run_chars must be >= 1")
        for name in _PATH_KEYS:
            value = getattr(self, name)
            if value is not None and not Path(value).exists():
                raise ConfigError(f"{name} does not exist: {value}")
        return self


def parse_boundaries(spec: str) -> frozenset[str]:
    names = frozenset(n.strip() for n in spec.split(",") if n.strip())
    bad = names - DEFAULT_BOUNDARIES
    if bad:
        raise ConfigError(f"unknown boundary trigger(s): {', '.join(sorted(bad))}")
    return names


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ConfigError(f"bad boolean for {key}: {value!r}")


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"bad integer for {key}: {value!r}") from None


def _parse_path(value: str, key: str) -> Path:
    if not value:  # Path("") would be the working directory
        raise ConfigError(f"empty path for {key}")
    return Path(value)


#: config key -> parser of its text (given the text and the key)
SETTINGS = {
    "min_run_chars": _parse_int,
    "boundaries": lambda value, key: parse_boundaries(value),
    "strict_adjacency": _parse_bool,
    "show_all_negative_fields": _parse_bool,
    **dict.fromkeys(_PATH_KEYS, _parse_path),
}


def parse_config(text: str) -> Config:
    """Parse flat key=value config text; a bad line fails naming its number."""
    cfg = Config()
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ConfigError("expected key = value")
            if key not in SETTINGS:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, SETTINGS[key](value, key))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return cfg.validate()


def load_config(path: str | Path) -> Config:
    """Read a flat key=value config file."""
    return parse_file(path, parse_config)
