"""Locating and loading the bundled data files.

The ``SLCSAS_DATA_DIR`` environment variable points the whole toolchain at
an alternative data directory (same file names) without code changes.
"""

from __future__ import annotations

import os
from importlib import resources as importlib_resources
from pathlib import Path

from .engine import Engine
from .morpho import Lexicons, load_lexicons, merge_lexicons
from .rules import parse_rules, parse_semantic_map, parse_variable_defs
from .segment import DEFAULT_BOUNDARIES

DATA_DIR_ENV = "SLCSAS_DATA_DIR"

RULES_FILE = "rules_future_ar.txt"
VARIABLES_FILE = "variables_ar.txt"
SEMANTIC_MAP_FILE = "semantic_map.txt"


def data_dir() -> Path:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(str(importlib_resources.files("arfuture").joinpath("data")))


def load_engine(
    rules_path: str | Path | None = None,
    variables_path: str | Path | None = None,
    semantic_map_path: str | Path | None = None,
    lexicon_dir: str | Path | None = None,
    *,
    boundaries: frozenset[str] = DEFAULT_BOUNDARIES,
    punct_transparent: bool = True,
) -> Engine:
    """Build an Engine, falling back to the bundled data for missing paths.

    An explicit ``lexicon_dir`` extends (not replaces) the bundled lexicons.
    """
    base = data_dir()

    def read(path: str | Path | None, default: str) -> str:
        return Path(path or base / default).read_text(encoding="utf-8")

    variables = parse_variable_defs(read(variables_path, VARIABLES_FILE))
    semantic_map = parse_semantic_map(read(semantic_map_path, SEMANTIC_MAP_FILE))
    ruleset = parse_rules(read(rules_path, RULES_FILE), variables, semantic_map)
    lexicons: Lexicons = load_lexicons(base)
    if lexicon_dir is not None:
        lexicons = merge_lexicons(lexicons, load_lexicons(lexicon_dir))
    return Engine(
        ruleset,
        lexicons,
        boundaries=boundaries,
        punct_transparent=punct_transparent,
    )
