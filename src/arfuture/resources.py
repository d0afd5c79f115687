"""Reading input files, and locating and loading the bundled data files.

``parse_file`` is the one place a file is read: every input (corpus files,
URL lists, config, rules, variables, semantic map and lexicon word lists)
is decoded as UTF-8 there, and each error it lets through names the file,
plus the line when the fault has one.  ``parse_lines`` reads the inputs
that grow with the corpus (gold and annotation dumps) a line at a time,
and fails as ``parse_file`` does.  ``write_file`` is the one place a whole
output file is written: corpus files, report pages and the ``eval``
report.

The ``SLCSAS_DATA_DIR`` environment variable points the whole toolchain at
an alternative data directory (same file names) without code changes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, TextIO, TypeVar

from .engine import Engine
from .morpho import Lexicons
from .rules import parse_rules, parse_semantic_map, parse_variable_defs
from .segment import DEFAULT_BOUNDARIES

DATA_DIR_ENV = "SLCSAS_DATA_DIR"

RULES_FILE = "rules_future_ar.txt"
VARIABLES_FILE = "variables_ar.txt"
SEMANTIC_MAP_FILE = "semantic_map.txt"

T = TypeVar("T")


def parse_file(path: str | Path, parse: Callable[[str], T]) -> T:
    """``parse`` applied to the text of a UTF-8 file.

    A byte that is not UTF-8 fails as ``ValueError("<path>: line N: ...")``;
    a ``ValueError`` from ``parse`` is raised again as the same type, its
    message prefixed with ``<path>: ``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start]  # "\r\n", "\r" and "\n" each end a line
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}: line {line}: {exc}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def parse_lines(path: str | Path, parse: Callable[[TextIO], T]) -> T:
    """``parse`` applied to a UTF-8 file opened in text mode, whose lines
    end as ``Path.read_text`` ends them ("\\n", "\\r\\n" or a lone "\\r",
    each read as "\\n"), so that it can hold one line at a time.

    The errors are those of ``parse_file``: on any ``ValueError`` the file
    is decoded whole once more, so that a byte that is not UTF-8, anywhere
    in it, fails first and names its line.
    """
    try:
        with open(path, encoding="utf-8") as file:
            return parse(file)
    except ValueError as exc:
        parse_file(path, len)
        raise type(exc)(f"{path}: {exc}") from None


#: open for writing, creating a missing file but never truncating one
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its "\\n" line ends as they are.

    The text is encoded before the file is opened, so a text that cannot
    be (it holds a lone surrogate) fails as ``ValueError("<path>: ...")``
    and leaves the file as it was.  A missing file is created with the mode
    ``open(path, "w")`` gives it.  An existing one is rewritten in place,
    and cut to the new length only when it was longer: on ext4 a file
    truncated to zero is flushed when it is closed (``auto_da_alloc``),
    and that flush made each rewritten file cost 65-80 us more.  So a run
    killed mid-write leaves the file partly rewritten, and after a power
    loss a rewritten file may hold old or mixed bytes.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        done = os.write(fd, data)
        while done < len(data):
            done += os.write(fd, data[done:])
        if os.lseek(fd, 0, os.SEEK_END) > done:
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


def data_dir() -> Path:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def _word_list(text: str) -> set[str]:
    """One word per line; ``#`` starts a comment."""
    return {word for word in (line.split("#", 1)[0].strip() for line in text.split("\n"))
            if word}


def load_lexicons(*directories: str | Path) -> Lexicons:
    """The union of the lexicon word lists found in each directory.

    A directory may hold ``present_verbs.txt``, ``past_verbs.txt``,
    ``proper_nouns.txt`` and ``qad_exclusions.txt``; a missing file adds
    nothing.  A word that ends up both a present verb and a proper noun
    fails naming the directories.
    """
    words: dict[str, set[str]] = {name: set() for name in Lexicons._fields}
    for directory in directories:
        for name, found in words.items():
            path = Path(directory) / f"{name}.txt"
            if path.exists():
                found |= parse_file(path, _word_list)
    try:
        return Lexicons(**{name: frozenset(found) for name, found in words.items()})
    except ValueError as exc:
        raise ValueError(f"{', '.join(map(str, directories))}: {exc}") from None


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
    variables = parse_file(variables_path or base / VARIABLES_FILE, parse_variable_defs)
    semantic_map = parse_file(semantic_map_path or base / SEMANTIC_MAP_FILE, parse_semantic_map)
    ruleset = parse_file(
        rules_path or base / RULES_FILE,
        lambda text: parse_rules(text, variables, semantic_map),
    )
    lexicons = load_lexicons(base) if lexicon_dir is None else load_lexicons(base, lexicon_dir)
    return Engine(
        ruleset,
        lexicons,
        boundaries=boundaries,
        punct_transparent=punct_transparent,
    )
