"""Reference run splitter: the char loop that ``corpus._text_runs`` replaced.

``arfuture.corpus`` finds a page's text runs with one regex split, after
putting a NUL in place of each character outside its pattern's Unicode
blocks that ends a run.  This module keeps the earlier loop, which tests
every character with ``_is_run_char``, so tests can hold the split to it,
and the earlier form of the split's pattern, a repetition first, which
must match exactly where the split's does.
"""

from __future__ import annotations

from arfuture.corpus import _is_run_char, _run_ends

RUN_SPLIT = f"[{_run_ends()}]+|\n\n"


def text_runs(text: str) -> list[str]:
    """Maximal allowed-character runs; a blank line also ends a run."""
    runs: list[str] = []
    current: list[str] = []
    for ch in text:
        if not _is_run_char(ch):
            if current:
                runs.append("".join(current))
                current = []
            continue
        if ch == "\n" and current and current[-1] == "\n":
            runs.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        runs.append("".join(current))
    return runs
