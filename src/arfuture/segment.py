"""Sentence segmentation and tokenization for Arabic news prose.

Segmentation is typographic: a sentence ends after a period, Arabic
question mark or exclamation mark when followed by whitespace (or end of
text), and at newlines.  Each trigger can be switched off individually;
with only ``dot-space`` enabled the splitter degrades to the bare
period-plus-space heuristic.

Both passes walk their text once and keep a running UTF-8 byte offset,
adding the encoded length of each run they step over, so every span is a
byte span without a per-string offset table.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

# Arabic harakat stripped from matching shadows (kept in the written text).
HARAKAT = frozenset("ًٌٍَُِّْ")
TATWEEL = "ـ"
_SHADOW_DROP = dict.fromkeys(map(ord, HARAKAT | {TATWEEL}))

#: names of the individual boundary triggers
BOUNDARY_DOT = "dot-space"
BOUNDARY_QMARK = "arabic-qmark"
BOUNDARY_EXCLAM = "exclam"
BOUNDARY_NEWLINE = "newline"

DEFAULT_BOUNDARIES = frozenset(
    {BOUNDARY_DOT, BOUNDARY_QMARK, BOUNDARY_EXCLAM, BOUNDARY_NEWLINE}
)

_TRIGGER_CHARS = {BOUNDARY_DOT: ".", BOUNDARY_QMARK: "؟", BOUNDARY_EXCLAM: "!"}
_CHUNK = re.compile(r"(\s*)(\S+)")


class TokenKind(Enum):
    WORD = "word"
    PUNCT = "punct"
    DIGIT = "digit"


@dataclass(frozen=True)
class Sentence:
    """One segmented sentence; ``span`` is a byte span into the body."""

    doc_id: str
    index: int
    span: tuple[int, int]
    text: str


class Token(NamedTuple):
    """One token; ``span`` is a byte span into the sentence text.

    ``shadow`` is the written run without tatweel and harakat, the string
    patterns are matched against; digit and punctuation runs are their own
    shadow.  The span covers the whole written run, tatweel and harakat
    included, so a highlighted token shows the word as written.

    A sentence has one token per word, so a token is a ``NamedTuple``,
    built positionally at a fraction of a dataclass's cost.
    """

    span: tuple[int, int]
    kind: TokenKind
    shadow: str


def _is_word_char(ch: str) -> bool:
    return ch.isalpha() or ch in HARAKAT


@functools.lru_cache(maxsize=16)  # one entry per subset of the four triggers
def _cut_pattern(boundaries: frozenset[str]) -> re.Pattern[str]:
    """Cuts between sentences: an empty match after each enabled trigger
    that whitespace or the end of text follows, and each newline (dropped
    from both sides) when ``newline`` is enabled."""
    triggers = "".join(ch for name, ch in _TRIGGER_CHARS.items() if name in boundaries)
    cuts = [rf"(?<=[{triggers}])(?=\s|\Z)"] if triggers else []
    if BOUNDARY_NEWLINE in boundaries:
        cuts.append("\n")
    return re.compile("|".join(cuts) or "(?!)")


def segment(
    body: str,
    doc_id: str = "",
    boundaries: frozenset[str] = DEFAULT_BOUNDARIES,
) -> list[Sentence]:
    """Split a document body into sentences.

    Boundary characters stay inside the preceding sentence; whitespace-only
    candidates are dropped.  Spans are tight (no surrounding whitespace), so
    ``text`` equals the body slice at ``span``.
    """
    bounds = [0]
    for cut in _cut_pattern(frozenset(boundaries)).finditer(body):
        bounds += cut.span()
    bounds.append(len(body))

    sentences: list[Sentence] = []
    done = pos = 0  # pos is the UTF-8 length of body[:done]
    for start, end in zip(bounds[::2], bounds[1::2]):
        piece = body[start:end]
        text = piece.strip()
        if not text:
            continue
        first = start + len(piece) - len(piece.lstrip())
        pos += len(body[done:first].encode())
        span = (pos, pos + len(text.encode()))
        sentences.append(Sentence(doc_id, len(sentences), span, text))
        done, pos = first + len(text), span[1]
    return sentences


def _runs(chunk: str) -> Iterator[tuple[str, TokenKind, str]]:
    """(run, kind, shadow) for each token of a whitespace-free chunk."""
    n = len(chunk)
    i = 0
    while i < n:
        ch = chunk[i]
        j = i + 1
        if _is_word_char(ch):
            while j < n and _is_word_char(chunk[j]):
                j += 1
            run = chunk[i:j]
            yield run, TokenKind.WORD, run.translate(_SHADOW_DROP)
        else:
            kind = TokenKind.PUNCT
            if ch.isdigit():
                while j < n and chunk[j].isdigit():
                    j += 1
                kind = TokenKind.DIGIT
            run = chunk[i:j]
            yield run, kind, run
        i = j


def tokenize(sentence_text: str) -> list[Token]:
    """Split sentence text into Word / Digit / Punct tokens.

    Word runs cover letters plus harakat (tatweel is a letter that joins
    a run but is dropped from the shadow).  Digits form their own runs;
    every other non-space char becomes a single Punct token.
    """
    tokens: list[Token] = []
    pos = 0  # UTF-8 length of the text before the current run
    for gap, chunk in _CHUNK.findall(sentence_text):
        pos += len(gap) if gap.isascii() else len(gap.encode())
        shadow = chunk.translate(_SHADOW_DROP)
        if shadow.isalpha():  # most chunks are one bare word
            runs = ((chunk, TokenKind.WORD, shadow),)
        else:
            runs = _runs(chunk)
        for run, kind, shadow in runs:
            end = pos + len(run.encode())
            tokens.append(Token((pos, end), kind, shadow))
            pos = end
    return tokens
