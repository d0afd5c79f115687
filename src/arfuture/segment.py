"""Sentence segmentation and tokenization for Arabic news prose.

Segmentation is typographic: a sentence ends after a period, Arabic
question mark or exclamation mark when followed by whitespace (or end of
text), and at newlines.  Each trigger can be switched off individually;
with only ``dot-space`` enabled the splitter degrades to the bare
period-plus-space heuristic.  It walks the body once and keeps a running
UTF-8 byte offset, so each sentence span is a byte span.

Tokenization is one regex scan per sentence into parallel columns: each
token's shadow, kind and char start and end (a sentence holding a char
the scan has no class for is scanned again, with stand-ins for such
chars).  A token's UTF-8 byte span is worked out only when something
reads it, which is only for the marker and field tokens an output shows.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator, Sequence
from enum import Enum
from typing import NamedTuple

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


class TokenKind(Enum):
    WORD = "word"
    PUNCT = "punct"
    DIGIT = "digit"


#: the kinds as plain names, which a hot loop reads several times faster
#: than an ``Enum`` member
WORD, PUNCT, DIGIT = TokenKind.WORD, TokenKind.PUNCT, TokenKind.DIGIT


class Sentence(NamedTuple):
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

    Matching reads the columns of ``Tokens``, which builds a ``Token``
    only when it is indexed or iterated.
    """

    span: tuple[int, int]
    kind: TokenKind
    shadow: str


@functools.lru_cache(maxsize=16)  # one entry per subset of the four triggers
def _cut_pattern(boundaries: frozenset[str]) -> re.Pattern[str]:
    """The chars after which a sentence ends: each enabled trigger that
    whitespace or the end of text follows, and each newline when
    ``newline`` is enabled (whitespace, so the sentence drops it).

    The pattern starts with one class of all of them, so that ``re``
    skips in C over the chars that cannot cut (8 ns per char of news
    text, against 28 when each char is tried); a lookbehind then tells
    which kind of char it matched.
    """
    triggers = "".join(ch for name, ch in _TRIGGER_CHARS.items() if name in boundaries)
    cuts = [rf"(?<=[{triggers}])(?=\s|\Z)"] if triggers else []
    chars = triggers
    if BOUNDARY_NEWLINE in boundaries:
        chars += "\n"
        cuts.append("(?<=\n)")
    return re.compile(f"[{chars}](?:{'|'.join(cuts)})" if chars else "(?!)")


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
    cuts = [0, *(cut.end() for cut in _cut_pattern(frozenset(boundaries)).finditer(body))]
    cuts.append(len(body))

    sentences: list[Sentence] = []
    done = pos = 0  # pos is the UTF-8 length of body[:done]
    for start, end in zip(cuts, cuts[1:]):
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


_TOKEN = re.compile(
    r"(\s*)(?:"
    r"([\u0620-\u063f\u0641-\u064aA-Za-z]+)(?![\u0620-\u0652A-Za-z])"  # bare word
    r"|([\u0620-\u0652A-Za-z]+)"  # word with tatweel or harakat
    r"|([0-9\u0660-\u0669]+)"  # digits
    r"|([^\w\s\u064b-\u0652])"  # punctuation: no letter, digit, space or haraka
    r"|(\S))"  # anything else: a stand-in decides
)
# the chars of that last group: word chars (\w) outside the classes above
_FOREIGN = re.compile(r"[^\W\u0620-\u0652A-Za-z0-9\u0660-\u0669]")


class Tokens(Sequence[Token]):
    """A sentence's tokens, held as parallel columns.

    ``shadows`` and ``kinds`` are what matching reads; ``starts`` and
    ``ends`` are char offsets into ``text``.  ``span(i)`` is token i's
    byte span, and ``tokens[i]`` builds its ``Token``, equal to the one a
    list of tokens would hold.  A span is counted on from the end of the
    one read before it, so reading spans in order takes one pass over
    the text; one before it is counted back from there, or on from the
    start of the text if that is nearer.
    """

    __slots__ = ("text", "shadows", "kinds", "starts", "ends", "_char", "_byte")

    def __init__(
        self, text: str, shadows: list[str], kinds: list[TokenKind],
        starts: list[int], ends: list[int],
    ):
        self.text = text
        self.shadows = shadows
        self.kinds = kinds
        self.starts = starts
        self.ends = ends
        # the char offset where the last span read ended, and its byte offset
        self._char = self._byte = 0

    def __len__(self) -> int:
        return len(self.shadows)

    def __getitem__(self, i: int | slice) -> Token | list[Token]:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Token(self.span(i), self.kinds[i], self.shadows[i])

    def __iter__(self) -> Iterator[Token]:
        return map(self.__getitem__, range(len(self)))

    def span(self, i: int) -> tuple[int, int]:
        """Token i's UTF-8 byte span in ``text``."""
        text, start, end = self.text, self.starts[i], self.ends[i]
        char, byte = self._char, self._byte
        if start >= char:
            first = byte + len(text[char:start].encode())
        elif start > char - start:
            first = byte - len(text[start:char].encode())
        else:
            first = len(text[:start].encode())
        self._char, self._byte = end, first + len(text[start:end].encode())
        return first, self._byte


def tokenize(sentence_text: str) -> Tokens:
    """Split sentence text into Word / Digit / Punct tokens.

    Word runs cover letters plus harakat (tatweel is a letter that joins
    a run but is dropped from the shadow).  Digits form their own runs;
    every other non-space char becomes a single Punct token.

    One regex scan finds the runs.  Each of its classes holds only chars
    of the kind it gives them, since ``re``'s ``\\w`` and ``\\d`` are not
    ``str.isalpha`` and ``str.isdigit`` (they differ on "_", "²", "½",
    "Ⅻ").  A sentence holding a char outside all of them, such as a
    letter or digit of another script, is scanned again as a copy in
    which each such char is a stand-in of its kind by the ``str``
    predicates: "a" for a letter, "0" for a digit, "!" for anything
    else.  The copy has the sentence's char offsets, so the shadows are
    read from the sentence at the copy's token offsets.
    """
    # trailing whitespace is cut first: the scan would take it for a gap
    # with no token after it and retry from each of its chars, in time
    # quadratic in its length
    text = sentence_text.rstrip()
    columns = _scan(text)
    if columns is None:
        _, kinds, starts, ends = _scan(_FOREIGN.sub(_stand_in, text))
        shadows = [text[s:e].translate(_SHADOW_DROP) for s, e in zip(starts, ends)]
    else:
        shadows, kinds, starts, ends = columns
    return Tokens(sentence_text, shadows, kinds, starts, ends)


def _scan(text: str) -> tuple[list[str], list[TokenKind], list[int], list[int]] | None:
    """The token columns of ``text``, which ends in no whitespace, or None
    when it holds a char outside the classes of ``_TOKEN``."""
    shadows: list[str] = []
    kinds: list[TokenKind] = []
    starts: list[int] = []
    ends: list[int] = []
    end = 0
    for gap, bare, marked, digits, punct, _ in _TOKEN.findall(text):
        if bare:
            run, kind = bare, WORD
        elif marked:
            run, kind = marked, WORD
        elif digits:
            run, kind = digits, DIGIT
        elif punct:
            run, kind = punct, PUNCT
        else:
            return None
        start = end + len(gap)
        end = start + len(run)
        shadows.append(marked.translate(_SHADOW_DROP) if marked else run)
        kinds.append(kind)
        starts.append(start)
        ends.append(end)
    return shadows, kinds, starts, ends


def _stand_in(m: re.Match[str]) -> str:
    ch = m[0]
    return "a" if ch.isalpha() else "0" if ch.isdigit() else "!"
