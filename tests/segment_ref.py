"""Reference segmenter and tokenizer: the original char-by-char loops.

``arfuture.segment`` finds sentence cuts with a regex and carries a
running UTF-8 byte offset from one sentence to the next; its tokenizer
finds every run in one regex scan into columns of shadows, kinds and
char offsets, and works out a token's byte span only when asked.  This
module keeps the earlier algorithm, which visits every char and converts
char indices to bytes through a per-string offset table, so tests can
hold the two implementations to the same spans, kinds, shadows and
sentence texts.
"""

from __future__ import annotations

from arfuture.segment import (
    BOUNDARY_DOT,
    BOUNDARY_EXCLAM,
    BOUNDARY_NEWLINE,
    BOUNDARY_QMARK,
    DEFAULT_BOUNDARIES,
    HARAKAT,
    TATWEEL,
    Sentence,
    Token,
    TokenKind,
)

_TRIGGER_CHARS = {".": BOUNDARY_DOT, "؟": BOUNDARY_QMARK, "!": BOUNDARY_EXCLAM}


def _byte_offsets(text: str) -> list[int]:
    """offsets[i] is the UTF-8 byte offset of char i; the last is the total."""
    offsets = [0]
    for ch in text:
        offsets.append(offsets[-1] + len(ch.encode("utf-8")))
    return offsets


def _is_word_char(ch: str) -> bool:
    return ch.isalpha() or ch in HARAKAT


def segment(
    body: str,
    doc_id: str = "",
    boundaries: frozenset[str] = DEFAULT_BOUNDARIES,
) -> list[Sentence]:
    if not body:
        return []
    offsets = _byte_offsets(body)
    pieces: list[tuple[int, int]] = []  # char spans, untrimmed
    start = 0
    n = len(body)
    for i, ch in enumerate(body):
        if ch == "\n":
            if BOUNDARY_NEWLINE in boundaries:
                pieces.append((start, i))
                start = i + 1
            continue
        trigger = _TRIGGER_CHARS.get(ch)
        if trigger and trigger in boundaries:
            if i + 1 == n or body[i + 1].isspace():
                pieces.append((start, i + 1))
                start = i + 1
    pieces.append((start, n))

    sentences: list[Sentence] = []
    for s, e in pieces:
        while s < e and body[s].isspace():
            s += 1
        while e > s and body[e - 1].isspace():
            e -= 1
        if s == e:
            continue
        sentences.append(
            Sentence(doc_id, len(sentences), (offsets[s], offsets[e]), body[s:e])
        )
    return sentences


def tokenize(sentence_text: str) -> list[Token]:
    offsets = _byte_offsets(sentence_text)
    tokens: list[Token] = []
    i = 0
    n = len(sentence_text)
    while i < n:
        ch = sentence_text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_word_char(ch):
            j = i
            shadow_chars: list[str] = []
            while j < n and _is_word_char(sentence_text[j]):
                c = sentence_text[j]
                if c != TATWEEL and c not in HARAKAT:
                    shadow_chars.append(c)
                j += 1
            kind, shadow = TokenKind.WORD, "".join(shadow_chars)
        elif ch.isdigit():
            j = i
            while j < n and sentence_text[j].isdigit():
                j += 1
            kind, shadow = TokenKind.DIGIT, sentence_text[i:j]
        else:
            j = i + 1
            kind, shadow = TokenKind.PUNCT, ch
        tokens.append(Token((offsets[i], offsets[j]), kind, shadow))
        i = j
    return tokens
