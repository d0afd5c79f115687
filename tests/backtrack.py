"""Reference matcher: a recursive backtracker over the pattern tree.

The engine matches through ``arfuture.rules.FormIndex``, which enumerates
each pattern's surface forms and compares whole words.  This module walks
the pattern tree instead, literal by literal over token shadows, sharing
no matching code with the index, so tests can hold the two algorithms to
the same answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from arfuture.rules import Adjacency, Group, Literal, PatternElement, PatternSeq
from arfuture.segment import Token, TokenKind


@dataclass(frozen=True)
class PatternMatch:
    """A successful match over a token window.

    ``pieces`` are (token_index, shadow_start, shadow_end) ranges, merged
    per token, covering exactly the consumed characters.
    """

    start_token: int
    end_token: int
    end_char: int
    pieces: tuple[tuple[int, int, int], ...]

    @property
    def covered(self) -> tuple[int, ...]:
        """Token of each matched written word, as ``FormIndex`` reports it."""
        return tuple(dict.fromkeys(ti for ti, _, _ in self.pieces))


class Matcher:
    """Executable form of a variable-free pattern.

    Matching is anchored at a start token: glued runs must cover whole
    written words (except in prefix mode, where the final word may extend
    past the pattern), spaced gaps advance to the next Word token.  Among
    all viable parses the longest one wins; ties resolve to the first
    alternative in file order, so results are deterministic.
    """

    def __init__(self, pattern: PatternSeq):
        self.pattern = pattern
        chars, _ = _first_chars(pattern)
        self.first_chars: frozenset[str] = frozenset(chars)

    def match_at(
        self,
        tokens: list[Token],
        start: int,
        *,
        prefix: bool = False,
        punct_transparent: bool = True,
    ) -> PatternMatch | None:
        if start >= len(tokens):
            return None
        shadow = tokens[start].shadow
        if not shadow or shadow[0] not in self.first_chars:
            return None
        best: tuple[int, int, tuple] | None = None
        for ti, cp, consumed in _iter_items(
            self.pattern.items,
            self.pattern.joins,
            0,
            start,
            0,
            None,
            tokens,
            punct_transparent,
            (),
            (None, 0),
        ):
            if not consumed:
                continue
            if not prefix and cp != len(tokens[ti].shadow):
                continue
            if best is None or (ti, cp) > (best[0], best[1]):
                best = (ti, cp, consumed)
        if best is None:
            return None
        ti, cp, consumed = best
        return PatternMatch(
            start_token=start,
            end_token=ti,
            end_char=cp,
            pieces=_merge_pieces(consumed),
        )


def _advance(
    incoming: Adjacency | None,
    ti: int,
    cp: int,
    tokens: list[Token],
    punct_transparent: bool,
) -> tuple[int, int] | None:
    if incoming is not Adjacency.SPACED:
        return ti, cp
    if cp != len(tokens[ti].shadow):
        return None
    j = ti + 1
    if punct_transparent:
        while j < len(tokens) and tokens[j].kind is TokenKind.PUNCT:
            j += 1
    if j >= len(tokens) or tokens[j].kind is not TokenKind.WORD:
        return None
    return j, 0


def _iter_items(
    items: tuple[PatternElement, ...],
    joins: tuple[Adjacency, ...],
    idx: int,
    ti: int,
    cp: int,
    incoming: Adjacency | None,
    tokens: list[Token],
    punct_transparent: bool,
    consumed: tuple,
    entry: tuple[Adjacency | None, int],
) -> Iterator[tuple[int, int, tuple]]:
    """Parses of ``items[idx:]``.  ``entry`` holds the join in front of
    this sequence and the length of ``consumed`` where it began: a join
    inside the sequence counts only once the sequence has consumed text,
    so skipped optional groups leave the outer join in force."""
    if idx == len(items):
        yield ti, cp, consumed
        return
    item = items[idx]
    next_incoming = joins[idx] if idx < len(joins) else None
    if len(consumed) == entry[1]:
        incoming = entry[0]
    if isinstance(item, Literal):
        pos = _advance(incoming, ti, cp, tokens, punct_transparent)
        if pos is not None:
            t2, c2 = pos
            if tokens[t2].shadow.startswith(item.text, c2):
                yield from _iter_items(
                    items,
                    joins,
                    idx + 1,
                    t2,
                    c2 + len(item.text),
                    next_incoming,
                    tokens,
                    punct_transparent,
                    consumed + ((t2, c2, c2 + len(item.text)),),
                    entry,
                )
    elif isinstance(item, Group):
        for alt in item.alternatives:
            for t2, c2, cons2 in _iter_items(
                alt.items,
                alt.joins,
                0,
                ti,
                cp,
                incoming,
                tokens,
                punct_transparent,
                consumed,
                (incoming, len(consumed)),
            ):
                yield from _iter_items(
                    items, joins, idx + 1, t2, c2, next_incoming, tokens,
                    punct_transparent, cons2, entry,
                )
        if item.optional:
            yield from _iter_items(
                items, joins, idx + 1, ti, cp, next_incoming, tokens,
                punct_transparent, consumed, entry,
            )
    else:
        raise ValueError("cannot match an unexpanded variable reference")


def _merge_pieces(consumed: tuple) -> tuple[tuple[int, int, int], ...]:
    merged: list[list[int]] = []
    for ti, a, b in consumed:
        if merged and merged[-1][0] == ti and merged[-1][2] == a:
            merged[-1][2] = b
        else:
            merged.append([ti, a, b])
    return tuple((t, a, b) for t, a, b in merged)


def _first_chars(seq: PatternSeq) -> tuple[set[str], bool]:
    chars: set[str] = set()
    may_skip = True
    for item in seq.items:
        if not may_skip:
            break
        if isinstance(item, Literal):
            chars.add(item.text[0])
            may_skip = False
        elif isinstance(item, Group):
            alt_skip = item.optional
            for alt in item.alternatives:
                c, e = _first_chars(alt)
                chars |= c
                alt_skip = alt_skip or e
            may_skip = alt_skip
        else:
            raise ValueError("first-char analysis requires a variable-free pattern")
    return chars, may_skip
