"""Helpers for UTF-8 byte spans over Python (code point) strings.

All public span fields in this package are byte offsets into the UTF-8
encoding of the enclosing text, so that annotation dumps are stable and
language-neutral.  Segmentation and tokenization produce them directly
by keeping a running byte offset as they walk their text; these helpers
read text back out of such spans.
"""

from __future__ import annotations


def byte_slice(text: str, span: tuple[int, int]) -> str:
    """Slice ``text`` by a UTF-8 byte span. Spans must fall on char borders."""
    start, end = span
    return text.encode("utf-8")[start:end].decode("utf-8")


def byte_length(text: str) -> int:
    return len(text.encode("utf-8"))
