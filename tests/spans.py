"""Read text back out of the package's UTF-8 byte spans."""

from __future__ import annotations


def byte_slice(text: str, span: tuple[int, int]) -> str:
    """Slice ``text`` by a UTF-8 byte span. Spans must fall on char borders."""
    start, end = span
    return text.encode("utf-8")[start:end].decode("utf-8")
