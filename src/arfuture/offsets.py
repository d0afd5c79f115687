"""UTF-8 byte lengths for the package's byte spans.

All public span fields in this package are byte offsets into the UTF-8
encoding of the enclosing text, so that annotation dumps are stable and
language-neutral.  Segmentation keeps a running byte offset as it walks
a body; a token's byte span is worked out from its char offsets only
when something reads it (``segment.Tokens.span``).
"""

from __future__ import annotations


def byte_length(text: str) -> int:
    return len(text.encode("utf-8"))
