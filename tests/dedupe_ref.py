"""Reference deduplication: the digest-keyed form ``dedupe_documents`` replaced.

``arfuture.corpus.dedupe_documents`` buckets the kept documents by the
``hash`` of each body's words joined by single spaces, and confirms a
repeat by comparing those texts.  This module keeps the earlier form,
which keyed each body by the sha256 digest of that text, encoded as UTF-8
with lone surrogates passed through, so tests can hold the new one to it.
"""

from __future__ import annotations

import hashlib

from arfuture.corpus import Document


def dedupe_documents(docs: list[Document]) -> list[Document]:
    """Drop later documents whose whitespace-normalized body already occurred."""
    seen: set[bytes] = set()
    unique: list[Document] = []
    for doc in docs:
        words = " ".join(doc.body.split())
        key = hashlib.sha256(words.encode("utf-8", "surrogatepass")).digest()
        if key in seen:
            continue
        seen.add(key)
        unique.append(doc)
    return unique
