"""Reference readers: the earlier ``annotations.jsonl`` and gold TSV loaders.

``arfuture.engine`` splits a dump at ``"\\n"`` only, reads the lines
``annotation_to_json`` writes with one pattern, decodes only the lines
the pattern misses, and gives only the (document, sentence, class)
triples; ``arfuture.evaluate.load_gold`` strips each line once and then
only the padding left inside it.  This module keeps the earlier versions,
which decode every line into a full ``Annotation`` with ``json.loads``
and strip every gold field in a generator, so tests can
hold the two to the same records (or their triples) and the same errors
on the same lines.  The annotation reader splits with ``str.splitlines``,
as it did; the gold reader splits at ``"\n"`` only, as ``load_gold`` does.
"""

from __future__ import annotations

import json

from arfuture.engine import Annotation, AnnotationFormatError
from arfuture.evaluate import CLASS_LABELS, GoldAnnotation, GoldFormatError


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _span(value) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))):
        raise ValueError(f"a span must be a list of two integers, not {value!r}")
    return value[0], value[1]


def annotation_from_json(line: str) -> Annotation:
    record = json.loads(line)
    doc_id, index, rule_id, category, label, spans, excerpt = (
        record[name] for name in Annotation._fields
    )
    if not (isinstance(doc_id, str) and _is_int(index) and isinstance(label, str)):
        raise ValueError("doc_id and class_label must be strings, sentence_index an integer")
    if not isinstance(spans, list):
        raise ValueError(f"positive_marker_spans must be a list of spans, not {spans!r}")
    return Annotation(
        doc_id,
        index,
        rule_id,
        category,
        label,
        tuple(map(_span, spans)),
        None if excerpt is None else _span(excerpt),
    )


def load_annotations(text: str) -> list[Annotation]:
    annotations: list[Annotation] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            annotations.append(annotation_from_json(line))
        except KeyError as exc:
            raise AnnotationFormatError(f"line {lineno}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise AnnotationFormatError(f"line {lineno}: {exc}") from None
    return annotations


def load_gold(text: str) -> list[GoldAnnotation]:
    gold: list[GoldAnnotation] = []
    seen: set[GoldAnnotation] = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise GoldFormatError(f"line {lineno}: expected 3 tab-separated fields")
        doc_id, index_str, label = (p.strip() for p in parts)
        try:
            index = int(index_str)
        except ValueError:
            raise GoldFormatError(f"line {lineno}: bad sentence index {index_str!r}") from None
        if label not in CLASS_LABELS:
            raise GoldFormatError(f"line {lineno}: unknown class label {label!r}")
        ann = GoldAnnotation(doc_id, index, label)
        if ann in seen:
            raise GoldFormatError(f"line {lineno}: duplicate gold annotation")
        seen.add(ann)
        gold.append(ann)
    return gold
