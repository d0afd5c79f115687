"""Scoring predicted future-sentence classes against gold annotations.

Matching granularity is the (document, sentence, class) triple; per-class
and overall precision/recall are reported as percentages truncated to two
decimals, which is how exact fractions like 64/68 come out as 94.11.
``load_gold`` reads a gold file one numbered line at a time.
"""

from __future__ import annotations

import sys
from collections import Counter
from operator import itemgetter
from typing import Iterable, NamedTuple

from .engine import Annotation

#: the seven future-sentence classes, in reporting order
CLASS_LABELS = (
    "qad",
    "sin",
    "lan",
    "sawfa",
    "participle",
    "past_verb",
    "present_verb",
)

Triple = tuple[str, int, str]

_label = itemgetter(2)


class GoldFormatError(ValueError):
    """Malformed gold annotation file."""


class GoldAnnotation(NamedTuple):
    """A gold (doc_id, sentence_index, class_label) triple; it equals, and
    hashes like, the plain tuple."""

    doc_id: str
    sentence_index: int
    class_label: str


def load_gold(lines: str | Iterable[str]) -> list[GoldAnnotation]:
    """Parse gold TSV lines ``doc_id<TAB>sentence_index<TAB>class_label``.

    ``#`` starts a comment; blank lines, and whitespace around the line and
    around each field, are ignored.  The file is its text, split at "\\n"
    only, or its lines, as a file opened by ``resources.parse_lines`` gives
    them; each doc id and label is kept once (``sys.intern``), shared with
    the predicted triples.
    """
    if isinstance(lines, str):
        lines = lines.split("\n")
    intern = sys.intern
    gold: list[GoldAnnotation] = []
    seen: set[GoldAnnotation] = set()
    for lineno, line in enumerate(lines, 1):
        if "#" in line:
            line = line[:line.index("#")]
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise GoldFormatError(f"line {lineno}: expected 3 tab-separated fields")
        doc_id, index_str, label = parts
        # the line is stripped, so only the padding inside it is left
        doc_id = doc_id.rstrip()
        label = label.lstrip()
        index_str = index_str.strip()  # int() keeps \x1f, which strip() drops
        try:
            index = int(index_str)
        except ValueError:
            raise GoldFormatError(f"line {lineno}: bad sentence index {index_str!r}") from None
        if label not in CLASS_LABELS:
            raise GoldFormatError(f"line {lineno}: unknown class label {label!r}")
        ann = GoldAnnotation(intern(doc_id), index, intern(label))
        if ann in seen:
            raise GoldFormatError(f"line {lineno}: duplicate gold annotation")
        seen.add(ann)
        gold.append(ann)
    return gold


def dump_gold(gold: list[GoldAnnotation]) -> str:
    return "".join(f"{g.doc_id}\t{g.sentence_index}\t{g.class_label}\n" for g in gold)


def predictions_to_triples(predicted: list[Annotation]) -> set[Triple]:
    """Deduplicate annotations to (doc, sentence, class) triples."""
    return {(a.doc_id, a.sentence_index, a.class_label) for a in predicted}


def pct_string(numer: int, denom: int) -> str | None:
    """Percentage with two decimals, truncated (never rounded up)."""
    if denom <= 0:
        return None
    hundredths = numer * 10000 // denom
    return f"{hundredths // 100}.{hundredths % 100:02d}"


class ClassScore(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> str | None:
        return pct_string(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> str | None:
        return pct_string(self.tp, self.tp + self.fn)


class EvalReport(NamedTuple):
    per_class: dict[str, ClassScore]
    overall: ClassScore
    #: None when the predictions came without their sentences
    total_sentences: int | None = None
    predicted_future: int = 0
    gold_future: int = 0


def score(
    predicted: list[Annotation] | set[Triple],
    gold: list[GoldAnnotation],
    total_sentences: int | None = None,
) -> EvalReport:
    """Per-class and overall TP/FP/FN with precision and recall."""
    if isinstance(predicted, set):
        pred_triples = predicted
    else:
        pred_triples = predictions_to_triples(predicted)
    gold_triples = set(gold)

    tp = Counter(map(_label, pred_triples & gold_triples))
    fp = Counter(map(_label, pred_triples - gold_triples))
    fn = Counter(map(_label, gold_triples - pred_triples))

    labels = dict.fromkeys(CLASS_LABELS)
    unknown = (tp.keys() | fp.keys() | fn.keys()) - labels.keys()
    if unknown:
        # labels outside CLASS_LABELS follow, in the order of their least triple
        labels.update(dict.fromkeys(t[2] for t in sorted(
            t for ts in (pred_triples, gold_triples) for t in ts if t[2] in unknown
        )))

    return EvalReport(
        per_class={label: ClassScore(tp[label], fp[label], fn[label]) for label in labels},
        overall=ClassScore(tp.total(), fp.total(), fn.total()),
        total_sentences=total_sentences,
        predicted_future=len(pred_triples),
        gold_future=len(gold_triples),
    )


def distribution(gold: list[GoldAnnotation]) -> dict[str, int]:
    """Gold triple count per class (all known classes always present)."""
    counts = {label: 0 for label in CLASS_LABELS}
    for g in gold:
        counts[g.class_label] = counts.get(g.class_label, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# presentation


def format_distribution(gold: list[GoldAnnotation]) -> str:
    counts = distribution(gold)
    width = max(len(label) for label in counts) + 2
    lines = ["Future sentence class".ljust(width + 10) + "Number"]
    for label, count in counts.items():
        lines.append(label.ljust(width + 10) + str(count))
    lines.append("Total".ljust(width + 10) + str(sum(counts.values())))
    return "\n".join(lines)


def format_results(report: EvalReport) -> str:
    def fmt(value: str | None) -> str:
        return value if value is not None else "-"

    width = max([len(label) for label in report.per_class] + [len("Overall")]) + 2
    lines = [f"{'Class'.ljust(width)}{'Precision':>10}{'Recall':>10}"]
    for label, cs in report.per_class.items():
        lines.append(f"{label.ljust(width)}{fmt(cs.precision):>10}{fmt(cs.recall):>10}")
    o = report.overall
    lines.append(f"{'Overall'.ljust(width)}{fmt(o.precision):>10}{fmt(o.recall):>10}")
    return "\n".join(lines)


def report_to_json_dict(report: EvalReport) -> dict:
    def class_dict(cs: ClassScore) -> dict:
        return {
            "tp": cs.tp,
            "fp": cs.fp,
            "fn": cs.fn,
            "precision": cs.precision,
            "recall": cs.recall,
        }

    return {
        "per_class": {label: class_dict(cs) for label, cs in report.per_class.items()},
        "overall": class_dict(report.overall),
        "totals": {
            "sentences": report.total_sentences,
            "predicted_future": report.predicted_future,
            "gold_future": report.gold_future,
        },
    }
