"""Applies linguistic rules to segmented sentences.

A rule's forms are processed in order.  The first form searches the whole
sentence; each matched positive form moves the search field to the tokens
after it, and a form's ``@N`` length caps the field at N words.  A missing
positive form or a present negative form rejects the rule.  Two rule-level
gates bring in morphology: ``morph=qad`` requires a present-tense verb
right after the matched particle, ``morph=siin`` lets the final form match
a word prefix and then verifies the whole word as a siin-future verb.

Forms are searched indicator-first: each form carries a ``FormIndex``
keyed by the first written word of its surface forms, built when the
rule is parsed.  A token whose shadow (or, in siin prefix mode, a prefix
of it) is not a key costs one dict lookup; only candidate tokens have the
rest of the form checked against the words that follow them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .corpus import Document
from .morpho import Lexicons, Verdict, analyze_token, is_future_verb_with_siin, strip_clitics
from .offsets import byte_length
from .rules import FormIndex, LinguisticRule, PatternMatch, Polarity, format_pattern
from .segment import DEFAULT_BOUNDARIES, Sentence, Token, TokenKind, segment, tokenize


class RejectReason(Enum):
    POSITIVE_NOT_FOUND = "PositiveNotFound"
    NEGATIVE_FOUND = "NegativeFound"
    MORPH_REJECTED = "MorphRejected"


@dataclass(frozen=True)
class Annotation:
    """One rule match on one sentence; spans are bytes into sentence text."""

    doc_id: str
    sentence_index: int
    rule_id: str
    category: str
    class_label: str
    positive_marker_spans: tuple[tuple[int, int], ...]
    excerpt_span: tuple[int, int] | None = None


@dataclass(frozen=True)
class RejectionTrace:
    doc_id: str
    sentence_index: int
    rule_id: str
    failed_form_index: int
    reason: RejectReason
    negative_field_span: tuple[int, int] | None = None
    negative_marker: str = ""


@dataclass(frozen=True)
class DocumentAnalysis:
    """One document's sentences and the rule results kept for its outputs.

    ``traces`` holds only the ``NEGATIVE_FOUND`` rejections, whose search
    fields the report shades; ``iter_rule_results`` yields every rejection.
    """

    doc: Document
    sentences: tuple[Sentence, ...]
    annotations: tuple[Annotation, ...]
    traces: tuple[RejectionTrace, ...]


def _field_end(tokens: list[Token], start: int, n_words: int) -> int:
    """Token index just past the N-th word of the field (len() if fewer)."""
    if n_words <= 0:
        return len(tokens)
    count = 0
    for i in range(start, len(tokens)):
        if tokens[i].kind is TokenKind.WORD:
            count += 1
            if count == n_words:
                return i + 1
    return len(tokens)


def _next_word_index(
    tokens: list[Token], after: int, punct_transparent: bool
) -> int | None:
    j = after + 1
    if punct_transparent:
        while j < len(tokens) and tokens[j].kind is TokenKind.PUNCT:
            j += 1
    if j < len(tokens) and tokens[j].kind is TokenKind.WORD:
        return j
    return None


def _scan_positive(
    index: FormIndex,
    tokens: list[Token],
    start_at: int,
    field_end: int,
    *,
    prefix_mode: bool,
    siin_gate: Lexicons | None,
    punct_transparent: bool,
) -> tuple[PatternMatch | None, bool]:
    """Leftmost match of a positive form inside [start_at, field_end).

    In siin mode the pattern may cover just a word prefix and the whole
    word must verify as a siin future verb; candidates failing the verb
    check are skipped (reported via the second return value).
    """
    saw_gate_failure = False
    tails = index.tails
    prefix_lengths = index.prefix_lengths if prefix_mode else ()
    for t in range(start_at, field_end):
        shadow = tokens[t].shadow
        if shadow not in tails:
            for n in prefix_lengths:
                if shadow[:n] in tails:
                    break
            else:
                continue
        m = index.match_at(
            tokens, t, prefix=prefix_mode, punct_transparent=punct_transparent
        )
        if m is None or m.end_token >= field_end:
            continue
        if siin_gate is not None:
            word = tokens[m.end_token].shadow
            if not is_future_verb_with_siin(word, siin_gate):
                saw_gate_failure = True
                continue
        return m, saw_gate_failure
    return None, saw_gate_failure


def _attempt(
    rule: LinguisticRule,
    sentence: Sentence,
    tokens: list[Token],
    lex: Lexicons,
    scan_from: int,
    punct_transparent: bool,
):
    """One pass over the rule's form chain.

    Returns (annotation_or_trace, first_positive_match_or_None).
    """
    first_positive_idx = rule.positives[0]
    last_positive_idx = rule.positives[-1]
    field_start = 0
    first_match: PatternMatch | None = None
    matches: list[PatternMatch] = []

    def trace(reason, form_idx, field_span=None, marker=""):
        return RejectionTrace(
            doc_id=sentence.doc_id,
            sentence_index=sentence.index,
            rule_id=rule.id,
            failed_form_index=form_idx,
            reason=reason,
            negative_field_span=field_span,
            negative_marker=marker,
        )

    for fi, form in enumerate(rule.forms):
        field_end = _field_end(tokens, field_start, form.search_field_words)
        if form.polarity is Polarity.NEGATIVE:
            m, _ = _scan_positive(
                form.index,
                tokens,
                field_start,
                field_end,
                prefix_mode=False,
                siin_gate=None,
                punct_transparent=punct_transparent,
            )
            if m is not None:
                span = _tokens_byte_span(tokens, field_start, field_end)
                return (
                    trace(
                        RejectReason.NEGATIVE_FOUND,
                        fi,
                        field_span=span,
                        marker=format_pattern(form.pattern),
                    ),
                    first_match,
                )
            continue
        start_at = max(field_start, scan_from) if fi == first_positive_idx else field_start
        siin_mode = rule.morph == "siin" and fi == last_positive_idx
        m, gate_failed = _scan_positive(
            form.index,
            tokens,
            start_at,
            field_end,
            prefix_mode=siin_mode,
            siin_gate=lex if siin_mode else None,
            punct_transparent=punct_transparent,
        )
        if m is None:
            reason = (
                RejectReason.MORPH_REJECTED
                if gate_failed
                else RejectReason.POSITIVE_NOT_FOUND
            )
            return trace(reason, fi), first_match
        matches.append(m)
        if fi == first_positive_idx:
            first_match = m
        field_start = m.end_token + 1

    marker_tokens = [ti for m in matches for ti in m.covered]

    if rule.morph == "qad":
        verb_idx = _next_word_index(tokens, matches[-1].end_token, punct_transparent)
        rejected = True
        if verb_idx is not None:
            shadow = tokens[verb_idx].shadow
            verdict = analyze_token(shadow, lex).verdict
            excluded = (
                shadow in lex.qad_exclusions
                or strip_clitics(shadow)[1] in lex.qad_exclusions
            )
            rejected = verdict is not Verdict.PRESENT_VERB or excluded
        if rejected:
            return trace(RejectReason.MORPH_REJECTED, last_positive_idx), first_match
        marker_tokens.append(verb_idx)

    spans = tuple(tokens[ti].span for ti in marker_tokens)
    excerpt = None
    if rule.extract == "from-marker-to-end" and spans:
        excerpt = (spans[0][0], byte_length(sentence.text))
    return (
        Annotation(
            doc_id=sentence.doc_id,
            sentence_index=sentence.index,
            rule_id=rule.id,
            category=rule.category,
            class_label=rule.class_label,
            positive_marker_spans=spans,
            excerpt_span=excerpt,
        ),
        first_match,
    )


def _tokens_byte_span(
    tokens: list[Token], start: int, end: int
) -> tuple[int, int] | None:
    if start >= end or start >= len(tokens):
        return None
    end = min(end, len(tokens))
    return tokens[start].span[0], tokens[end - 1].span[1]


def iter_rule_results(
    rule: LinguisticRule,
    sentence: Sentence,
    tokens: list[Token],
    lex: Lexicons,
    *,
    punct_transparent: bool = True,
) -> Iterator[Annotation | RejectionTrace]:
    """All matches of one rule on one sentence, in left-to-right order.

    After a full match, scanning for the next one resumes past the first
    positive marker, so a rule can fire several times per sentence.  A
    matched negative form cancels the rule outright.
    """
    scan_from = 0
    produced_any = False
    while scan_from <= len(tokens):
        result, first_match = _attempt(
            rule, sentence, tokens, lex, scan_from, punct_transparent
        )
        if isinstance(result, Annotation):
            produced_any = True
            yield result
            scan_from = first_match.end_token + 1
            continue
        if result.reason is RejectReason.NEGATIVE_FOUND:
            yield result
            return
        if first_match is None:
            # the first positive form has no (further) candidate
            if not produced_any:
                yield result
            return
        produced_any = True
        yield result
        scan_from = first_match.end_token + 1


def classify_sentence_results(
    sentence: Sentence,
    tokens: list[Token],
    ruleset: list[LinguisticRule],
    lex: Lexicons,
    *,
    punct_transparent: bool = True,
) -> tuple[list[Annotation], list[RejectionTrace]]:
    """Annotations from every rule, in rule order then position order, and
    the ``NEGATIVE_FOUND`` traces: the only rejections an output reads."""
    annotations: list[Annotation] = []
    traces: list[RejectionTrace] = []
    for rule in ruleset:
        for result in iter_rule_results(
            rule, sentence, tokens, lex, punct_transparent=punct_transparent
        ):
            if isinstance(result, Annotation):
                annotations.append(result)
            elif result.reason is RejectReason.NEGATIVE_FOUND:
                traces.append(result)
    return annotations, traces


class Engine:
    """Immutable bundle of ruleset, lexicons and segmentation options."""

    def __init__(
        self,
        ruleset: list[LinguisticRule],
        lexicons: Lexicons,
        *,
        boundaries: frozenset[str] = DEFAULT_BOUNDARIES,
        punct_transparent: bool = True,
    ):
        self.ruleset = list(ruleset)
        self.lexicons = lexicons
        self.boundaries = frozenset(boundaries)
        self.punct_transparent = punct_transparent

    def analyze(self, doc: Document) -> DocumentAnalysis:
        sentences = segment(doc.body, doc_id=doc.id, boundaries=self.boundaries)
        annotations: list[Annotation] = []
        traces: list[RejectionTrace] = []
        for sentence in sentences:
            tokens = tokenize(sentence.text)
            anns, trcs = classify_sentence_results(
                sentence,
                tokens,
                self.ruleset,
                self.lexicons,
                punct_transparent=self.punct_transparent,
            )
            annotations.extend(anns)
            traces.extend(trcs)
        return DocumentAnalysis(
            doc=doc,
            sentences=tuple(sentences),
            annotations=tuple(annotations),
            traces=tuple(traces),
        )

    def analyze_corpus(self, docs: list[Document]) -> list[DocumentAnalysis]:
        """Analyze many documents, results ordered by document id."""
        return sorted((self.analyze(d) for d in docs), key=lambda r: r.doc.id)


# ---------------------------------------------------------------------------
# annotation dump (JSON Lines)


class AnnotationFormatError(ValueError):
    """Malformed annotation dump."""


def annotation_to_json(ann: Annotation) -> str:
    record = {
        "doc_id": ann.doc_id,
        "sentence_index": ann.sentence_index,
        "rule_id": ann.rule_id,
        "category": ann.category,
        "class_label": ann.class_label,
        "positive_marker_spans": [list(s) for s in ann.positive_marker_spans],
        "excerpt_span": list(ann.excerpt_span) if ann.excerpt_span else None,
    }
    return json.dumps(record, ensure_ascii=False, separators=(", ", ": "))

def annotation_from_json(line: str) -> Annotation:
    record = json.loads(line)
    ann = Annotation(
        doc_id=record["doc_id"],
        sentence_index=record["sentence_index"],
        rule_id=record["rule_id"],
        category=record["category"],
        class_label=record["class_label"],
        positive_marker_spans=tuple(tuple(s) for s in record["positive_marker_spans"]),
        excerpt_span=tuple(record["excerpt_span"]) if record["excerpt_span"] else None,
    )
    # scoring sorts (doc_id, sentence_index, class_label) triples with the gold ones
    if not (isinstance(ann.doc_id, str) and isinstance(ann.sentence_index, int)
            and isinstance(ann.class_label, str)):
        raise ValueError("doc_id and class_label must be strings, sentence_index an integer")
    return ann


def dump_annotations(annotations: list[Annotation]) -> str:
    return "".join(annotation_to_json(a) + "\n" for a in annotations)


def load_annotations(text: str) -> list[Annotation]:
    """Parse a JSON Lines dump; a bad record fails naming its line."""
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
