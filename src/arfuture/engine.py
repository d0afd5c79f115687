"""Applies linguistic rules to segmented sentences.

A rule's forms are processed in order.  The first form searches the whole
sentence; each matched positive form moves the search field to the tokens
after it, and a form's ``@N`` length caps the field at N words.  A missing
positive form or a present negative form rejects the rule.  Two rule-level
gates bring in morphology: ``morph=qad`` requires a present-tense verb
right after the matched particle, ``morph=siin`` lets the final form match
a word prefix and then verifies the whole word as a siin-future verb.

Rules are searched indicator-first.  Each form carries a ``FormIndex``
keyed by the first written word of its surface forms, built when the
rule is parsed, and each rule knows its ``siin_form``, the one form that
may match a word prefix.  The ``Engine`` builds once, from its ruleset, a
``StartTable``: the first words of every rule's first positive form,
mapped to the rules they start, plus the siin prefix keys.  A sentence's
tokens are looked up in it once, which gives every rule its candidate
starts: the tokens whose shadow (or, for a siin form, a prefix of it) a
match of that form can begin with.  The first positive form is tried
only at those starts, and a rule whose first form is positive and has
none is rejected without a scan.  Negative and later positive forms try
each token of their field in turn, up to the leftmost match; a token
that begins no match costs one ``FormIndex`` dict lookup.

Every rule result is a record: an ``Annotation`` for a match, a
``RejectionTrace`` for a rejection.  The bundled rules give about ten
per sentence, so both are ``NamedTuple``s, built positionally:
immutable and hashable like a frozen dataclass, at under a third of
its cost to build.  ``dataclasses.fields`` and ``asdict`` do not apply to
them; ``_fields`` and ``_asdict`` do.

Annotations are dumped as JSON Lines, one record per line, split at
``"\n"`` only: U+2028, U+2029 and U+0085, which are written raw, stay
inside their line.  ``annotation_to_json`` writes a record with one
f-string, quoting its strings with ``json``'s C escaper, and gives what
``json.dumps(..., ensure_ascii=False, separators=(", ", ": "))`` gives.
``annotation_from_json`` decodes a line with one ``raw_decode`` call and
accepts exactly the lines ``json.loads`` accepts; ``doc_id`` and
``class_label`` must be strings, ``sentence_index`` an integer (not a
boolean), and each span a list of two integers.

``load_annotations`` gives only the (document, sentence, class) triples
that scoring reads.  A canonical line, exactly as ``annotation_to_json``
writes it with strings that hold no ``"``, ``\\`` or control character
(and perhaps a "\\r" before its "\\n"), is read by one regex pass over
the whole dump; every other line goes through ``annotation_from_json``,
so each line is accepted or refused, with the same message and line
number, as if every line were decoded.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring as _quote  # the C escaper of ensure_ascii=False
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import Document
from .morpho import Lexicons, Verdict, analyze_token, is_future_verb_with_siin, strip_clitics
from .offsets import byte_length
from .rules import FormIndex, LinguisticRule, PatternMatch, Polarity, format_pattern
from .segment import DEFAULT_BOUNDARIES, PUNCT, WORD, Sentence, Tokens, segment, tokenize


class RejectReason(Enum):
    POSITIVE_NOT_FOUND = "PositiveNotFound"
    NEGATIVE_FOUND = "NegativeFound"
    MORPH_REJECTED = "MorphRejected"


class Annotation(NamedTuple):
    """One rule match on one sentence; spans are bytes into sentence text."""

    doc_id: str
    sentence_index: int
    rule_id: str
    category: str
    class_label: str
    positive_marker_spans: tuple[tuple[int, int], ...]
    excerpt_span: tuple[int, int] | None = None


class RejectionTrace(NamedTuple):
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


def _field_end(tokens: Tokens, start: int, n_words: int) -> int:
    """Token index just past the N-th word of the field (len() if fewer)."""
    kinds = tokens.kinds
    if n_words <= 0:
        return len(kinds)
    count = 0
    for i in range(start, len(kinds)):
        if kinds[i] is WORD:
            count += 1
            if count == n_words:
                return i + 1
    return len(kinds)


def _next_word_index(tokens: Tokens, after: int, punct_transparent: bool) -> int | None:
    kinds = tokens.kinds
    j = after + 1
    if punct_transparent:
        while j < len(kinds) and kinds[j] is PUNCT:
            j += 1
    if j < len(kinds) and kinds[j] is WORD:
        return j
    return None


def _scan_positive(
    index: FormIndex,
    tokens: Tokens,
    starts: Iterable[int],
    field_end: int,
    siin_gate: Lexicons | None,
    punct_transparent: bool,
) -> tuple[PatternMatch | None, bool]:
    """Leftmost match of a form at one of ``starts`` (ascending) that ends
    before ``field_end``.

    With a siin gate the pattern may cover just a word prefix and the whole
    word must verify as a siin future verb; starts failing the verb check
    are skipped (reported via the second return value).
    """
    prefix = siin_gate is not None
    saw_gate_failure = False
    for t in starts:
        if t >= field_end:
            break
        m = index.match_at(tokens, t, prefix=prefix, punct_transparent=punct_transparent)
        if m is None or m.end_token >= field_end:
            continue
        if siin_gate is not None:
            word = tokens.shadows[m.end_token]
            if not is_future_verb_with_siin(word, siin_gate):
                saw_gate_failure = True
                continue
        return m, saw_gate_failure
    return None, saw_gate_failure


def _attempt(
    rule: LinguisticRule,
    sentence: Sentence,
    tokens: Tokens,
    lex: Lexicons,
    starts: Sequence[int],
    scan_from: int,
    punct_transparent: bool,
):
    """One pass over the rule's form chain; the first positive form is
    tried at its candidate ``starts`` from ``scan_from`` on.

    Returns (annotation_or_trace, first_positive_match_or_None).
    """
    first_positive_idx = rule.positives[0]
    last_positive_idx = rule.positives[-1]
    field_start = 0
    first_match: PatternMatch | None = None
    matches: list[PatternMatch] = []

    for fi, form in enumerate(rule.forms):
        if form.search_field_words:
            field_end = _field_end(tokens, field_start, form.search_field_words)
        else:
            field_end = len(tokens)
        if fi == first_positive_idx:  # the field starts at token 0 here
            candidates = starts[bisect_left(starts, scan_from):]
        else:
            candidates = range(field_start, field_end)
        if form.polarity is Polarity.NEGATIVE:
            m, _ = _scan_positive(
                form.index, tokens, candidates, field_end, None, punct_transparent
            )
            if m is not None:
                trace = RejectionTrace(
                    sentence.doc_id,
                    sentence.index,
                    rule.id,
                    fi,
                    RejectReason.NEGATIVE_FOUND,
                    _tokens_byte_span(tokens, field_start, field_end),
                    format_pattern(form.pattern),
                )
                return trace, first_match
            continue
        m, gate_failed = _scan_positive(
            form.index,
            tokens,
            candidates,
            field_end,
            lex if fi == rule.siin_form else None,
            punct_transparent,
        )
        if m is None:
            reason = (
                RejectReason.MORPH_REJECTED
                if gate_failed
                else RejectReason.POSITIVE_NOT_FOUND
            )
            trace = RejectionTrace(sentence.doc_id, sentence.index, rule.id, fi, reason)
            return trace, first_match
        matches.append(m)
        if fi == first_positive_idx:
            first_match = m
        field_start = m.end_token + 1

    marker_tokens = [ti for m in matches for ti in m.covered]

    if rule.morph == "qad":
        verb_idx = _next_word_index(tokens, matches[-1].end_token, punct_transparent)
        rejected = True
        if verb_idx is not None:
            shadow = tokens.shadows[verb_idx]
            verdict = analyze_token(shadow, lex).verdict
            excluded = (
                shadow in lex.qad_exclusions
                or strip_clitics(shadow)[1] in lex.qad_exclusions
            )
            rejected = verdict is not Verdict.PRESENT_VERB or excluded
        if rejected:
            trace = RejectionTrace(
                sentence.doc_id,
                sentence.index,
                rule.id,
                last_positive_idx,
                RejectReason.MORPH_REJECTED,
            )
            return trace, first_match
        marker_tokens.append(verb_idx)

    spans = tuple(map(tokens.span, marker_tokens))
    excerpt = None
    if rule.extract == "from-marker-to-end" and spans:
        excerpt = (spans[0][0], byte_length(sentence.text))
    annotation = Annotation(
        sentence.doc_id,
        sentence.index,
        rule.id,
        rule.category,
        rule.class_label,
        spans,
        excerpt,
    )
    return annotation, first_match


def _tokens_byte_span(tokens: Tokens, start: int, end: int) -> tuple[int, int] | None:
    if start >= end:
        return None
    return tokens.span(start)[0], tokens.span(end - 1)[1]


class StartTable:
    """The first words of each rule's first positive form, for one ruleset.

    ``words`` maps a first word to the positions, in the ruleset, of the
    rules whose first positive form it begins.  ``prefixes`` holds, for
    each length N of a one-word form that the siin gate lets match a word
    prefix, the map from such forms to their rules; ``heads`` holds every
    such form, so that one ``str.startswith`` call skips a token that
    begins none.
    """

    __slots__ = ("words", "prefixes", "heads")

    def __init__(self, ruleset: list[LinguisticRule]):
        words: dict[str, list[int]] = {}
        prefixes: dict[int, dict[str, list[int]]] = {}
        for r, rule in enumerate(ruleset):
            first = rule.positives[0]
            tails = rule.forms[first].index.tails
            for word, rest in tails.items():
                words.setdefault(word, []).append(r)
                if () in rest and first == rule.siin_form:
                    prefixes.setdefault(len(word), {}).setdefault(word, []).append(r)
        self.words = words
        self.prefixes = tuple(sorted(prefixes.items()))
        self.heads = tuple(word for keys in prefixes.values() for word in keys)

    def starts(self, tokens: Tokens) -> dict[int, list[int]]:
        """Each rule's candidate starts, ascending, by ruleset position;
        a rule with none is absent."""
        words = self.words
        prefixes = self.prefixes
        heads = self.heads
        starts: dict[int, list[int]] = {}
        for t, shadow in enumerate(tokens.shadows):
            rules = words.get(shadow)
            if rules is not None:
                for r in rules:
                    starts.setdefault(r, []).append(t)
            if not shadow.startswith(heads):
                continue
            for n, keys in prefixes:
                rules = keys.get(shadow[:n])
                if rules is not None:
                    for r in rules:
                        found = starts.setdefault(r, [])
                        if not found or found[-1] != t:
                            found.append(t)
        return starts


def iter_rule_results(
    rule: LinguisticRule,
    sentence: Sentence,
    tokens: Tokens,
    lex: Lexicons,
    *,
    punct_transparent: bool = True,
    starts: Sequence[int] | None = None,
) -> Iterator[Annotation | RejectionTrace]:
    """All matches of one rule on one sentence, in left-to-right order.

    After a full match, scanning for the next one resumes past the first
    positive marker, so a rule can fire several times per sentence.  A
    matched negative form cancels the rule outright.

    ``starts`` are the ascending candidate starts of the rule's first
    positive form, as ``StartTable.starts`` gives them; by default they
    are found from a table of this rule alone.
    """
    first = rule.positives[0]
    if starts is None:
        starts = StartTable([rule]).starts(tokens).get(0, [])
    if not starts and first == 0:
        yield RejectionTrace(
            sentence.doc_id, sentence.index, rule.id, 0, RejectReason.POSITIVE_NOT_FOUND
        )
        return
    scan_from = 0
    produced_any = False
    while True:
        result, first_match = _attempt(
            rule, sentence, tokens, lex, starts, scan_from, punct_transparent
        )
        if isinstance(result, RejectionTrace):
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
        if starts[-1] < scan_from:
            # no start left: a further attempt would find no first positive
            # match (the negative forms before it search the same field as in
            # this attempt), which after a result ends the rule silently
            return


def classify_sentence_results(
    sentence: Sentence,
    tokens: Tokens,
    ruleset: list[LinguisticRule],
    lex: Lexicons,
    *,
    punct_transparent: bool = True,
    table: StartTable | None = None,
) -> tuple[list[Annotation], list[RejectionTrace]]:
    """Annotations from every rule, in rule order then position order, and
    the ``NEGATIVE_FOUND`` traces: the only rejections an output reads.

    ``table`` must be built from ``ruleset``; by default it is built here.
    """
    if table is None:
        table = StartTable(ruleset)
    starts = table.starts(tokens)
    annotations: list[Annotation] = []
    traces: list[RejectionTrace] = []
    for r, rule in enumerate(ruleset):
        for result in iter_rule_results(
            rule, sentence, tokens, lex,
            punct_transparent=punct_transparent, starts=starts.get(r, ()),
        ):
            if isinstance(result, Annotation):
                annotations.append(result)
            elif result.reason is RejectReason.NEGATIVE_FOUND:
                traces.append(result)
    return annotations, traces


class Engine:
    """Immutable bundle of ruleset, lexicons and segmentation options, with
    the ruleset's ``StartTable``."""

    def __init__(
        self,
        ruleset: list[LinguisticRule],
        lexicons: Lexicons,
        *,
        boundaries: frozenset[str] = DEFAULT_BOUNDARIES,
        punct_transparent: bool = True,
    ):
        self.ruleset = list(ruleset)
        self.table = StartTable(self.ruleset)
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
                table=self.table,
            )
            annotations.extend(anns)
            traces.extend(trcs)
        return DocumentAnalysis(
            doc=doc,
            sentences=tuple(sentences),
            annotations=tuple(annotations),
            traces=tuple(traces),
        )

    def analyze_corpus(self, docs: Iterable[Document]) -> Iterator[DocumentAnalysis]:
        """Analyze the documents one at a time, in document-id order; only
        the analysis last yielded is held."""
        for doc in sorted(docs, key=lambda d: d.id):
            yield self.analyze(doc)


# ---------------------------------------------------------------------------
# annotation dump (JSON Lines)


class AnnotationFormatError(ValueError):
    """Malformed annotation dump."""


_decode = json.JSONDecoder().raw_decode
_skip_space = json.decoder.WHITESPACE.match
_record_fields = itemgetter(*Annotation._fields)


def annotation_to_json(ann: Annotation) -> str:
    """One record as ``json.dumps(..., ensure_ascii=False,
    separators=(", ", ": "))`` writes it, spans as arrays and an empty
    or missing excerpt as ``null``."""
    doc_id, index, rule_id, category, label, spans, excerpt = ann
    spans_json = ", ".join(["[%s, %s]" % span for span in spans])
    excerpt_json = "[%s, %s]" % excerpt if excerpt else "null"
    return (
        f'{{"doc_id": {_quote(doc_id)}, "sentence_index": {index}, '
        f'"rule_id": {_quote(rule_id)}, "category": {_quote(category)}, '
        f'"class_label": {_quote(label)}, "positive_marker_spans": [{spans_json}], '
        f'"excerpt_span": {excerpt_json}}}'
    )


def _span(value) -> tuple[int, int]:
    # JSON gives no int subclass but bool, which the exact type test refuses
    if type(value) is list and len(value) == 2:
        start, end = value
        if type(start) is int and type(end) is int:
            return start, end
    raise ValueError(f"a span must be a list of two integers, not {value!r}")


def annotation_from_json(line: str) -> Annotation:
    """Parse one record; what ``json.loads`` would refuse fails the same way."""
    record, end = _decode(line, 0 if line[:1] == "{" else _skip_space(line, 0).end())
    if end != len(line) and line[end:].strip(" \t\n\r"):
        raise json.JSONDecodeError("Extra data", line, _skip_space(line, end).end())
    doc_id, index, rule_id, category, label, spans, excerpt = _record_fields(record)
    # scoring sorts (doc_id, sentence_index, class_label) triples with the gold ones
    if not (type(doc_id) is str and type(index) is int and type(label) is str):
        raise ValueError("doc_id and class_label must be strings, sentence_index an integer")
    if type(spans) is not list:
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


def dump_annotations(annotations: list[Annotation]) -> str:
    return "".join([annotation_to_json(a) + "\n" for a in annotations])


#: characters ``_lines`` splits at a time, cut at the next "\n"
_LINES_BLOCK = 1 << 16


def _lines(text: str, start: int, end: int) -> Iterator[str]:
    """``text[start:end].split("\\n")``, split a block of about
    ``_LINES_BLOCK`` characters at a time, so that no list of every line is
    built."""
    while (cut := text.find("\n", start + _LINES_BLOCK, end)) >= 0:
        yield from text[start:cut].split("\n")
        start = cut + 1
    yield from text[start:end].split("\n")


# A line exactly as ``annotation_to_json`` writes it, with strings that the
# decoder reads as written (no '"', '\\' or control character) and integers
# of at most 100 digits (longer ones meet Python's int-digit limit in the
# decoder), ended by "\n", "\r\n" or the end of the text; groups: doc_id,
# sentence_index, class_label.  Digits are [0-9], since \d also takes
# digits that JSON refuses.  A line the pattern misses costs a failed match
# at each of its characters, so a "\r\n" dump would cost more than the
# decoder alone.  Compiled on first use (by the re module's cache).
_TEXT = r'[^"\\\x00-\x1f]*'
_INT = r"-?(?:0|[1-9][0-9]{0,99})"
_SPAN = rf"\[{_INT}, {_INT}\]"
_CANONICAL_LINE = (
    rf'(?m)^\{{"doc_id": "({_TEXT})", "sentence_index": ({_INT}), '
    rf'"rule_id": "{_TEXT}", "category": "{_TEXT}", "class_label": "({_TEXT})", '
    rf'"positive_marker_spans": \[(?:{_SPAN}(?:, {_SPAN})*)?\], '
    rf'"excerpt_span": (?:{_SPAN}|null)\}}\r?(?:\n|\Z)'
)


def _decode_lines(text: str, start: int, end: int, triples: set) -> None:
    """Add the triples of the whole lines in ``text[start:end]``, decoding
    each with ``annotation_from_json``; a line of whitespace is skipped."""
    try:
        for offset, line in enumerate(_lines(text, start, end)):
            if line.strip():
                ann = annotation_from_json(line)
                triples.add((ann.doc_id, ann.sentence_index, ann.class_label))
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        lineno = text.count("\n", 0, start) + offset + 1
        raise AnnotationFormatError(f"line {lineno}: {problem}") from None


def load_annotations(text: str) -> set[tuple[str, int, str]]:
    """The (doc_id, sentence_index, class_label) triples of a JSON Lines
    dump, split at "\\n" only; a line of whitespace is skipped and a bad
    record fails naming its line."""
    triples: set[tuple[str, int, str]] = set()
    done = 0
    for m in re.finditer(_CANONICAL_LINE, text):
        if m.start() != done:
            _decode_lines(text, done, m.start(), triples)
        doc_id, index, label = m.groups()
        triples.add((doc_id, int(index), label))
        done = m.end()
    _decode_lines(text, done, len(text), triples)
    return triples
