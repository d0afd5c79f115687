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

One attempt of a rule is one plain loop, inside ``iter_rule_results``,
over the rule's ``steps``: a tuple per form, built with the rule, of all
that an attempt reads of it (its index, polarity, ``FormIndex``, whether
it is the siin form, its ``@N`` cap and the marker text of a negative
form).  A rule's fields cannot be assigned, so its steps stay those of
its forms.  Both gates read one verdict function, ``morpho._verdict``,
which builds no ``MorphVerdict`` record.

Every rule result is a record: an ``Annotation`` for a match, a
``RejectionTrace`` for a rejection.  The bundled rules give about ten
per sentence, so both are built positionally.  Both are ``NamedTuple``s,
as the package's other immutable records are, rules and forms among
them: hashable, equal to the plain tuple of their fields, and read
through ``_fields``, ``_asdict`` and ``_replace``.  ``import arfuture``
does not load ``dataclasses``.

Annotations are dumped as JSON Lines, one record per line.  A dump
given as a text is split at ``"\n"`` only: U+2028, U+2029 and U+0085,
which are written raw, stay inside their line.  A dump read from a file
has its line ends read as ``Path.read_text`` reads them, so there a lone
``"\r"`` ends a line too.  ``annotation_to_json`` writes a record with one
f-string, quoting its strings with ``json``'s C escaper, and gives what
``json.dumps(..., ensure_ascii=False, separators=(", ", ": "))`` gives.
``annotation_from_json`` decodes a line with ``json.loads``; ``doc_id``
and ``class_label`` must be strings, ``sentence_index`` an integer (not a
boolean), and each span a list of two integers.

``load_annotations`` gives only the (document, sentence, class) triples
that scoring reads.  It takes the dump as one text or, from a file, as
its lines, and holds one line and the triples, with one copy of each doc
id and label.  A canonical line, exactly as ``annotation_to_json`` writes
it with strings that hold no ``"``, ``\\`` or control character (and
perhaps a "\\r" before its end), is read by one anchored regex match;
every other line goes through ``annotation_from_json``, so each line is
accepted or refused, with the same message and line number, as if every
line were decoded.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_left
from enum import Enum
from json.encoder import encode_basestring as _quote  # the C escaper of ensure_ascii=False
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import Document
from .morpho import PRESENT_VERB, Lexicons, _verdict, is_future_verb_with_siin, strip_clitics
from .rules import LinguisticRule
from .segment import DEFAULT_BOUNDARIES, PUNCT, WORD, Sentence, Tokens, segment, tokenize


class RejectReason(Enum):
    POSITIVE_NOT_FOUND = "PositiveNotFound"
    NEGATIVE_FOUND = "NegativeFound"
    MORPH_REJECTED = "MorphRejected"


#: the reasons as plain names, which a hot loop reads several times faster
#: than an ``Enum`` member
POSITIVE_NOT_FOUND, NEGATIVE_FOUND, MORPH_REJECTED = (
    RejectReason.POSITIVE_NOT_FOUND, RejectReason.NEGATIVE_FOUND, RejectReason.MORPH_REJECTED
)


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


class DocumentAnalysis(NamedTuple):
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

    Each attempt is one pass over the rule's ``steps``.  A form is tried
    at each token of its field in turn, up to its leftmost match that ends
    inside the field (and, for the siin form, whose word passes the siin
    gate); the first positive form is tried only at its ``starts``, from
    just past the first positive marker of the attempt before on.  After
    a full match, or a rejection after the first positive form matched,
    the next attempt begins, so a rule can fire several times per
    sentence.  A matched negative form cancels the rule outright.

    ``starts`` are the ascending candidate starts of the rule's first
    positive form, as ``StartTable.starts`` gives them; by default they
    are found from a table of this rule alone.
    """
    first = rule.positives[0]
    if starts is None:
        starts = StartTable([rule]).starts(tokens).get(0, [])
    doc_id, index, rule_id = sentence.doc_id, sentence.index, rule.id
    if not starts and first == 0:
        yield RejectionTrace(doc_id, index, rule_id, 0, POSITIVE_NOT_FOUND)
        return
    shadows = tokens.shadows
    n_tokens = len(shadows)
    scan_from = 0
    produced_any = False
    while True:
        field_start = 0
        first_end = -1  # the end token of this attempt's first positive match
        marker_tokens: list[int] = []
        for fi, negative, form, siin, cap, marker in rule.steps:
            field_end = _field_end(tokens, field_start, cap) if cap else n_tokens
            if fi == first:  # the field starts at token 0 here
                # walked by index after the first attempt: a slice would copy
                # the rest of the starts on every attempt, in time quadratic
                # in the sentence
                left = bisect_left(starts, scan_from)
                candidates = map(starts.__getitem__, range(left, len(starts))) if left else starts
            else:
                candidates = range(field_start, field_end)
            m = None  # the tokens of the form's leftmost match in the field
            gate_failed = False
            for t in candidates:
                if t >= field_end:
                    break
                covered = form.match_at(tokens, t, prefix=siin, punct_transparent=punct_transparent)
                if covered is None or covered[-1] >= field_end:
                    continue
                if siin and not is_future_verb_with_siin(shadows[covered[-1]], lex):
                    gate_failed = True
                    continue
                m = covered
                break
            if negative:
                if m is None:
                    continue
                yield RejectionTrace(
                    doc_id, index, rule_id, fi, NEGATIVE_FOUND,
                    _tokens_byte_span(tokens, field_start, field_end), marker,
                )
                return
            if m is None:
                reason = MORPH_REJECTED if gate_failed else POSITIVE_NOT_FOUND
                result = RejectionTrace(doc_id, index, rule_id, fi, reason)
                break
            marker_tokens += m
            if fi == first:
                first_end = m[-1]
            field_start = m[-1] + 1
        else:
            result = None
            if rule.morph == "qad":
                # a present verb, not excluded, must follow the last positive
                # marker, which ends just before ``field_start``
                t = _next_word_index(tokens, field_start - 1, punct_transparent)
                verb = None if t is None else shadows[t]
                if (
                    verb is None
                    or _verdict(verb, lex) is not PRESENT_VERB
                    or verb in lex.qad_exclusions
                    or strip_clitics(verb)[1] in lex.qad_exclusions
                ):
                    result = RejectionTrace(
                        doc_id, index, rule_id, rule.positives[-1], MORPH_REJECTED
                    )
                else:
                    marker_tokens.append(t)
            if result is None:
                spans = tuple(map(tokens.span, marker_tokens))
                excerpt = None
                if rule.extract == "from-marker-to-end" and spans:
                    excerpt = (spans[0][0], len(sentence.text.encode()))
                result = Annotation(
                    doc_id, index, rule_id, rule.category, rule.class_label, spans, excerpt
                )
        if first_end < 0:
            # the first positive form has no (further) candidate
            if not produced_any:
                yield result
            return
        produced_any = True
        yield result
        scan_from = first_end + 1
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
            if type(result) is Annotation:
                annotations.append(result)
            elif result.reason is NEGATIVE_FOUND:
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
    """Parse one record; a line ``json.loads`` refuses fails with its error."""
    doc_id, index, rule_id, category, label, spans, excerpt = _record_fields(json.loads(line))
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


# A line exactly as ``annotation_to_json`` writes it, with strings that the
# decoder reads as written (no '"', '\\' or control character) and integers
# of at most 100 digits (longer ones meet Python's int-digit limit in the
# decoder), perhaps followed by "\r", "\n" or "\r\n"; groups: doc_id,
# sentence_index, class_label.  Digits are [0-9], since \d also takes
# digits that JSON refuses.  Compiled on first use (by the re module's cache).
_TEXT = r'[^"\\\x00-\x1f]*'
_INT = r"-?(?:0|[1-9][0-9]{0,99})"
_SPAN = rf"\[{_INT}, {_INT}\]"
_CANONICAL_LINE = (
    rf'\{{"doc_id": "({_TEXT})", "sentence_index": ({_INT}), '
    rf'"rule_id": "{_TEXT}", "category": "{_TEXT}", "class_label": "({_TEXT})", '
    rf'"positive_marker_spans": \[(?:{_SPAN}(?:, {_SPAN})*)?\], '
    rf'"excerpt_span": (?:{_SPAN}|null)\}}\r?\n?\Z'
)


def load_annotations(lines: str | Iterable[str]) -> set[tuple[str, int, str]]:
    """The (doc_id, sentence_index, class_label) triples of a JSON Lines
    dump; a line of whitespace is skipped and a bad record fails naming
    its line.

    The dump is its text, split at "\\n" only, or its lines, as a file
    opened by ``resources.parse_lines`` gives them, with the file's line
    ends read as ``Path.read_text`` reads them (a lone "\\r" ends a line).
    Each doc id and label is kept once (``sys.intern``), so triples share
    them with the gold ones.
    """
    if isinstance(lines, str):
        lines = lines.split("\n")
    match = re.compile(_CANONICAL_LINE).match
    intern = sys.intern
    triples: set[tuple[str, int, str]] = set()
    for lineno, line in enumerate(lines, 1):
        m = match(line)
        if m is not None:
            doc_id, index, label = m.groups()
        elif not line.strip():
            continue
        else:
            try:
                ann = annotation_from_json(line.removesuffix("\n"))
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise AnnotationFormatError(f"line {lineno}: {problem}") from None
            doc_id, index, label = ann.doc_id, ann.sentence_index, ann.class_label
        triples.add((intern(doc_id), int(index), intern(label)))
    return triples
