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
none is rejected without a scan.

A rule's walk over a sentence, ``iter_rule_results``, is one ascending
pass over its candidate starts.  It reads the rule's ``steps``: a tuple
per form, built with the rule, of all that the walk reads of it (its
index, polarity, ``FormIndex``, whether it is the siin form, its ``@N``
cap and the marker text of a negative form).  Each token is tried a
bounded number of times per form, so the walk takes time linear in the
sentence for every rule shape.  A rule's fields cannot be assigned, so
its steps stay those of its forms.  ``iter_rule_results`` reads its
rule once per call, its fields by one unpacking: a derived attribute of
a ``NamedTuple`` subclass, such as ``steps``, is read through the
instance dict.  Both gates read one verdict function, ``morpho._verdict``.

Every rule result is a record: an ``Annotation`` for a match, a
``RejectionTrace`` for a rejection, 7.5 per sentence on the benchmark's
news-dense corpus.  Both are ``NamedTuple``s, as the package's other
immutable records are: hashable, equal to the plain tuple of their
fields, and read through ``_fields``, ``_asdict`` and ``_replace``.  The
rule walk builds them with ``tuple.__new__`` from all their fields, in
half the time of the generated ``__new__``, which checks nothing, and
``classify_sentence_results`` reads a trace's reason by its index.
``import arfuture`` does not load ``dataclasses``.

Annotations are dumped as JSON Lines, one record per line.  A dump
given as a text is split at ``"\n"`` only: U+2028, U+2029 and U+0085,
which are written raw, stay inside their line.  A dump read from a file
has its line ends read as ``Path.read_text`` reads them, so there a lone
``"\r"`` ends a line too.  ``dump_annotations`` writes each record with
one f-string, quoting strings with ``json``'s C escaper once per
(document, rule) of the call, and gives what ``json.dumps(...,
ensure_ascii=False, separators=(", ", ": "))`` gives.
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
from enum import Enum
from json.encoder import encode_basestring as _quote  # the C escaper of ensure_ascii=False
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .corpus import Document
from .morpho import Lexicons, is_future_verb_with_siin, is_present_verb_after_qad
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


#: builds a record of the rule walk from the tuple of all its fields
_record = tuple.__new__


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


def _later_search(
    step: tuple, tokens: Tokens, lex: Lexicons, punct_transparent: bool, lowest: int
) -> Callable[[int], tuple[tuple[int, ...] | None, bool, int]]:
    """``search(q)``: the leftmost match of a later form in its field from
    token q on, for any q at or after ``lowest``, as ``(match, refused,
    field_end)``: the tokens it covers, or None and whether the siin gate
    refused a match inside the field.

    The form is tried once at each token from ``lowest`` on, last first,
    which gives for every token t the leftmost token at or after t where
    it matches and the gate passes (``matched[t]``) or refuses
    (``refused[t]``).  A match that runs past a capped field's end is
    passed over for the next one.  A search is kept by its q, which a
    later attempt may ask again, or ask left of an earlier attempt whose
    form before made a longer match.
    """
    _, _, form, siin, cap, _ = step
    shadows = tokens.shadows
    n_tokens = len(shadows)
    covers: dict[int, tuple[int, ...]] = {}
    matched = [n_tokens] * (n_tokens + 1)
    refused = matched.copy()
    next_match = next_refusal = n_tokens
    for t in range(n_tokens - 1, lowest - 1, -1):
        covered = form.match_at(tokens, t, siin, punct_transparent)
        if covered is not None:
            covers[t] = covered
            if siin and not is_future_verb_with_siin(shadows[covered[-1]], lex):
                next_refusal = t
            else:
                next_match = t
        matched[t] = next_match
        refused[t] = next_refusal
    found: dict[int, tuple] = {}

    def leftmost(after: list[int], q: int, field_end: int) -> int:
        t = after[q]
        while t < field_end and covers[t][-1] >= field_end:
            t = after[t + 1]
        return t

    def search(q: int) -> tuple[tuple[int, ...] | None, bool, int]:
        result = found.get(q)
        if result is None:
            field_end = _field_end(tokens, q, cap) if cap else n_tokens
            t = leftmost(matched, q, field_end)
            if t < field_end:
                result = covers[t], False, field_end
            else:
                result = None, leftmost(refused, q, field_end) < field_end, field_end
            found[q] = result
        return result

    return search


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

    One ascending pass over ``starts``, the candidate starts of the rule's
    first positive form, as ``StartTable.starts`` gives them (by default
    from a table of this rule alone).  A form matches at the leftmost
    token of its field where it matches within the field (and, for the
    siin form, the siin gate passes the word).

    - The forms before the first positive one are negative and search the
      same field in every attempt, so each is tried once: a match rejects
      the rule, and nothing else is yielded.
    - The first positive form is tried once at each start past the first
      positive marker of its match before.  Each match begins an attempt,
      which runs the later forms and yields an annotation or a rejection;
      with no match, one rejection says why.
    - A later form searches from just past the match before it, through
      ``_later_search``, whose searches outlast the attempt.  A matched
      negative form cancels the rule outright.
    """
    rule_id, _, category, label, morph, extract = rule
    positives = rule.positives
    first = positives[0]
    if starts is None:
        starts = StartTable([rule]).starts(tokens).get(0, [])
    doc_id, index = sentence.doc_id, sentence.index
    if not starts and first == 0:
        yield _record(RejectionTrace, (doc_id, index, rule_id, 0, POSITIVE_NOT_FOUND, None, ""))
        return
    steps = rule.steps
    shadows = tokens.shadows
    n_tokens = len(shadows)
    for fi, _, form, _, cap, marker in steps[:first]:
        field_end = _field_end(tokens, 0, cap) if cap else n_tokens
        for t in range(field_end):
            covered = form.match_at(tokens, t, False, punct_transparent)
            if covered is not None and covered[-1] < field_end:
                yield _record(RejectionTrace, (
                    doc_id, index, rule_id, fi, NEGATIVE_FOUND,
                    _tokens_byte_span(tokens, 0, field_end), marker,
                ))
                return
    _, _, form, siin, cap, _ = steps[first]
    field_end = _field_end(tokens, 0, cap) if cap else n_tokens
    later = steps[first + 1:]
    searches = {}  # each later form's search, by its index
    scan_from = 0  # the token past the first positive marker of the last match
    gate_failed = False
    for t in starts:
        if t < scan_from:
            continue
        if t >= field_end:
            break
        covered = form.match_at(tokens, t, siin, punct_transparent)
        if covered is None or covered[-1] >= field_end:
            continue
        if siin and not is_future_verb_with_siin(shadows[covered[-1]], lex):
            gate_failed = True
            continue
        field_start = scan_from = covered[-1] + 1
        marker_tokens = covered
        for step in later:
            fi, negative, _, _, _, marker = step
            search = searches.get(fi)
            if search is None:
                # no later attempt searches left of this one's first field
                search = searches[fi] = _later_search(
                    step, tokens, lex, punct_transparent, scan_from
                )
            m, refused, later_end = search(field_start)
            if negative:
                if m is None:
                    continue
                yield _record(RejectionTrace, (
                    doc_id, index, rule_id, fi, NEGATIVE_FOUND,
                    _tokens_byte_span(tokens, field_start, later_end), marker,
                ))
                return
            if m is None:
                reason = MORPH_REJECTED if refused else POSITIVE_NOT_FOUND
                result = _record(RejectionTrace, (doc_id, index, rule_id, fi, reason, None, ""))
                break
            marker_tokens += m
            field_start = m[-1] + 1
        else:
            result = None
            if morph == "qad":
                # a present verb, not excluded, must follow the last positive
                # marker, which ends just before ``field_start``
                t = _next_word_index(tokens, field_start - 1, punct_transparent)
                if t is None or not is_present_verb_after_qad(shadows[t], lex):
                    result = _record(RejectionTrace, (
                        doc_id, index, rule_id, positives[-1], MORPH_REJECTED, None, ""
                    ))
                else:
                    marker_tokens += (t,)
            if result is None:
                spans = tuple(map(tokens.span, marker_tokens))
                excerpt = None
                if extract == "from-marker-to-end":
                    excerpt = (spans[0][0], len(sentence.text.encode()))
                result = _record(
                    Annotation, (doc_id, index, rule_id, category, label, spans, excerpt)
                )
        yield result
    if not scan_from:  # the first positive form never matched
        reason = MORPH_REJECTED if gate_failed else POSITIVE_NOT_FOUND
        yield _record(RejectionTrace, (doc_id, index, rule_id, first, reason, None, ""))


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
            elif result[4] is NEGATIVE_FOUND:  # its reason, read by index
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
    return dump_annotations([ann])[:-1]


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
    """The JSON Lines of ``annotations``; a line's text around its sentence
    index is built once per (document, rule, category, label)."""
    heads: dict[tuple[str, str, str, str], tuple[str, str]] = {}
    lines = []
    for doc_id, index, rule_id, category, label, spans, excerpt in annotations:
        key = doc_id, rule_id, category, label
        head = heads.get(key)
        if head is None:
            head = heads[key] = (
                f'{{"doc_id": {_quote(doc_id)}, "sentence_index": ',
                f', "rule_id": {_quote(rule_id)}, "category": {_quote(category)}, '
                f'"class_label": {_quote(label)}, "positive_marker_spans": [',
            )
        spans_json = ", ".join(["[%s, %s]" % span for span in spans])
        excerpt_json = "[%s, %s]" % excerpt if excerpt else "null"
        lines.append(f'{head[0]}{index}{head[1]}{spans_json}], "excerpt_span": {excerpt_json}}}\n')
    return "".join(lines)


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
