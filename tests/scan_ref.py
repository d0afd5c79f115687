"""Reference rule scan: every token of the field, for every form.

``arfuture.engine`` tries a rule's first positive form only at the
candidate starts that a ruleset-level first-word table (or the rule's own
``FormIndex``) gives, rejects a rule with no candidate without a scan, and
stops once no candidate is left.  This module keeps the earlier loop,
which visits every token of each search field and attempts the whole
form chain until the first positive form finds nothing, so tests can hold
the two to the same records, rejection reasons and form indices.  The
form-level matching (``FormIndex.match_at``) and the field, gate and
span helpers are shared with the engine.
"""

from __future__ import annotations

from typing import Iterator

from arfuture.engine import (
    Annotation,
    RejectReason,
    RejectionTrace,
    _field_end,
    _next_word_index,
    _tokens_byte_span,
)
from arfuture.morpho import Lexicons, Verdict, analyze_token, is_future_verb_with_siin, strip_clitics
from arfuture.rules import FormIndex, LinguisticRule, Polarity, format_pattern
from arfuture.segment import Sentence, Token


def _scan_positive(
    index: FormIndex,
    tokens: list[Token],
    start_at: int,
    field_end: int,
    prefix_mode: bool,
    siin_gate: Lexicons | None,
    punct_transparent: bool,
) -> tuple[tuple[int, ...] | None, bool]:
    """Leftmost match of a positive form inside [start_at, field_end), as
    the tokens it covers.

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
        if m is None or m[-1] >= field_end:
            continue
        if siin_gate is not None:
            word = tokens[m[-1]].shadow
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
    first_match: tuple[int, ...] | None = None
    matches: list[tuple[int, ...]] = []

    for fi, form in enumerate(rule.forms):
        if form.search_field_words:
            field_end = _field_end(tokens, field_start, form.search_field_words)
        else:
            field_end = len(tokens)
        if form.polarity is Polarity.NEGATIVE:
            m, _ = _scan_positive(
                form.index, tokens, field_start, field_end, False, None, punct_transparent
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
        start_at = max(field_start, scan_from) if fi == first_positive_idx else field_start
        siin_mode = rule.morph == "siin" and fi == last_positive_idx
        m, gate_failed = _scan_positive(
            form.index,
            tokens,
            start_at,
            field_end,
            siin_mode,
            lex if siin_mode else None,
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
        field_start = m[-1] + 1

    marker_tokens = [ti for m in matches for ti in m]

    if rule.morph == "qad":
        verb_idx = _next_word_index(tokens, matches[-1][-1], punct_transparent)
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
            trace = RejectionTrace(
                sentence.doc_id,
                sentence.index,
                rule.id,
                last_positive_idx,
                RejectReason.MORPH_REJECTED,
            )
            return trace, first_match
        marker_tokens.append(verb_idx)

    spans = tuple(tokens[ti].span for ti in marker_tokens)
    excerpt = None
    if rule.extract == "from-marker-to-end" and spans:
        excerpt = (spans[0][0], len(sentence.text.encode()))
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
            scan_from = first_match[-1] + 1
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
        scan_from = first_match[-1] + 1

