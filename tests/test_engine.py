from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import codec_ref
import scan_ref
from arfuture import engine as engine_mod
from arfuture.corpus import make_document
from arfuture.engine import (
    Annotation,
    AnnotationFormatError,
    RejectionTrace,
    RejectReason,
    StartTable,
    annotation_from_json,
    annotation_to_json,
    classify_sentence_results,
    dump_annotations,
    iter_rule_results,
    load_annotations,
)
from arfuture.evaluate import GoldAnnotation
from arfuture.morpho import MorphVerdict, Verdict
from arfuture.report import _Decoration
from arfuture.resources import parse_lines
from arfuture.rules import parse_rules, parse_semantic_map, parse_variable_defs
from arfuture.segment import Sentence, Token, TokenKind, segment, tokenize

from oracle import generate_sentence, oracle_marker_spans
from spans import byte_slice
from timing import assert_linear

MAP = parse_semantic_map("مستقبل\n")
NO_VARS = parse_variable_defs("")


def one_sentence(text: str) -> Sentence:
    got = segment(text, doc_id="d")
    assert len(got) == 1
    return got[0]


def marker_words(sentence: Sentence, ann: Annotation) -> list[str]:
    return [byte_slice(sentence.text, span) for span in ann.positive_marker_spans]


class TestMatchRule:
    def test_qad_with_verified_verb(self, rules_by_id, lexicons):
        s = one_sentence("وتحدث عن الخطر الذي قد يترتب جراء ذلك")
        result = next(iter_rule_results(rules_by_id["qad"], s, tokenize(s.text), lexicons))
        assert isinstance(result, Annotation)
        assert marker_words(s, result) == ["قد", "يترتب"]

    def test_qad_with_past_verb_rejected(self, rules_by_id, lexicons):
        s = one_sentence("قد درس الطالب")
        result = next(iter_rule_results(rules_by_id["qad"], s, tokenize(s.text), lexicons))
        assert isinstance(result, RejectionTrace)
        assert result.reason is RejectReason.MORPH_REJECTED

    def test_no_marker_anywhere(self, rules_by_id, lexicons):
        s = one_sentence("كتاب على الطاولة")
        result = next(iter_rule_results(rules_by_id["sawfa"], s, tokenize(s.text), lexicons))
        assert isinstance(result, RejectionTrace)
        assert result.reason is RejectReason.POSITIVE_NOT_FOUND

    def test_qad_verb_after_punctuation(self, rules_by_id, lexicons):
        s = one_sentence('قد "يترتب" ذلك')
        result = next(iter_rule_results(rules_by_id["qad"], s, tokenize(s.text), lexicons))
        assert isinstance(result, Annotation)

    def test_siin_skips_stoplisted_then_matches_later(self, rules_by_id, lexicons):
        s = one_sentence("التقى سيمون وقال ان الوضع سيتحسن قريبا")
        result = next(iter_rule_results(rules_by_id["sin"], s, tokenize(s.text), lexicons))
        assert isinstance(result, Annotation)
        assert marker_words(s, result) == ["سيتحسن"]

    def test_siin_only_stoplist_gives_morph_trace(self, rules_by_id, lexicons):
        s = one_sentence("وصل سيمون الى بيروت")
        result = next(iter_rule_results(rules_by_id["sin"], s, tokenize(s.text), lexicons))
        assert isinstance(result, RejectionTrace)
        assert result.reason is RejectReason.MORPH_REJECTED


class TestClassifySentence:
    def test_sawfa_example_gets_both_classes(self, ruleset, lexicons):
        s = one_sentence("الضغوط سوف تتزايد وبما سيؤثر سلبا على الوضع")
        anns, _ = classify_sentence_results(s, tokenize(s.text), ruleset, lexicons)
        labels = {a.class_label for a in anns}
        assert labels == {"sawfa", "sin"}

    def test_lan_example(self, ruleset, lexicons):
        s = one_sentence("الاستقالة لن تؤدي بين ليلة وضحاها الى تغيير الوضع")
        anns = classify_sentence_results(s, tokenize(s.text), ruleset, lexicons)[0]
        assert [a.class_label for a in anns] == ["lan"]

    def test_empty_sentence(self, ruleset, lexicons):
        s = Sentence(doc_id="d", index=0, span=(0, 0), text="")
        assert classify_sentence_results(s, tokenize(s.text), ruleset, lexicons)[0] == []

    def test_rule_order_then_position_order(self, ruleset, lexicons):
        s = one_sentence("سوف يصل ثم سوف يغادر وفي الختام قد يتكلم")
        anns = classify_sentence_results(s, tokenize(s.text), ruleset, lexicons)[0]
        rule_sequence = [a.rule_id for a in anns]
        assert rule_sequence == sorted(
            rule_sequence, key=lambda rid: [r.id for r in ruleset].index(rid)
        )
        sawfa_spans = [a.positive_marker_spans[0][0] for a in anns if a.rule_id == "sawfa"]
        assert sawfa_spans == sorted(sawfa_spans)

    def test_multiple_matches_of_one_rule(self, rules_by_id, lexicons):
        s = one_sentence("سوف يصل اليوم ثم سوف يغادر غدا")
        anns = [
            r
            for r in iter_rule_results(rules_by_id["sawfa"], s, tokenize(s.text), lexicons)
            if isinstance(r, Annotation)
        ]
        assert len(anns) == 2

    def test_order_invariance_of_rules(self, ruleset, lexicons):
        s = one_sentence("من المتوقع ان يتحسن الوضع وقد يرتفع النمو")
        tokens = tokenize(s.text)
        full = classify_sentence_results(s, tokens, ruleset, lexicons)[0]
        for rule in ruleset:
            alone = classify_sentence_results(s, tokens, [rule], lexicons)[0]
            assert alone == [a for a in full if a.rule_id == rule.id]

    def test_field_monotonicity(self, lexicons):
        rules = parse_rules("r: قد > سوف -> مستقبل\n", NO_VARS, MAP)
        s = one_sentence("قد يصل ثم سوف يغادر")
        anns = classify_sentence_results(s, tokenize(s.text), rules, lexicons)[0]
        assert len(anns) == 1
        spans = anns[0].positive_marker_spans
        assert spans[0][1] <= spans[1][0]

    def test_negative_cancellation(self, lexicons):
        plain = parse_rules("r: سوف -> مستقبل\n", NO_VARS, MAP)
        negated = parse_rules("r: -قبل > سوف -> مستقبل\n", NO_VARS, MAP)
        text = "قال قبل يومين ان الوضع سوف يتحسن"
        s = one_sentence(text)
        tokens = tokenize(s.text)
        assert classify_sentence_results(s, tokens, plain, lexicons)[0]
        anns, traces = classify_sentence_results(s, tokens, negated, lexicons)
        assert anns == []
        negative_traces = [t for t in traces if t.reason is RejectReason.NEGATIVE_FOUND]
        assert len(negative_traces) == 1
        assert negative_traces[0].negative_field_span is not None

    def test_injected_negative_cancels_every_bundled_rule(self, ruleset, lexicons):
        from arfuture.rules import LinguisticForm, Polarity as Pol, parse_pattern

        matching_text = {
            "participle": "من المتوقع ان يتحسن الوضع غدا",
            "sin": "الوضع سيتحسن في البلاد غدا",
            "qad": "الخطر قد يترتب على ذلك غدا",
            "past_verb": "توقع الصندوق نموا كبيرا غدا",
            "present_verb": "يتوقع الصندوق نموا كبيرا غدا",
            "sawfa": "الوضع سوف يتحسن قريبا غدا",
            "lan": "الوضع لن يتغير قريبا غدا",
        }
        negative = LinguisticForm(polarity=Pol.NEGATIVE, pattern=parse_pattern("غدا"))
        for rule in ruleset:
            s = one_sentence(matching_text[rule.id])
            tokens = tokenize(s.text)
            assert classify_sentence_results(s, tokens, [rule], lexicons)[0], rule.id
            poisoned = rule._replace(forms=(negative,) + rule.forms)
            anns, traces = classify_sentence_results(s, tokens, [poisoned], lexicons)
            assert anns == [], rule.id
            assert any(t.reason is RejectReason.NEGATIVE_FOUND for t in traces), rule.id

    def test_search_field_truncation(self, lexicons):
        near = parse_rules("r: قد > سوف@2 -> مستقبل\n", NO_VARS, MAP)
        s = one_sentence("قد جاء اليوم تقرير يقول سوف يتحسن الوضع")
        assert classify_sentence_results(s, tokenize(s.text), near, lexicons)[0] == []
        results = iter_rule_results(near[0], s, tokenize(s.text), lexicons)
        assert any(t.reason is RejectReason.POSITIVE_NOT_FOUND for t in results)
        wide = parse_rules("r: قد > سوف@6 -> مستقبل\n", NO_VARS, MAP)
        assert classify_sentence_results(s, tokenize(s.text), wide, lexicons)[0]

    def test_field_length_counts_words_not_punctuation(self, lexicons):
        rules = parse_rules("r: قد > سوف@2 -> مستقبل\n", NO_VARS, MAP)
        # سوف is the second word after قد; the quotes in between do not count
        s = one_sentence('قد جاء " " سوف يتحسن')
        assert classify_sentence_results(s, tokenize(s.text), rules, lexicons)[0]

    def test_results_keep_only_negative_found_traces(self, ruleset, lexicons):
        s = one_sentence("وصل سيمون الى بيروت قبل قد درس الطالب")
        tokens = tokenize(s.text)
        every = [r for rule in ruleset for r in iter_rule_results(rule, s, tokens, lexicons)]
        assert {r.reason for r in every} == {
            RejectReason.POSITIVE_NOT_FOUND, RejectReason.MORPH_REJECTED
        }
        assert classify_sentence_results(s, tokens, ruleset, lexicons) == ([], [])
        negated = parse_rules("r: سوف > -قبل@2 -> مستقبل\n", NO_VARS, MAP)
        s = one_sentence("سوف يصل قبل المساء")
        _, traces = classify_sentence_results(s, tokenize(s.text), ruleset + negated, lexicons)
        assert [t.reason for t in traces] == [RejectReason.NEGATIVE_FOUND]

    def test_negative_field_span_covers_searched_words(self, lexicons):
        rules = parse_rules("r: سوف > -قبل@2 -> مستقبل\n", NO_VARS, MAP)
        s = one_sentence("سوف يصل قبل المساء")
        anns, traces = classify_sentence_results(s, tokenize(s.text), rules, lexicons)
        assert anns == []
        t = traces[0]
        assert t.reason is RejectReason.NEGATIVE_FOUND
        assert "قبل" in byte_slice(s.text, t.negative_field_span)


class TestMorphGating:
    def test_removing_qad_flag_never_decreases_hits(self, rules_by_id, lexicons):
        gated = rules_by_id["qad"]
        ungated = parse_rules("qad: (و|ف)؟قد -> مستقبل\n", NO_VARS, MAP)[0]
        rng = random.Random(31)
        for _ in range(150):
            text = generate_sentence(rng)
            s = one_sentence(text) if segment(text) else None
            if s is None:
                continue
            tokens = tokenize(s.text)
            with_gate = [
                r for r in iter_rule_results(gated, s, tokens, lexicons)
                if isinstance(r, Annotation)
            ]
            without = [
                r for r in iter_rule_results(ungated, s, tokens, lexicons)
                if isinstance(r, Annotation)
            ]
            assert len(without) >= len(with_gate)

    def test_gate_strictly_increases_on_rejected_qad(self, rules_by_id, lexicons):
        ungated = parse_rules("qad: (و|ف)؟قد -> مستقبل\n", NO_VARS, MAP)[0]
        s = one_sentence("قد درس الطالب")
        tokens = tokenize(s.text)
        gated_hits = [
            r for r in iter_rule_results(rules_by_id["qad"], s, tokens, lexicons)
            if isinstance(r, Annotation)
        ]
        ungated_hits = [
            r for r in iter_rule_results(ungated, s, tokens, lexicons)
            if isinstance(r, Annotation)
        ]
        assert len(ungated_hits) > len(gated_hits)


class TestAnalyzeDocument:
    def test_empty_body(self, engine):
        doc = make_document(url="http://x", title="", body="")
        # the Document type forbids empty bodies at ingestion; the engine
        # still degrades gracefully
        assert engine.analyze(doc).annotations == ()

    def test_mini_corpus_covers_all_classes(self, engine, mini_docs):
        labels = set()
        total = 0
        for doc in mini_docs:
            anns = engine.analyze(doc).annotations
            total += len(anns)
            labels |= {a.class_label for a in anns}
        assert labels == {"qad", "sin", "lan", "sawfa", "participle", "past_verb", "present_verb"}
        assert total >= 8

    def test_stable_ordering(self, engine, mini_docs):
        for doc in mini_docs:
            anns = engine.analyze(doc).annotations
            keys = [(a.sentence_index,) for a in anns]
            assert keys == sorted(keys)

    def test_marker_spans_ordered_and_disjoint(self, engine, mini_docs):
        for doc in mini_docs:
            for ann in engine.analyze(doc).annotations:
                spans = ann.positive_marker_spans
                assert spans
                for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                    assert a1 < b1 <= a2 < b2

    def test_rerun_identical(self, engine, mini_docs):
        first = engine.analyze_corpus(mini_docs)
        second = engine.analyze_corpus(mini_docs)
        assert [a.annotations for a in first] == [a.annotations for a in second]

    def test_long_unpunctuated_sentence_costs_linear_time(self, engine):
        # each repeat is a candidate start of the lan rule, which fires on it
        small, large = (
            make_document(url="http://x", title="", body="لن يتغير الدين " * k)
            for k in (2000, 8000)
        )
        assert len(engine.analyze(small).annotations) == 2000
        assert_linear(engine.analyze, small, large, limit=None)


class TestOracleEquivalence:
    def test_engine_matches_bruteforce_on_templates(self, ruleset, lexicons):
        rng = random.Random(777)
        checked = 0
        for _ in range(250):
            text = generate_sentence(rng)
            sentences = segment(text, doc_id="d")
            if not sentences:
                continue
            s = sentences[0]
            tokens = tokenize(s.text)
            for rule in ruleset:
                got = {
                    a.positive_marker_spans
                    for a in iter_rule_results(rule, s, tokens, lexicons)
                    if isinstance(a, Annotation)
                }
                want = set(oracle_marker_spans(rule, tokens, lexicons))
                assert got == want, (rule.id, text)
            checked += 1
        assert checked > 200


# Words the generated rules and sentences share: particles, verbs that pass
# the qad and siin gates, siin-words that fail them (a stoplisted proper
# noun, a noun), punctuation and digits.
_GEN_WORDS = [
    "قد", "وقد", "سوف", "لن", "قبل", "غدا", "يصل", "يتحسن", "تترتب", "سيتحسن",
    "وسيتحسن", "فسيصل", "سيمون", "سلام", "س", "درس", "،", '"', "12",
]
_GEN_PATTERNS = [
    "قد", "(و|ف)؟قد", "سوف", "لن", "قبل", "غدا", "سوف يتحسن", "قبل (غدا|يصل)",
    "(سوف|لن)", "(و|ف)؟س", "س",
]
_SIIN_PATTERNS = ["(و|ف)؟س", "س", "سي", "(و)؟س"]


@st.composite
def _rule_line(draw, rule_id: str) -> str:
    """A rule of 1-3 forms, each maybe negative and capped with ``@N``,
    with at least one positive form, and a qad or siin gate or none."""
    morph = draw(st.sampled_from([None, "qad", "siin"]))
    n_forms = draw(st.integers(1, 3))
    negative = [n_forms > 1 and draw(st.booleans()) for _ in range(n_forms)]
    if all(negative):
        negative[-1] = False
    last_positive = max(i for i, neg in enumerate(negative) if not neg)
    forms = []
    for i, neg in enumerate(negative):
        siin = morph == "siin" and i == last_positive
        pattern = draw(st.sampled_from(_SIIN_PATTERNS if siin else _GEN_PATTERNS))
        cap = draw(st.sampled_from(["", "", "@1", "@2", "@4"]))
        forms.append(("-" if neg else "") + pattern + cap)
    directives = [f"morph={morph}"] if morph else []
    if draw(st.booleans()):
        directives.append("extract=from-marker-to-end")
    tail = f" [{', '.join(directives)}]" if directives else ""
    return f"{rule_id}: {' > '.join(forms)} -> مستقبل{tail}\n"


@st.composite
def _generated_ruleset(draw):
    n_rules = draw(st.integers(1, 3))
    text = "".join(draw(_rule_line(f"r{i}")) for i in range(n_rules))
    return parse_rules(text, NO_VARS, MAP)


def _typed(results) -> list:
    return [(type(r), r) for r in results]


class TestCandidateStarts:
    """The candidate-start scan gives every record the full-range scan of
    ``scan_ref`` gives, with and without the ruleset table's starts."""

    @settings(max_examples=400, deadline=None)
    @given(
        ruleset=_generated_ruleset(),
        words=st.lists(st.sampled_from(_GEN_WORDS), max_size=14),
        punct_transparent=st.booleans(),
    )
    def test_matches_reference_scan(self, lexicons, ruleset, words, punct_transparent):
        text = " ".join(words)
        sentence = Sentence("d", 0, (0, len(text.encode())), text)
        tokens = tokenize(text)
        table_starts = StartTable(ruleset).starts(tokens)
        want_annotations, want_traces = [], []
        for r, rule in enumerate(ruleset):
            want = _typed(scan_ref.iter_rule_results(
                rule, sentence, tokens, lexicons, punct_transparent=punct_transparent
            ))
            alone = iter_rule_results(
                rule, sentence, tokens, lexicons, punct_transparent=punct_transparent
            )
            assert _typed(alone) == want
            tabled = iter_rule_results(
                rule, sentence, tokens, lexicons,
                punct_transparent=punct_transparent, starts=table_starts.get(r, []),
            )
            assert _typed(tabled) == want
            for kind, result in want:
                if kind is Annotation:
                    want_annotations.append(result)
                elif result.reason is RejectReason.NEGATIVE_FOUND:
                    want_traces.append(result)
        assert classify_sentence_results(
            sentence, tokens, ruleset, lexicons, punct_transparent=punct_transparent
        ) == (want_annotations, want_traces)

    def test_rule_without_candidates_yields_one_trace(self, rules_by_id, lexicons):
        s = one_sentence("الوضع مستقر اليوم")
        tokens = tokenize(s.text)
        for rule in rules_by_id.values():
            assert StartTable([rule]).starts(tokens) == {}
            assert list(iter_rule_results(rule, s, tokens, lexicons, starts=[])) == [
                RejectionTrace("d", 0, rule.id, 0, RejectReason.POSITIVE_NOT_FOUND)
            ]

    def test_table_keys_siin_prefixes_once_per_token(self, rules_by_id):
        table = StartTable([rules_by_id["sin"], rules_by_id["sawfa"]])
        tokens = tokenize("س سوف وسيتحسن سلام كتب")
        # سوف starts both rules: as a word for sawfa, by its prefix for sin
        assert table.starts(tokens) == {0: [0, 1, 2, 3], 1: [1]}


class TestCallStructure:
    """``Engine.analyze`` calls the module functions the benchmark wraps:
    ``tokenize`` and ``classify_sentence_results`` once per sentence and
    ``iter_rule_results`` once per (rule, sentence)."""

    def test_wrapped_run_counts_like_reference_scan(self, engine, mini_docs, monkeypatch):
        plain = [engine.analyze(d) for d in mini_docs]
        calls: Counter = Counter()
        counts: Counter = Counter()

        def counting(name):
            fn = getattr(engine_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def rule_results(rule, sentence, *args, **kwargs):
            calls[rule.id, sentence.doc_id, sentence.index] += 1
            results = list(original(rule, sentence, *args, **kwargs))
            for result in results:
                reason = "fired" if isinstance(result, Annotation) else result.reason
                counts[rule.id, reason] += 1
            return results

        original = engine_mod.iter_rule_results
        monkeypatch.setattr(engine_mod, "tokenize", counting("tokenize"))
        monkeypatch.setattr(
            engine_mod, "classify_sentence_results", counting("classify_sentence_results")
        )
        monkeypatch.setattr(engine_mod, "iter_rule_results", rule_results)
        wrapped = [engine.analyze(d) for d in mini_docs]
        monkeypatch.undo()

        assert wrapped == plain
        sentences = [s for a in plain for s in a.sentences]
        assert calls.pop("tokenize") == calls.pop("classify_sentence_results") == len(sentences)
        assert calls == Counter(
            {(rule.id, s.doc_id, s.index): 1 for rule in engine.ruleset for s in sentences}
        )
        reference: Counter = Counter()
        for s in sentences:
            tokens = tokenize(s.text)
            for rule in engine.ruleset:
                for result in scan_ref.iter_rule_results(rule, s, tokens, engine.lexicons):
                    reason = "fired" if isinstance(result, Annotation) else result.reason
                    reference[rule.id, reason] += 1
        assert counts == reference


def _record(ann: Annotation) -> dict:
    return {
        "doc_id": ann.doc_id,
        "sentence_index": ann.sentence_index,
        "rule_id": ann.rule_id,
        "category": ann.category,
        "class_label": ann.class_label,
        "positive_marker_spans": [list(s) for s in ann.positive_marker_spans],
        "excerpt_span": list(ann.excerpt_span) if ann.excerpt_span else None,
    }


def _outcome(load, text: str):
    """The records or triples, or the error's type, line number and message."""
    try:
        return load(text)
    except AnnotationFormatError as exc:
        lineno, message = str(exc).split(": ", 1)
        return type(exc), int(lineno.removeprefix("line ")), message


def _triples(outcome):
    """The (doc, sentence, class) triples of a list of records; an error
    outcome as it is."""
    if isinstance(outcome, tuple):
        return outcome
    return {(a.doc_id, a.sentence_index, a.class_label) for a in outcome}


def _decode_each_line(text: str) -> list[Annotation]:
    """Every record of a dump split at "\\n", each line decoded with
    ``annotation_from_json``, failing as ``load_annotations`` does."""
    records = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            records.append(annotation_from_json(line))
        except KeyError as exc:
            raise AnnotationFormatError(f"line {lineno}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise AnnotationFormatError(f"line {lineno}: {exc}") from None
    return records


_SPAN = st.tuples(st.integers(), st.integers())
#: text weighted toward the characters str.splitlines breaks at, which a
#: record holds raw (U+2028, U+2029, U+0085) or escaped (the rest)
_BREAKING_TEXT = st.text(st.sampled_from("\u2028\u2029\x85\r\n\x0b\x0c\x1c") | st.characters())
#: text the reference, which splits with str.splitlines, keeps on one line
_LINE_TEXT = st.text(st.characters(blacklist_characters="\u2028\u2029\x85"))
#: strings for records that share them, some of which JSON escapes
_SHARED_TEXT = ["d", "qad", "مستقبل", 'a"b', "c\\d", "t\tab", "\x00", " "]
_PADDING = st.text(" \t", max_size=2)
_BLANK_LINE = st.text(" \t\xa0\u3000\x1f", max_size=3)


def annotations(text, excerpt=st.none() | _SPAN):
    return st.builds(
        Annotation, text, st.integers(), text, text, text,
        st.lists(_SPAN).map(tuple), excerpt,
    )


def _bad_line(good: str):
    """A line built around the valid line ``good``, most often one the
    reference refuses."""
    record = json.loads(good)
    fields = list(record)
    junk = st.sampled_from([None, True, False, 1.5, "04", [], [0], [0, 1, 2], [True, 1],
                            [0, 1.5], [[0, 4]], {}, "x"])

    def replaced(pair):
        name, value = pair
        return json.dumps({**record, name: value}, ensure_ascii=False)

    def without(name):
        return json.dumps({k: v for k, v in record.items() if k != name})

    return st.one_of(
        st.sampled_from(["[1, 2]", '"x"', "3", "null", "true", "{}", "{", "", "\ufeff" + good]),
        st.sampled_from(fields).map(without),
        st.tuples(st.sampled_from(fields), junk).map(replaced),
        st.tuples(st.sampled_from(["positive_marker_spans"]), junk.map(lambda v: [[0, 4], v]))
        .map(replaced),
        st.sampled_from([" x", "{}", ",", "]", " \xa0", "\x1f"]).map(lambda tail: good + tail),
        st.sampled_from(["x", "\xa0", "\x1f", ","]).map(lambda head: head + good),
        st.just(good[:-1]),
        _LINE_TEXT.filter(lambda t: t.strip() and t.splitlines() == [t]),
    )


class TestAnnotationDump:
    def test_jsonl_round_trip(self, engine, mini_docs):
        anns = [a for d in mini_docs for a in engine.analyze(d).annotations]
        text = dump_annotations(anns)
        assert _decode_each_line(text) == anns
        assert load_annotations(text) == _triples(anns)
        assert text.count("\n") == len(anns)

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(
            Annotation,
            st.text(),
            st.integers(),
            st.text(),
            st.text(),
            st.text(),
            st.lists(st.tuples(st.integers(), st.integers())).map(tuple),
            st.none() | st.tuples(st.integers(), st.integers()),
        )
    )
    def test_json_round_trip_of_any_annotation(self, ann):
        line = annotation_to_json(ann)
        back = annotation_from_json(line)
        assert type(back) is Annotation and back == ann
        # the shared encoder writes what json.dumps wrote for the same record
        record = {
            "doc_id": ann.doc_id,
            "sentence_index": ann.sentence_index,
            "rule_id": ann.rule_id,
            "category": ann.category,
            "class_label": ann.class_label,
            "positive_marker_spans": [list(s) for s in ann.positive_marker_spans],
            "excerpt_span": list(ann.excerpt_span) if ann.excerpt_span else None,
        }
        assert line == json.dumps(record, ensure_ascii=False, separators=(", ", ": "))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(annotations(st.text(), excerpt=st.none() | st.just(()) | _SPAN)))
    def test_dump_writes_the_json_dumps_lines(self, anns):
        assert dump_annotations(anns) == "".join(
            json.dumps(_record(ann), ensure_ascii=False, separators=(", ", ": ")) + "\n"
            for ann in anns
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.builds(
            Annotation,
            st.sampled_from(_SHARED_TEXT), st.sampled_from([0, 1, 7]),
            st.sampled_from(_SHARED_TEXT), st.sampled_from(_SHARED_TEXT),
            st.sampled_from(_SHARED_TEXT), st.lists(_SPAN, max_size=2).map(tuple),
            st.none() | _SPAN,
        ),
        min_size=2, max_size=12,
    ))
    def test_dump_of_records_sharing_strings_writes_the_json_dumps_lines(self, anns):
        """Records whose doc ids, rule ids, categories and labels repeat, in
        the same and in other combinations, each get their own line."""
        lines = dump_annotations(anns).split("\n")
        assert lines.pop() == ""
        assert lines == [
            json.dumps(_record(ann), ensure_ascii=False, separators=(", ", ": "))
            for ann in anns
        ]

    @pytest.mark.parametrize("excerpt", [None, ()])
    def test_missing_or_empty_excerpt_is_null(self, excerpt):
        line = annotation_to_json(Annotation("d", 0, "r", "c", "qad", (), excerpt))
        assert line.endswith('"positive_marker_spans": [], "excerpt_span": null}')

    @settings(max_examples=200, deadline=None)
    @given(st.lists(annotations(_BREAKING_TEXT), max_size=4))
    def test_load_reads_back_every_dump(self, anns):
        text = dump_annotations(anns)
        crlf = text.replace("\n", "\r\n")
        assert _decode_each_line(text) == _decode_each_line(crlf) == anns
        assert load_annotations(text) == load_annotations(crlf) == _triples(anns)

    def test_line_separators_stay_inside_records(self):
        ann = Annotation("d\u2028x\u2029y\x85z", 0, "qad", "c", "qad", ((0, 4),), None)
        assert _decode_each_line(dump_annotations([ann])) == [ann]
        assert load_annotations(dump_annotations([ann])) == _triples([ann])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(annotations(_LINE_TEXT), _PADDING, _PADDING), max_size=6),
        st.lists(_BLANK_LINE),
        st.randoms(use_true_random=False),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_load_matches_reference_on_valid_dumps(self, padded, blanks, rng, newline):
        lines = [f"{before}{annotation_to_json(ann)}{after}" for ann, before, after in padded]
        for blank in blanks:
            lines.insert(rng.randint(0, len(lines)), blank)
        text = newline.join(lines) + rng.choice(["", newline])
        records = codec_ref.load_annotations(text)
        assert _decode_each_line(text) == records == [ann for ann, _, _ in padded]
        assert load_annotations(text) == _triples(records)

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(annotations(_LINE_TEXT), max_size=4),
        st.data(),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_load_fails_like_reference_on_a_bad_line(self, anns, data, newline):
        good = annotation_to_json(Annotation("d", 0, "r", "c", "qad", ((0, 4),), (0, 9)))
        bad = data.draw(_bad_line(good))
        lines = [annotation_to_json(ann) for ann in anns]
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
        text = newline.join(lines) + newline
        expected = _outcome(codec_ref.load_annotations, text)
        for got, want in [
            (_outcome(_decode_each_line, text), expected),
            (_outcome(load_annotations, text), _triples(expected)),
        ]:
            if isinstance(want, tuple):  # an error
                assert got[:2] == want[:2]
                # the messages differ only in a column past a kept "\r"
                if newline == "\n":
                    assert got == want
            else:
                assert got == want

    def test_bad_line_many_lines_in_is_named(self, tmp_path):
        good = annotation_to_json(Annotation("d", 0, "r", "مستقبل", "qad", ((0, 4),), (0, 9)))
        lines = [good] * 2000
        lines[1500] = "{not json"
        path = tmp_path / "a.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = _outcome(load_annotations, parse_lines(path, list))
        assert got[:2] == (AnnotationFormatError, 1501)

    @pytest.mark.parametrize(
        "bad",
        [
            "[1, 2]", '"x"', "3", "null",
            '{"doc_id": "d"}',
            '{"doc_id": "d", "sentence_index": true, "rule_id": "r", "category": "c", '
            '"class_label": "qad", "positive_marker_spans": [], "excerpt_span": null}',
            '{"doc_id": "d", "sentence_index": 0, "rule_id": "r", "category": "c", '
            '"class_label": "qad", "positive_marker_spans": [[0, 4]], "excerpt_span": [0]} x',
            '\xa0{"doc_id": "d"}',
            '\ufeff{"doc_id": "d", "sentence_index": 0, "rule_id": "r", "category": "c", '
            '"class_label": "qad", "positive_marker_spans": [[0, 4]], "excerpt_span": null}',
        ],
    )
    def test_bad_line_fails_with_the_reference_message(self, bad):
        text = f"\n  \t\n{bad}\r\n"
        got = _outcome(load_annotations, text)
        assert got[1] == 3 and got == _outcome(codec_ref.load_annotations, text)


#: text a canonical line holds as written: Arabic and ASCII with no '"' or '\'
_PLAIN_TEXT = st.text(st.sampled_from("سوف قد لن يتحسن az09:,{}[]-\x7f"), max_size=8)
#: integers around the 100 digits the pattern takes, and small ones
_INTS = st.integers(-3, 30) | st.integers() | st.sampled_from(
    [10**99, 10**100, -(10**99), -(10**100), 10**100 - 1]
)
_PLAIN_SPAN = st.tuples(_INTS, _INTS)


def _dump_lines(text, spans=_PLAIN_SPAN):
    return st.builds(
        Annotation, text, _INTS, text, text, text,
        st.lists(spans, max_size=3).map(tuple), st.none() | spans,
    ).map(annotation_to_json)


_PLAIN_LINE = _dump_lines(_PLAIN_TEXT)
#: a line of the reader's other path: escaped strings, padding or blank
_OTHER_LINE = st.one_of(
    _dump_lines(_LINE_TEXT, _SPAN),
    st.tuples(_PADDING, _PLAIN_LINE, _PADDING).map("".join),
    _BLANK_LINE,
)
_DUMP_LINE = st.tuples(
    st.one_of(_PLAIN_LINE, _PLAIN_LINE, _PLAIN_LINE, _OTHER_LINE),
    st.sampled_from(["\n", "\n", "\r\n"]),
).map("".join)

#: one edit to a canonical line: Unicode digits, JSON the writer never
#: gives, escapes, raw control characters, long integers, and a "\r" at its
#: end, which the pattern also takes
_EDITS = [
    ('"sentence_index": 0', '"sentence_index": ٣'),
    ('"sentence_index": 0', '"sentence_index": 1٣'),
    ('"sentence_index": 0', '"sentence_index": ０'),
    ('"sentence_index": 0', '"sentence_index": 00'),
    ('"sentence_index": 0', '"sentence_index": -0'),
    ('"sentence_index": 0', '"sentence_index": +1'),
    ('"sentence_index": 0', '"sentence_index": -'),
    ('"sentence_index": 0', '"sentence_index": 1.0'),
    ('"sentence_index": 0', '"sentence_index": 1e2'),
    ('"sentence_index": 0', '"sentence_index": ' + "7" * 101),
    ('"sentence_index": 0', '"sentence_index": ' + "7" * 5000),
    ("[[0, 4]]", "[[٠, 4]]"),
    ("[[0, 4]]", "[[0, 4٠]]"),
    ("[[0, 4]]", "[[0, 4], ]"),
    ("[[0, 4]]", "[[0,4]]"),
    ("[[0, 4]]", "[[0, 4, 5]]"),
    ("[[0, 4]]", "[[0, -" + "9" * 120 + "]]"),
    ("[[0, 4]]", "[[0, " + "9" * 5000 + "]]"),
    ('"excerpt_span": [0, 9]', '"excerpt_span": []'),
    ('"excerpt_span": [0, 9]', '"excerpt_span": NaN'),
    ('"doc_id": "d"', '"doc_id": "d\\u0041"'),
    ('"doc_id": "d"', '"doc_id": "d\\/"'),
    ('"doc_id": "d"', '"doc_id": "d\\x"'),
    ('"doc_id": "d"', '"doc_id": "d\\"'),
    ('"doc_id": "d"', '"doc_id": "d\x01"'),
    ('"doc_id": "d"', '"doc_id": "d\t"'),
    ('"class_label": "qad"', '"class_label": "q\\"ad"'),
    ('"class_label": "qad"', '"class_label":"qad"'),
    ('"rule_id": "r"', '"rule_id": "r\\\\"'),
    ('"rule_id": "r"', '"rule_id": 5'),
    ("}", "}\r"),
    ("}", "} "),
    ("{", " {"),
]


def _near_canonical(good: str):
    return st.sampled_from(_EDITS).map(lambda edit: good.replace(*edit, 1))


class TestTripleReader:
    """``load_annotations`` reads canonical lines with one pattern and
    decodes every other line; either way it gives the reference's triples
    and fails on the reference's line with the reference's message."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_DUMP_LINE, max_size=10), st.booleans())
    def test_triples_match_reference_on_valid_dumps(self, lines, final_newline):
        text = "".join(lines)
        if not final_newline:
            text = text.removesuffix("\n")
        assert load_annotations(text) == _triples(codec_ref.load_annotations(text))

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(_PLAIN_LINE, max_size=6),
        st.lists(_PLAIN_LINE, max_size=2),
        st.data(),
        st.sampled_from(["", "\n"]),
    )
    def test_bad_line_after_canonical_lines_fails_like_reference(
        self, before, after, data, end
    ):
        good = annotation_to_json(Annotation("d", 0, "r", "c", "qad", ((0, 4),), (0, 9)))
        bad = data.draw(_near_canonical(good) | _bad_line(good))
        text = "\n".join([*before, bad, *after]) + end
        expected = _triples(_outcome(codec_ref.load_annotations, text))
        assert _outcome(load_annotations, text) == expected

    @pytest.mark.parametrize("edit", _EDITS, ids=lambda edit: repr(edit[1][-12:]))
    def test_each_edit_fails_or_reads_like_reference(self, edit):
        good = annotation_to_json(Annotation("d", 0, "r", "c", "qad", ((0, 4),), (0, 9)))
        lines = [annotation_to_json(Annotation("e", i, "r", "c", "sin", (), None))
                 for i in range(3)]
        text = "\n".join([*lines, good.replace(*edit, 1), *lines]) + "\n"
        assert _outcome(load_annotations, text) == _triples(
            _outcome(codec_ref.load_annotations, text)
        )

    @pytest.mark.parametrize("canonical_head", [0, 700])
    def test_bad_line_deep_in_a_long_run_of_other_lines_is_named(self, canonical_head, tmp_path):
        good = annotation_to_json(Annotation("d", 0, "r", "مستقبل", "qad", ((0, 4),), (0, 9)))
        lines = [good] * 3000
        for i in range(canonical_head, len(lines)):
            lines[i] = " " + lines[i]  # off the pattern: decoded line by line
        lines[2500] = "{not json"
        text = "\n".join(lines) + "\n"
        path = tmp_path / "a.jsonl"
        path.write_text(text, encoding="utf-8")
        got = _outcome(load_annotations, parse_lines(path, list))
        assert got[:2] == (AnnotationFormatError, 2501)
        assert got == _outcome(load_annotations, text) == _outcome(codec_ref.load_annotations, text)

    def test_canonical_lines_take_the_pattern(self, mini_gold_dir, tmp_path, monkeypatch):
        from arfuture.cli import main

        out = tmp_path / "o"
        argv = ["analyze", "--corpus", str(mini_gold_dir), "--out", str(out),
                "--clock", "2020-01-01T00:00"]
        assert main(argv) == 0
        text = (out / "annotations.jsonl").read_text(encoding="utf-8")
        expected = _triples(codec_ref.load_annotations(text))
        assert len(expected) > 10

        def refuse(line):
            raise AssertionError(f"decoded {line!r}")

        monkeypatch.setattr(engine_mod, "annotation_from_json", refuse)
        assert load_annotations(text) == expected
        assert load_annotations(text.removesuffix("\n")) == expected
        assert load_annotations(text.replace("\n", "\r\n")) == expected
        with pytest.raises(AssertionError):
            load_annotations(" " + text)


RECORDS = [
    Annotation("d", 0, "qad", "مستقبل", "qad", ((0, 4), (5, 9)), (0, 20)),
    RejectionTrace("d", 0, "sawfa", 1, RejectReason.NEGATIVE_FOUND, (5, 9), "قبل"),
    _Decoration((0, 4), "field", "negative marker: قبل"),
    MorphVerdict("وسيتحسن", Verdict.OTHER, "و", "سيتحسن"),
    GoldAnnotation("d", 0, "qad"),
    Token((0, 6), TokenKind.WORD, "سوف"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_hashable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert hash(record) == hash(tuple(record))
    assert {record, type(record)(*record)} == {record}
