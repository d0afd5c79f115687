from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import codec_ref

from arfuture.engine import Annotation
from arfuture.evaluate import (
    CLASS_LABELS,
    GoldAnnotation,
    GoldFormatError,
    distribution,
    dump_gold,
    format_distribution,
    format_results,
    load_gold,
    pct_string,
    predictions_to_triples,
    report_to_json_dict,
    score,
)

# reference per-class gold counts the scoring must reproduce exactly
REFERENCE_GOLD = {
    "qad": 64,
    "sin": 450,
    "lan": 93,
    "sawfa": 26,
    "participle": 47,
    "past_verb": 32,
    "present_verb": 31,
}
REFERENCE_FALSE_POSITIVES = {"qad": 4, "sin": 13, "sawfa": 2}


def synthetic_gold() -> list[GoldAnnotation]:
    gold = []
    for label, count in REFERENCE_GOLD.items():
        for i in range(count):
            gold.append(GoldAnnotation(doc_id=f"{label}-{i}", sentence_index=0, class_label=label))
    return gold


def synthetic_predictions() -> set[tuple[str, int, str]]:
    triples = set(synthetic_gold())
    for label, count in REFERENCE_FALSE_POSITIVES.items():
        for i in range(count):
            triples.add((f"fp-{label}-{i}", 0, label))
    return triples


class TestPctString:
    def test_exact_boundaries(self):
        assert pct_string(64, 68) == "94.11"
        assert pct_string(450, 463) == "97.19"
        assert pct_string(26, 28) == "92.85"
        assert pct_string(743, 762) == "97.50"
        assert pct_string(10, 10) == "100.00"
        assert pct_string(0, 5) == "0.00"

    def test_undefined_marker(self):
        assert pct_string(0, 0) is None

    def test_matches_fraction_oracle(self):
        rng = random.Random(88)
        for _ in range(500):
            numer = rng.randint(0, 1000)
            denom = rng.randint(1, 1000)
            value = Fraction(numer, denom) * 10000
            hundredths = value.numerator // value.denominator
            expected = f"{hundredths // 100}.{hundredths % 100:02d}"
            assert pct_string(numer, denom) == expected


# a gold field: no tab, no line break, no "#" and no surrounding whitespace
_GOLD_FIELD = st.text(min_size=1).filter(
    lambda t: t == t.strip() and "#" not in t and "\t" not in t and t.splitlines() == [t]
)


#: whitespace str.strip removes; int() keeps \x1f but the field is stripped first
_GOLD_PAD = st.text(" \t\xa0\u3000\x1f", max_size=2)


def _gold_row():
    """A gold line: padded fields, sometimes bad, with comments and extra tabs."""
    doc_id = st.sampled_from(["d1", "d2", "مقال"]) | _GOLD_FIELD
    index = st.integers(-2, 3).map(str) | st.sampled_from(["1_0", "+1", "٣", "x", "", "1.0"])
    label = st.sampled_from(CLASS_LABELS) | st.sampled_from(["QAD", "future", ""])
    row = st.tuples(*(st.tuples(_GOLD_PAD, values, _GOLD_PAD).map("".join)
                      for values in (doc_id, index, label))).map("\t".join)
    extra = st.sampled_from(["", "\t", "\t\t", "\tx"])
    comment = st.sampled_from(["", "#", "# note", " #\tc"])
    return st.one_of(
        st.tuples(extra, row, extra, comment).map("".join),
        _GOLD_PAD, comment,
    )


def _gold_outcome(load, text: str):
    try:
        return load(text)
    except GoldFormatError as exc:
        return type(exc), str(exc)


class TestLoadGold:
    def test_single_row(self):
        got = load_gold("d1\t3\tqad")
        assert got == [GoldAnnotation(doc_id="d1", sentence_index=3, class_label="qad")]

    def test_unknown_label(self):
        with pytest.raises(GoldFormatError, match="line 1.*xyz"):
            load_gold("d1\t3\txyz")

    def test_duplicate_rejected(self):
        with pytest.raises(GoldFormatError, match="duplicate"):
            load_gold("d1\t3\tqad\nd1\t3\tqad")

    def test_comments_skipped(self):
        assert load_gold("# c\nd1\t0\tsin\n") != []

    def test_round_trip(self):
        rng = random.Random(5)
        gold = []
        seen = set()
        for _ in range(60):
            g = GoldAnnotation(
                doc_id=f"d{rng.randint(0, 20)}",
                sentence_index=rng.randint(0, 30),
                class_label=rng.choice(CLASS_LABELS),
            )
            if g not in seen:
                seen.add(g)
                gold.append(g)
        assert load_gold(dump_gold(gold)) == gold

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(GoldAnnotation, _GOLD_FIELD, st.integers(),
                              st.sampled_from(CLASS_LABELS)), unique=True))
    def test_round_trip_of_any_gold(self, gold):
        assert load_gold(dump_gold(gold)) == gold

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_gold_row()), st.sampled_from(["\n", "\r\n", "\r"]))
    def test_matches_reference_on_rows(self, rows, newline):
        text = newline.join(rows)
        assert _gold_outcome(load_gold, text) == _gold_outcome(codec_ref.load_gold, text)

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_matches_reference_on_any_text(self, text):
        assert _gold_outcome(load_gold, text) == _gold_outcome(codec_ref.load_gold, text)


def reference_score(pred_triples, gold):
    """The per-label set arithmetic ``score`` did before its one-pass count."""
    gold_triples = set(gold)
    labels = list(CLASS_LABELS)
    for t in sorted(pred_triples | gold_triples):
        if t[2] not in labels:
            labels.append(t[2])
    counts = {}
    for label in labels:
        pred_l = {t for t in pred_triples if t[2] == label}
        gold_l = {t for t in gold_triples if t[2] == label}
        counts[label] = (len(pred_l & gold_l), len(pred_l - gold_l), len(gold_l - pred_l))
    return counts


class TestScore:
    def test_unknown_labels_follow_in_order_of_least_triple(self):
        gold = [GoldAnnotation("a", 5, "zeta"), GoldAnnotation("b", 0, "qad")]
        preds = {("a", 5, "zeta"), ("b", 0, "alpha"), ("c", 2, "zeta"), ("a", 0, "sin")}
        report = score(preds, gold)
        assert list(report.per_class) == [*CLASS_LABELS, "zeta", "alpha"]
        zeta, alpha = report.per_class["zeta"], report.per_class["alpha"]
        assert (zeta.tp, zeta.fp, zeta.fn) == (1, 1, 0)
        assert (alpha.tp, alpha.fp, alpha.fn) == (0, 1, 0)
        qad = report.per_class["qad"]
        assert (qad.tp, qad.fp, qad.fn) == (0, 0, 1)
        assert (report.overall.tp, report.overall.fp, report.overall.fn) == (1, 3, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(st.tuples(st.sampled_from("abc"), st.integers(0, 3),
                          st.sampled_from([*CLASS_LABELS, "zeta", "alpha"]))),
        st.sets(st.tuples(st.sampled_from("abc"), st.integers(0, 3),
                          st.sampled_from([*CLASS_LABELS, "omega"]))),
    )
    def test_matches_per_label_set_arithmetic(self, preds, gold_triples):
        gold = [GoldAnnotation(*t) for t in gold_triples]
        report = score(preds, gold)
        want = reference_score(preds, gold)
        assert list(report.per_class) == list(want)
        assert {k: (c.tp, c.fp, c.fn) for k, c in report.per_class.items()} == want
        assert (report.predicted_future, report.gold_future) == (len(preds), len(gold))

    def test_annotations_score_like_their_triples(self, engine, mini_docs, mini_gold_dir):
        annotations = [a for d in mini_docs for a in engine.analyze(d).annotations]
        annotations.append(annotations[0]._replace(rule_id="other", class_label="zeta"))
        gold = load_gold((mini_gold_dir / "gold.tsv").read_text(encoding="utf-8"))
        triples = predictions_to_triples(annotations)
        assert len(triples) < len(annotations)
        assert score(annotations, gold, 8) == score(triples, gold, 8)
        assert list(score(annotations, gold).per_class)[-1] == "zeta"

    def test_reference_counts_reproduce_results_table(self):
        report = score(synthetic_predictions(), synthetic_gold())
        assert report.predicted_future == 762
        assert report.gold_future == 743
        assert report.overall.tp == 743
        assert report.overall.fp == 19
        assert report.overall.fn == 0
        assert report.per_class["qad"].precision == "94.11"
        assert report.per_class["sin"].precision == "97.19"
        assert report.per_class["sawfa"].precision == "92.85"
        for label in ("lan", "participle", "past_verb", "present_verb"):
            assert report.per_class[label].precision == "100.00"
        assert all(cs.recall == "100.00" for cs in report.per_class.values())
        assert report.overall.precision == "97.50"
        assert report.overall.recall == "100.00"

    def test_implied_false_positives_sum_to_19(self):
        # the per-class false positive counts implied by the precision
        # figures must add up to the reported 19 wrong sentences
        assert sum(REFERENCE_FALSE_POSITIVES.values()) == 19
        for label, fp in REFERENCE_FALSE_POSITIVES.items():
            tp = REFERENCE_GOLD[label]
            reported = {"qad": "94.11", "sin": "97.19", "sawfa": "92.85"}[label]
            assert pct_string(tp, tp + fp) == reported
            # one fewer or one more false positive would miss the figure
            assert pct_string(tp, tp + fp - 1) != reported
            assert pct_string(tp, tp + fp + 1) != reported

    def test_empty_everything(self):
        report = score(set(), [])
        assert report.overall.tp == report.overall.fp == report.overall.fn == 0
        assert report.overall.precision is None
        assert report.overall.recall is None

    def test_perfect_predictions_symmetry(self):
        gold = synthetic_gold()
        report = score(set(gold), gold)
        for cs in report.per_class.values():
            if cs.tp:
                assert cs.precision == "100.00" and cs.recall == "100.00"

    def test_zero_fp_gives_perfect_precision(self):
        gold = [GoldAnnotation("d", 0, "qad"), GoldAnnotation("d", 1, "qad")]
        report = score({("d", 0, "qad")}, gold)
        assert report.per_class["qad"].precision == "100.00"
        assert report.per_class["qad"].recall == "50.00"

    def test_adding_false_positive_never_raises_precision(self):
        rng = random.Random(17)
        for _ in range(50):
            gold = [
                GoldAnnotation(f"d{i}", 0, rng.choice(CLASS_LABELS))
                for i in range(rng.randint(1, 12))
            ]
            gold = list(dict.fromkeys(gold))
            preds = {g for g in gold if rng.random() < 0.8}
            base = score(set(preds), gold)
            extra_label = rng.choice(CLASS_LABELS)
            preds.add((f"fp{rng.randint(0, 10**6)}", 0, extra_label))
            bumped = score(preds, gold)
            for label in CLASS_LABELS:
                a = base.per_class[label].precision
                b = bumped.per_class[label].precision
                if a is not None and b is not None:
                    assert float(b) <= float(a)

    def test_overall_equals_class_sums(self):
        report = score(synthetic_predictions(), synthetic_gold())
        assert report.overall.tp == sum(c.tp for c in report.per_class.values())
        assert report.overall.fp == sum(c.fp for c in report.per_class.values())
        assert report.overall.fn == sum(c.fn for c in report.per_class.values())


class TestDistribution:
    def test_reference_distribution(self):
        counts = distribution(synthetic_gold())
        assert counts == REFERENCE_GOLD
        assert sum(counts.values()) == 743

    def test_empty_gold_all_zero(self):
        counts = distribution([])
        assert set(counts) == set(CLASS_LABELS)
        assert all(v == 0 for v in counts.values())


class TestPresentation:
    def test_distribution_table_shape(self):
        text = format_distribution(synthetic_gold())
        assert "Total" in text and "743" in text

    def test_results_table_shape(self):
        text = format_results(score(synthetic_predictions(), synthetic_gold()))
        assert "Overall" in text and "97.50" in text and "94.11" in text

    def test_json_shape(self):
        data = report_to_json_dict(score(synthetic_predictions(), synthetic_gold(), total_sentences=4634))
        assert set(data) == {"per_class", "overall", "totals"}
        assert data["totals"] == {
            "sentences": 4634,
            "predicted_future": 762,
            "gold_future": 743,
        }
        assert data["per_class"]["qad"] == {
            "tp": 64,
            "fp": 4,
            "fn": 0,
            "precision": "94.11",
            "recall": "100.00",
        }
