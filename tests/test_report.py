from __future__ import annotations

import html as html_mod
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arfuture import report as report_mod
from arfuture.corpus import make_document
from arfuture.engine import Annotation, DocumentAnalysis, classify_sentence_results
from arfuture.evaluate import CLASS_LABELS
from arfuture.report import (
    RenderError,
    ReportPage,
    _Decoration,
    _render_decorated,
    build_report_page,
    render_index,
    render_page,
    write_reports,
)
from arfuture.rules import parse_rules, parse_semantic_map, parse_variable_defs
from arfuture.segment import segment, tokenize

from report_ref import render_decorated

GOLDEN = Path(__file__).parent / "golden" / "report_qad.html"
CLOCK = datetime(2026, 1, 15, 12, 0, tzinfo=timezone.utc)
MAP = parse_semantic_map("مستقبل\n")
NO_VARS = parse_variable_defs("")


def analyze(engine, doc):
    return engine.analyze(doc)


def analysis_of(doc, sentences, anns, traces) -> DocumentAnalysis:
    return DocumentAnalysis(doc, tuple(sentences), tuple(anns), tuple(traces))


def index_columns(index_html: str) -> list[str]:
    """The class labels of the index's header row."""
    header = re.search(r"<tr><th>document</th><th>title</th>(.*)<th>total</th></tr>", index_html)
    return re.findall(r"<th>([^<]*)</th>", header.group(1))


def strip_markup(fragment: str) -> str:
    return html_mod.unescape(re.sub(r"<[^>]+>", "", fragment))


def sentence_paragraphs(page_html: str) -> list[str]:
    return re.findall(r'<p class="sentence"[^>]*>(.*?)</p>', page_html, re.S)


class TestRenderHtml:
    def test_qad_sentence_has_exactly_two_yellow_marks(self, engine):
        doc = make_document(
            url="http://news.example/qad-sample",
            title="عينة اقتصادية",
            body="اشار التقرير الى ان الخطر قد يترتب على ذلك. لا جديد في الملف.",
        )
        a = analyze(engine, doc)
        page = render_page(build_report_page(a, generated_at=CLOCK))
        paragraph = sentence_paragraphs(page)[0]
        assert paragraph.count('<mark class="pos">') == 2

    def test_golden_file(self, engine):
        doc = make_document(
            url="http://news.example/qad-sample",
            title="عينة اقتصادية",
            body="اشار التقرير الى ان الخطر قد يترتب على ذلك. لا جديد في الملف.",
        )
        a = analyze(engine, doc)
        page = render_page(build_report_page(a, generated_at=CLOCK))
        assert page == GOLDEN.read_text(encoding="utf-8")

    def test_no_matches_page(self, engine):
        doc = make_document(url="http://x", title="فارغ", body="كتاب على الطاولة.")
        a = analyze(engine, doc)
        page = render_page(build_report_page(a, generated_at=CLOCK))
        assert "no matches" in page
        assert '<section class="category">' not in page

    def test_header_links_source(self, engine):
        doc = make_document(url="http://src.example/a?b=1&c=2", title="عنوان",
                            body="سوف يتحسن الوضع.")
        a = analyze(engine, doc)
        page = render_page(build_report_page(a))
        assert '<a href="http://src.example/a?b=1&amp;c=2">' in page

    def test_rtl_declared(self, engine):
        doc = make_document(url="http://x", title="t", body="سوف يتحسن الوضع.")
        a = analyze(engine, doc)
        page = render_page(build_report_page(a))
        assert '<html lang="ar" dir="rtl">' in page

    def test_script_in_body_escaped(self, engine):
        doc = make_document(
            url="http://x", title="t",
            body='سوف يتحسن <script>alert("x")</script> الوضع.',
        )
        a = analyze(engine, doc)
        page = render_page(build_report_page(a))
        skeleton_scripts = page.count("<script")
        assert skeleton_scripts == 0

    def test_span_fidelity(self, engine, mini_docs):
        for doc in mini_docs:
            a = analyze(engine, doc)
            page = render_page(build_report_page(a, generated_at=CLOCK))
            rendered = sentence_paragraphs(page)
            annotated = sorted({ann.sentence_index for ann in a.annotations})
            assert len(rendered) == len(annotated)
            for fragment, idx in zip(rendered, annotated):
                assert strip_markup(fragment) == a.sentences[idx].text

    def test_determinism(self, engine, mini_docs):
        doc = mini_docs[0]
        a = analyze(engine, doc)
        first = render_page(build_report_page(a, generated_at=CLOCK))
        assert first == render_page(build_report_page(a, generated_at=CLOCK))

    def test_out_of_bounds_span_fails_fast(self, engine):
        doc = make_document(url="http://x", title="t", body="سوف يتحسن الوضع.")
        a = analyze(engine, doc)
        bad = Annotation(
            doc_id=doc.id, sentence_index=0, rule_id="sawfa", category="مستقبل",
            class_label="sawfa", positive_marker_spans=((0, 10_000),),
        )
        with pytest.raises(RenderError):
            render_page(build_report_page(a._replace(annotations=(bad,), traces=())))

    def test_excerpt_underlined(self, lexicons):
        rules = parse_rules(
            "r: سوف -> مستقبل [extract=from-marker-to-end]\n", NO_VARS, MAP
        )
        doc = make_document(url="http://x", title="t", body="قال انه سوف يتحسن الوضع.")
        sentences = segment(doc.body, doc_id=doc.id)
        anns, traces = classify_sentence_results(
            sentences[0], tokenize(sentences[0].text), rules, lexicons
        )
        assert anns[0].excerpt_span is not None
        assert anns[0].excerpt_span[1] == len(sentences[0].text.encode())
        analysis = analysis_of(doc, sentences, anns, traces)
        page = render_page(build_report_page(analysis, generated_at=CLOCK))
        assert '<span class="excerpt">' in page

    def test_negative_field_rendered_red_with_hover(self, lexicons):
        # the rule matches the first سوف, then a second attempt runs into
        # the negative marker: same rule, same sentence, one annotation
        # plus one NegativeFound trace whose field renders red
        rules = parse_rules("sawfa: سوف > -قبل@2 -> مستقبل\n", NO_VARS, MAP)
        doc = make_document(
            url="http://x", title="t",
            body="سوف يتحسن الوضع ثم سوف يجتمعون قبل المساء",
        )
        sentences = segment(doc.body, doc_id=doc.id)
        anns, traces = classify_sentence_results(
            sentences[0], tokenize(sentences[0].text), rules, lexicons
        )
        assert len(anns) == 1
        assert any(t.negative_field_span for t in traces)
        analysis = analysis_of(doc, sentences, anns, traces)
        page = render_page(build_report_page(analysis, generated_at=CLOCK))
        assert 'class="neg-field"' in page
        assert "negative marker:" in page


class TestNegativeFields:
    # sawfa annotates the sentence and later runs into its negative قبل;
    # lan never annotates it and runs into its negative بعد
    RULES = "sawfa: سوف > -قبل@2 -> مستقبل\nlan: لن > -بعد@2 -> مستقبل\n"
    BODY = "سوف يتحسن الوضع ثم سوف يجتمعون قبل المساء لكنه لن يتغير بعد ذلك"

    def test_other_rules_fields_shaded_only_with_flag(self, lexicons):
        rules = parse_rules(self.RULES, NO_VARS, MAP)
        doc = make_document(url="http://x", title="t", body=self.BODY)
        sentences = segment(doc.body, doc_id=doc.id)
        anns, traces = classify_sentence_results(
            sentences[0], tokenize(sentences[0].text), rules, lexicons
        )
        assert [a.rule_id for a in anns] == ["sawfa"]
        assert [t.rule_id for t in traces] == ["sawfa", "lan"]
        shaded = {}
        for flag in (False, True):
            page = render_page(build_report_page(
                analysis_of(doc, sentences, anns, traces),
                generated_at=CLOCK, show_all_negative_fields=flag,
            ))
            shaded[flag] = re.findall(
                r'<span class="neg-field" title="negative marker: ([^"]*)">([^<]*)</span>', page
            )
        assert shaded[False] == [("قبل", "يجتمعون قبل")]
        assert shaded[True] == [("قبل", "يجتمعون قبل"), ("بعد", "يتغير بعد")]


class TestCategoryGrouping:
    def test_sentences_grouped_per_category(self, lexicons):
        two_cat_map = parse_semantic_map("نمو\nتراجع\n")
        rules = parse_rules(
            "up: سوف -> نمو\ndown: لن -> تراجع\n", NO_VARS, two_cat_map
        )
        doc = make_document(
            url="http://x", title="t",
            body="الناتج سوف يرتفع. الدين لن ينخفض.",
        )
        sentences = segment(doc.body, doc_id=doc.id)
        anns, traces = [], []
        for s in sentences:
            a, t = classify_sentence_results(s, tokenize(s.text), rules, lexicons)
            anns.extend(a)
            traces.extend(t)
        analysis = analysis_of(doc, sentences, anns, traces)
        page = render_page(build_report_page(analysis, generated_at=CLOCK))
        assert page.count('<section class="category">') == 2
        assert "<h2>نمو</h2>" in page and "<h2>تراجع</h2>" in page
        # each category section holds exactly its own sentence
        growth = page.split("<h2>نمو</h2>")[1].split("</section>")[0]
        assert "الناتج سوف" in strip_markup(growth)
        assert "الدين" not in strip_markup(growth)


class TestIndex:
    def test_empty_corpus(self):
        page = render_index([])
        assert "<table" in page and "<tr><td>" not in page

    def test_two_documents_ordered(self, engine):
        docs = [
            make_document(url="http://x/b", title="ب", body="سوف يتحسن الوضع."),
            make_document(url="http://x/a", title="أ", body="قد يترتب خطر."),
        ]
        pages = [build_report_page(analyze(engine, d), generated_at=CLOCK) for d in docs]
        index = render_index(pages)
        ids = re.findall(r'<a href="([0-9a-f]+)\.html">', index)
        assert ids == sorted(ids) and len(ids) == 2

    def test_counts_sum_to_total_annotations(self, engine, mini_docs):
        pages = []
        total = 0
        for doc in mini_docs:
            a = analyze(engine, doc)
            total += len(a.annotations)
            pages.append(build_report_page(a, generated_at=CLOCK))
        assert sum(p.total_annotations for p in pages) == total

    def test_other_labels_follow_the_eval_classes_as_first_seen(self):
        doc = make_document(url="http://x", title="t", body="ب")
        pages = [ReportPage(doc, groups={}, class_counts={"zeta": 1, "qad": 2}),
                 ReportPage(doc, groups={}, class_counts={"alpha": 1, "zeta": 3})]
        assert index_columns(render_index(pages)) == [*CLASS_LABELS, "zeta", "alpha"]


class TestWriteReports:
    def test_output_tree(self, engine, mini_docs, tmp_path):
        analyses = engine.analyze_corpus(mini_docs)
        write_reports(tmp_path / "reports", analyses, generated_at=CLOCK)
        files = sorted(p.name for p in (tmp_path / "reports").iterdir())
        assert "index.html" in files
        assert len(files) == len(mini_docs) + 1

    def test_batches_write_the_same_files(self, engine, mini_docs, tmp_path, monkeypatch):
        """Pages written a batch at a time equal pages all written at the end."""
        def tree(name):
            out = tmp_path / name
            write_reports(out, engine.analyze_corpus(mini_docs), generated_at=CLOCK)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        whole = tree("whole")
        monkeypatch.setattr(report_mod, "_WRITE_BATCH_CHARS", 1)
        assert tree("one_by_one") == whole

    def test_index_columns_start_with_the_eval_classes(self, engine, mini_docs, tmp_path):
        """Called without a class order, as demos/score_sample_corpus.py
        calls it, the index lists every eval class first, in eval's order."""
        write_reports(tmp_path, engine.analyze_corpus(mini_docs), generated_at=CLOCK)
        columns = index_columns((tmp_path / "index.html").read_text(encoding="utf-8"))
        assert columns[:len(CLASS_LABELS)] == list(CLASS_LABELS)


# Arabic letters, harakat, tatweel, space and the characters HTML escapes
_RENDER_ALPHABET = "سوفقدلنيتحسالوضع" + "\u064e\u064f\u0650\u0652\u0651\u064b" + "\u0640 &<>\"'"


@st.composite
def decorated_sentences(draw, bad_span: bool = False):
    text = draw(st.text(alphabet=_RENDER_ALPHABET, max_size=12))
    size = len(text.encode("utf-8"))
    # spans cut at character edges, drawn from a small pool so that
    # duplicate and zero-width spans come up often
    edges = sorted({len(text[:i].encode("utf-8")) for i in range(len(text) + 1)})
    span = st.tuples(st.sampled_from(edges), st.sampled_from(edges)).map(sorted).map(tuple)
    pool = draw(st.lists(span, min_size=1, max_size=3))

    def decoration(spans):
        return st.builds(
            _Decoration,
            st.sampled_from(spans),
            st.sampled_from(["mark", "excerpt", "field"]),
            st.sampled_from(["", "negative marker: قبل", "a&b <\"x\"> 'y'"]),
        )

    decorations = draw(st.lists(decoration(pool), max_size=6))
    if bad_span:
        bad = draw(decoration([(0, size + 1), (-1, 0), (size, size + 3), (2, 1)]))
        decorations.insert(draw(st.integers(0, len(decorations))), bad)
    return text, decorations


class TestRenderDecorated:
    @settings(max_examples=300, deadline=None)
    @given(decorated_sentences())
    def test_matches_reference_renderer(self, case):
        text, decorations = case
        got = _render_decorated(text, decorations)
        assert got == render_decorated(text, decorations)
        assert strip_markup(got) == text

    @settings(max_examples=100, deadline=None)
    @given(decorated_sentences(bad_span=True))
    def test_out_of_bounds_span_raises_like_reference(self, case):
        text, decorations = case
        with pytest.raises(RenderError) as got:
            _render_decorated(text, decorations)
        with pytest.raises(RenderError) as want:
            render_decorated(text, decorations)
        assert str(got.value) == str(want.value)
