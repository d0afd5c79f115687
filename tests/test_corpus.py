from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from arfuture.corpus import (
    CorpusError,
    QuerySeed,
    RawPage,
    build_query_list,
    compile_corpus_file,
    dedupe_documents,
    extract_main_article,
    fetch_pages,
    load_query_seeds,
    make_document,
    parse_corpus_file,
    read_local_page,
)
from arfuture.resources import data_dir

# two hand-counted filler paragraphs (the space-joined word lengths add up
# to 139 and 143 characters respectively, both past the 130 threshold)
PARA_ONE = ("النمو الاقتصادي في لبنان سوف يتحسن " * 4).strip()
PARA_TWO = ("الضغوط المالية التي يتعرض لها لبنان تتزايد الان " * 3).strip()
assert len(PARA_ONE) == 139 and len(PARA_TWO) == 143

GOLDEN_HTML = f"""<html><head>
<title>اقتصاد   لبنان &amp; المنطقة</title>
<style>p {{ color: red; }} .long {{ padding: 0 0 0 0; margin: 10px 10px 10px 10px; }}</style>
<script>var t = "{'م' * 200}";</script>
</head><body>
<nav><a href="/">الرئيسية</a> | <a href="/econ">اقتصاد</a></nav>
<p>{PARA_ONE}</p>
<div class="ad">اعلان قصير</div>
<p>{PARA_TWO}</p>
<p>فقرة قصيرة جدا.</p>
</body></html>
"""

# hand-extracted: only the two long paragraphs qualify, in page order
GOLDEN_TITLE = "اقتصاد لبنان & المنطقة"
GOLDEN_BODY = PARA_ONE + "\n" + PARA_TWO


class TestQueries:
    def test_multiword_keyword_is_quoted(self):
        queries = build_query_list([QuerySeed(keyword_ar="الموازنة العامة")])
        assert queries == ['"الموازنة العامة" لبنان']

    def test_government_debt_row(self):
        queries = build_query_list([QuerySeed(keyword_ar="الدين العام")])
        assert queries == ['"الدين العام" لبنان']

    def test_single_word_not_quoted(self):
        assert build_query_list([QuerySeed(keyword_ar="اقتصاد")]) == ["اقتصاد لبنان"]

    def test_empty_seed_list(self):
        with pytest.raises(CorpusError, match="no seeds"):
            build_query_list([])

    def test_order_and_length_preserved(self):
        seeds = load_query_seeds((data_dir() / "keywords.tsv").read_text(encoding="utf-8"))
        queries = build_query_list(seeds)
        assert len(queries) == len(seeds)
        assert all(q.endswith(" لبنان") for q in queries)

    def test_duplicate_queries_dropped(self):
        seeds = [QuerySeed(keyword_ar="اقتصاد"), QuerySeed(keyword_ar="اقتصاد")]
        assert build_query_list(seeds) == ["اقتصاد لبنان"]


# fragments that steer arbitrary text into tags, entities, comments,
# declarations and runs long enough to keep
_HTML_BITS = [
    "<p>", "</p>", "<script>", "</script>", "<style>", "<title>", "</title>", "<br/>",
    "&amp;", "&#1587;", "&#x", "<!--", "-->", "<![CDATA[", "<!DOCTYPE", "<?xml",
    "<a href='", "\n", PARA_ONE,
]


class TestExtraction:
    def test_golden_page(self):
        page = RawPage(source_url="http://news.example/econ", html=GOLDEN_HTML)
        title, body = extract_main_article(page)
        assert title == GOLDEN_TITLE
        assert body == GOLDEN_BODY

    def test_threshold_excludes_short_runs(self):
        html = f"<html><body><nav>{'ق' * 40}</nav><p>{'ب' * 200}</p></body></html>"
        _, body = extract_main_article(RawPage(source_url="x", html=html))
        assert body == "ب" * 200

    def test_title_extraction(self):
        html = "<html><head><title>اقتصاد لبنان</title></head><body><p>" + "ت" * 150 + "</p></body></html>"
        title, _ = extract_main_article(RawPage(source_url="x", html=html))
        assert title == "اقتصاد لبنان"

    def test_boundary_lengths_129_130_131(self):
        html = (
            "<p>" + "ب" * 129 + "</p><p>" + "ت" * 130 + "</p><p>" + "ث" * 131 + "</p>"
        )
        _, body = extract_main_article(RawPage(source_url="x", html=html))
        assert body == "ت" * 130 + "\n" + "ث" * 131

    def test_no_main_content_rejected(self):
        with pytest.raises(CorpusError, match="no main content"):
            extract_main_article(RawPage(source_url="x", html="<p>قصير</p>"))

    def test_inline_tag_does_not_break_a_run(self):
        html = "<p>كلمة <b>مهمة</b> هنا</p>"
        _, body = extract_main_article(RawPage(source_url="x", html=html), min_run_chars=5)
        assert body == "كلمة مهمة هنا"

    def test_block_tags_separate_runs(self):
        html = "<p>aaa</p><p>bbb</p>"
        _, body = extract_main_article(RawPage(source_url="x", html=html), min_run_chars=2)
        assert body == "aaa\nbbb"

    def test_no_html_tags_in_body(self):
        page = RawPage(source_url="x", html=GOLDEN_HTML)
        _, body = extract_main_article(page)
        assert not re.search(r"<[a-zA-Z/]", body)

    def test_deterministic(self):
        page = RawPage(source_url="x", html=GOLDEN_HTML)
        assert extract_main_article(page) == extract_main_article(page)

    def test_every_kept_run_meets_threshold(self):
        page = RawPage(source_url="x", html=GOLDEN_HTML)
        _, body = extract_main_article(page)
        assert all(len(line) >= 130 for line in body.split("\n"))

    @settings(max_examples=300, deadline=None)
    @given(
        html=st.one_of(
            st.text(), st.lists(st.one_of(st.text(), st.sampled_from(_HTML_BITS))).map("".join)
        ),
        min_run_chars=st.integers(0, 200),
    )
    def test_arbitrary_input_raises_only_corpus_error(self, html, min_run_chars):
        try:
            extract_main_article(RawPage(source_url="x", html=html), min_run_chars)
        except CorpusError:
            pass


WORDS = ["نص", "لبنان", "اقتصاد", "تقرير", "نمو", "العام"]


def random_document(rng: random.Random):
    lines = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.10:
            lines.append("")
        elif roll < 0.18:
            lines.append("URL: http://داخل-النص")
        elif roll < 0.24:
            lines.append(" URL: بمسافة")
        else:
            lines.append(" ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 6))))
    body = "\n".join(lines) or "نص"
    if not body.strip():
        body = "نص"
    title = rng.choice(["", "عنوان", "عنوان اطول قليلا"])
    return make_document(
        url=f"http://example.com/{rng.randint(1, 10**9)}", title=title, body=body
    )


class TestCorpusFileFormat:
    def test_basic_serialization(self):
        doc = make_document(url="http://x", title="t", body="b")
        assert compile_corpus_file(doc) == "URL: http://x\nTITLE: t\n\nb\n"

    def test_empty_title_line_present(self):
        doc = make_document(url="http://x", title="", body="b")
        assert "\nTITLE: \n" in compile_corpus_file(doc)

    def test_basic_parse(self):
        doc = parse_corpus_file("URL: http://x\nTITLE: t\n\nb\n")
        assert (doc.url, doc.title, doc.body) == ("http://x", "t", "b")

    def test_missing_url_line(self):
        with pytest.raises(CorpusError, match="malformed corpus file"):
            parse_corpus_file("TITLE: t\n\nb\n")

    @pytest.mark.parametrize(
        "text, lineno, expected",
        [
            ("TITLE: t\n\nb\n", 1, 'a "URL: " line'),
            ("URL: http://x", 2, 'a "TITLE: " line'),
            ("URL: http://x\nT: t\n\nb\n", 2, 'a "TITLE: " line'),
            ("URL: http://x\nTITLE: t", 3, "a blank line"),
            ("URL: http://x\nTITLE: t\nb\n", 3, "a blank line"),
            ("URL: http://x\nTITLE: t\n", 4, "a non-empty body"),
            ("URL: http://x\nTITLE: t\n\n", 4, "a non-empty body"),
        ],
    )
    def test_malformed_file_names_line_and_expectation(self, text, lineno, expected):
        message = f"line {lineno}: malformed corpus file: expected {expected}"
        with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
            parse_corpus_file(text)

    def test_round_trip_100_random_documents(self):
        rng = random.Random(7)
        for _ in range(100):
            doc = random_document(rng)
            assert parse_corpus_file(compile_corpus_file(doc)) == doc

    def test_round_trip_url_lines_in_body(self):
        doc = make_document(url="http://x", title="t", body="URL: http://y\n URL: z\nعادي")
        assert parse_corpus_file(compile_corpus_file(doc)) == doc

    @settings(max_examples=300, deadline=None)
    @given(
        st.text().filter(lambda t: "\n" not in t),
        st.text().filter(lambda t: "\n" not in t),
        st.lists(
            st.one_of(
                st.text(),
                st.builds(lambda pad, rest: " " * pad + "URL: " + rest,
                          st.integers(0, 3), st.text()),
            ),
            min_size=1,
        ).map("\n".join).filter(bool),
    )
    def test_round_trip_any_body(self, url, title, body):
        doc = make_document(url=url, title=title, body=body)
        assert parse_corpus_file(compile_corpus_file(doc)) == doc

    def test_stable_id_from_url(self):
        a = make_document(url="http://x", title="", body="b")
        b = make_document(url="http://x", title="other", body="c")
        assert a.id == b.id


class TestDedupe:
    def test_whitespace_normalized_duplicates_dropped(self):
        a = make_document(url="http://a", title="", body="نص  واحد")
        b = make_document(url="http://b", title="", body="نص واحد")
        c = make_document(url="http://c", title="", body="نص اخر")
        assert dedupe_documents([a, b, c]) == [a, c]


class TestFetchPages:
    def test_empty_list(self):
        result = fetch_pages([])
        assert result.pages == [] and result.failures == []

    def test_local_file_mode(self, tmp_path):
        f = tmp_path / "page.html"
        f.write_text("<p>محتوى</p>", encoding="utf-8")
        result = fetch_pages([str(f)])
        assert len(result.pages) == 1
        assert result.pages[0].html == "<p>محتوى</p>"

    def test_file_url_is_percent_decoded(self, tmp_path):
        f = tmp_path / "a b%.html"
        f.write_text("<p>محتوى</p>", encoding="utf-8")
        by_url = fetch_pages([f.as_uri()])
        assert by_url.failures == []
        assert by_url.pages == fetch_pages([str(f)]).pages

    def test_partial_failure(self, tmp_path):
        good1 = tmp_path / "a.html"
        good2 = tmp_path / "b.html"
        good1.write_text("<p>a</p>", encoding="utf-8")
        good2.write_text("<p>b</p>", encoding="utf-8")
        missing = tmp_path / "missing.html"
        result = fetch_pages([str(good1), str(missing), str(good2)])
        assert len(result.pages) == 2
        assert len(result.failures) == 1
        assert result.failures[0].url == str(missing)

    def test_declared_charset_decoded(self, tmp_path):
        f = tmp_path / "cp1256.html"
        content = '<html><head><meta charset="windows-1256"></head><body>اقتصاد</body></html>'
        f.write_bytes(content.encode("windows-1256"))
        page = read_local_page(f)
        assert "اقتصاد" in page.html
