from __future__ import annotations

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from arfuture import corpus
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

    @pytest.mark.parametrize("min_run_chars", [0, -1])
    def test_min_run_chars_below_one_is_refused(self, min_run_chars):
        page = RawPage(source_url="x", html="<p>aa#\n\n#bb</p>")
        with pytest.raises(CorpusError, match=f"min_run_chars must be >= 1, got {min_run_chars}$"):
            extract_main_article(page, min_run_chars)


# fragments in the subset of markup the regex page scan reads: any string
# made of them is in the subset
_SUBSET_BITS = [
    "<p>", "</p>", "<P class='c'>", "</div\n>", "<br/>", '<img src="a.png" alt=x />',
    '<a href="/x?a=1&amp;b=2">', "</a>", "<my-el data-x=1>", "<!DOCTYPE html>",
    "<!-- note -->", "<!---->", "<!-- a - b -->", "<!---x-->", "<script>var a = b < 3;</script>",
    '<STYLE type="text/css">p { color: red }</style>', "<title>t &amp;\n u</title>",
    "<title></title>", "</title>", '<noscript><img src="/px.gif"></noscript>', "<NOSCRIPT>",
    "</noscript>", "<iframe src='/ad'></iframe>", "<textarea>t\nu</textarea>", "<xmp>x y</xmp>",
    "<NOFRAMES>n</noframes>", "<noembed></noembed>", "< ", "<3", "<ب", ">", "&amp;", "&amp",
    "&am", "p;", "&#1587;", "&#38", "&", ";", "#", "x", "ب", " ", "\n", "\n\n", "\t", "\r",
    PARA_ONE,
]
# markup outside the subset, each at a place where html.parser releases
# differ or where the subset stops
_OUTSIDE_BITS = [
    "<![CDATA[", "]]>", "</SCRIPT >", "</script >", "--!>", "<!-- a -- b -->", "<!-->",
    "<!--->", "<!-- a --->", "<?xml ?>", "<!x>", "<p", '<a b="<">', "<a\x0bb>", "</ p>",
    "<textarea>", "<iframe>a<b</iframe>", "<xmp>&amp;</xmp>", "<plaintext>", "<iframe/>",
    "<title/>", "<script/>", "<script>", "<title>", "</", "<!--", "-->", "\x00",
    "<script>if (a</b) x;</script>", "<script><!-- x --></script>",
]


def _by_html_parser(html: str) -> tuple[str, str]:
    parser = corpus._TextExtractor()
    parser.feed(html)
    parser.close()
    return "".join(parser.title_parts), "".join(parser.parts)


def _cut(html: str) -> int:
    """Where the scan hands ``html`` to html.parser; its length if nowhere."""
    try:
        corpus._scan(html)
    except corpus._OutsideSubset as outside:
        return outside.args[0]
    return len(html)


def _outcome(html: str, min_run_chars: int):
    try:
        return extract_main_article(RawPage(source_url="x", html=html), min_run_chars)
    except CorpusError as exc:
        return str(exc)


def _outcome_by_html_parser(html: str, min_run_chars: int):
    with mock.patch.object(corpus, "_read_page", _by_html_parser):
        return _outcome(html, min_run_chars)


class TestPageScan:
    """The regex page scan against the html.parser path it stands in for."""

    @settings(max_examples=500, deadline=None)
    @given(
        bits=st.lists(st.one_of(
            st.sampled_from(_SUBSET_BITS), st.sampled_from(_OUTSIDE_BITS), st.text(max_size=4)
        )),
        min_run_chars=st.integers(1, 150),
    )
    def test_page_text_equals_html_parser(self, bits, min_run_chars):
        html = "".join(bits)
        assert corpus._read_page(html) == _by_html_parser(html)
        if "\x00" not in html:
            # the scan stops between two tokens, where html.parser has read
            # the same as from the part before alone
            cut = _cut(html)
            title, text = corpus._scan(html[:cut])
            assert (title or "", text) == _by_html_parser(html[:cut])
        assert _outcome(html, min_run_chars) == _outcome_by_html_parser(html, min_run_chars)

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.sampled_from(_SUBSET_BITS)))
    def test_subset_pages_take_the_scan(self, bits):
        html = "".join(bits)
        title, text = corpus._scan(html)
        assert (title or "", text) == _by_html_parser(html)

    @pytest.mark.parametrize("markup", [
        "<![CDATA[x]]>",
        "<script>x</SCRIPT >",
        "<script>x</script >",
        "<!-- x --!>",
        "<!-- a -- b -->",
        "<!-->",
        "<!--->",
        "<!-- a --->",
        "<?php echo 1 ?>",
        "<!x>",
        '<a title="a<b">',
        "<a href=/x>",
        "<a\x0bhref='x'>",
        "</ p>",
        "<textarea>a &amp; b</textarea>",
        "<iframe><p>x</p></iframe>",
        "<plaintext>",
        "<iframe/>",
        "<title>a<b>b</b></title>",
        "<title/>",
        "<script/>",
        "<script>if (a</b) x;</script>",
        "<script><!-- x --></script>",
        "<p",
    ])
    def test_html_parser_reads_from_markup_outside_the_subset(self, markup):
        head = f"<title>t</title><p>{PARA_ONE}</p>"
        html = f"{head}{markup}<p>{PARA_TWO}</p>"
        if markup == "<p":
            html = f"{head}{markup}"
        assert _cut(html) == len(head)
        assert corpus._scan(head) == _by_html_parser(head)
        assert corpus._read_page(html) == _by_html_parser(html)
        assert _outcome(html, 5) == _outcome_by_html_parser(html, 5)

    def test_page_with_nul_takes_html_parser_from_its_start(self):
        html = f"<p>{PARA_ONE}</p>\x00<p>{PARA_TWO}</p>"
        with mock.patch.object(corpus, "_scan") as scan:
            assert corpus._read_page(html) == _by_html_parser(html)
        scan.assert_not_called()

    def test_title_after_the_cut_comes_from_html_parser(self):
        html = f"<![CDATA[x]]><title>late</title><p>{PARA_ONE}</p>"
        assert _cut(html) == 0
        assert corpus._read_page(html) == _by_html_parser(html)
        assert corpus._read_page(html)[0] == "late"

    def test_title_before_the_cut_stays_the_only_one(self):
        html = f"<title>first</title><?x?><title>late</title><p>{PARA_ONE}</p>"
        assert corpus._read_page(html) == _by_html_parser(html)
        assert corpus._read_page(html)[0] == "first"

    def test_noscript_and_plain_raw_text_elements_take_the_scan(self):
        html = (f'<body><noscript><img src="/px.gif"></noscript><p>{PARA_ONE}</p>'
                "<iframe src='/ad'></iframe><textarea>t</textarea></body>")
        title, text = corpus._scan(html)
        assert (title or "", text) == _by_html_parser(html)

    def test_golden_page_takes_the_scan(self):
        assert corpus._scan(GOLDEN_HTML) == _by_html_parser(GOLDEN_HTML)

    def test_reference_split_by_a_comment_or_declaration_stays_unconverted(self):
        # html.parser unescapes the text on each side of them apart
        html = "<p>&am<!---->p; &amp<!---->x &am<!DOCTYPE html>p;</p>"
        assert corpus._read_page(html) == ("", "\n&amp; &x &amp;\n")
        assert _by_html_parser(html) == ("", "\n&amp; &x &amp;\n")

    def test_title_is_the_first_title_element(self):
        html = "<title>a &lt; b</title><title>second</title>"
        assert corpus._read_page(html) == ("a < b", "\n\n\nsecond\n")
        assert _by_html_parser(html) == ("a < b", "\n\n\nsecond\n")

    def test_end_title_before_any_title_means_none(self):
        html = "</title><title>late</title>"
        assert corpus._read_page(html) == ("", "\n\nlate\n")
        assert _by_html_parser(html) == ("", "\n\nlate\n")


def _stripped(runs: list[str]) -> list[str]:
    return [run.strip() for run in runs if run.strip()]


# characters where str predicates and re classes part (_, fractions,
# superscripts, letter-like numerals), harakat and tatweel, the less common
# whitespace, separators, and characters outside _RUN_BLOCKS (rial sign,
# arrow, emoji, Arabic Extended-A and Presentation Forms, CJK, ideographic
# space, a combining mark)
_OUTSIDE_CHARS = [
    "\ufdfc", "\u2192", "\U0001f600", "\u08a0", "\ufefb", "\ufe8d", "\u4e2d", "\u3000",
    "\u20d0",
]
_RUN_TEXT = st.lists(st.one_of(
    st.sampled_from([
        "_", "\u00bd", "\u00b2", "\u216b", "\u3007", "\u064e", "\u0651", "\u0670", "\u0640",
        "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\xa0", "\u200c", " ", "\t", "\r",
        "\u0628", "a", "7", "\u0663", ".", "-", "\u2013", "\u060c", "&", "#", "<", "\u00a9",
        "\u20ac", "\u0750", "\u2070",
        *_OUTSIDE_CHARS,
    ]),
    st.integers(1, 5).map(lambda n: "\n" * n),
    st.text(max_size=3),
)).map("".join)


class TestTextRuns:
    @settings(max_examples=500, deadline=None)
    @given(text=_RUN_TEXT)
    def test_runs_equal_the_char_loop(self, text):
        assert _stripped(corpus._text_runs(text)) == _stripped(corpus._text_runs_by_char(text))

    @settings(max_examples=500, deadline=None)
    @given(text=_RUN_TEXT)
    def test_split_equals_the_char_loop_inside_the_blocks(self, text):
        text = re.sub(corpus._OUTSIDE_RUN_BLOCKS, "", text)
        assert _stripped(re.split(corpus._RUN_SPLIT, text)) == _stripped(
            corpus._text_runs_by_char(text))

    def test_split_class_is_is_run_char(self):
        for lo, hi in corpus._RUN_BLOCKS:
            for cp in range(lo, hi + 1):
                ch = chr(cp)
                assert (re.split(corpus._RUN_SPLIT, ch) == [ch]) == corpus._is_run_char(ch), hex(cp)

    def test_split_keeps_characters_outside_the_blocks(self):
        for ch in _OUTSIDE_CHARS + ["\u0100", "\u05ff", "\u0780", "\u1fff", "\u20d0"]:
            assert re.split(corpus._RUN_SPLIT, ch) == [ch]

    def test_char_loop_reads_only_the_pieces_outside_the_blocks(self):
        text = f"{PARA_ONE}\n\nسعر 5 \ufdfc للسهم، {PARA_TWO}\n\n{PARA_ONE}"
        with mock.patch.object(
            corpus, "_text_runs_by_char", wraps=corpus._text_runs_by_char
        ) as by_char:
            runs = corpus._text_runs(text)
        by_char.assert_called_once_with(f"سعر 5 \ufdfc للسهم، {PARA_TWO}")
        assert _stripped(runs) == _stripped(corpus._text_runs_by_char(text))


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


#: text mostly of whitespace, every kind of it, and of look-alikes that are
#: not, with a lone surrogate, which a body decoded from a page may hold
_SPACED_TEXT = st.text(
    st.sampled_from(
        [c for c in map(chr, range(0x3001)) if c.isspace()]
        + ["\u200b", "\ufeff", "\ud800", "ن", "a"]
    )
    | st.characters(),
    max_size=10,
)


class TestDedupe:
    def test_whitespace_normalized_duplicates_dropped(self):
        a = make_document(url="http://a", title="", body="نص  واحد")
        b = make_document(url="http://b", title="", body="نص واحد")
        c = make_document(url="http://c", title="", body="نص اخر")
        assert dedupe_documents([a, b, c]) == [a, c]

    def test_str_split_and_regex_agree_on_whitespace(self):
        text = "".join(map(chr, range(0x110000)))
        assert [m.start() for m in re.finditer(r"\s", text)] == [
            i for i, c in enumerate(text) if c.isspace()
        ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SPACED_TEXT, max_size=8))
    def test_keeps_the_documents_the_regex_key_kept(self, bodies):
        docs = [make_document(url=f"http://{i}", title="", body=b) for i, b in enumerate(bodies)]
        seen: set[str] = set()
        expected = []
        for doc in docs:  # the key the regex gave
            key = re.sub(r"\s+", " ", doc.body).strip()
            if key not in seen:
                seen.add(key)
                expected.append(doc)
        assert dedupe_documents(docs) == expected


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
