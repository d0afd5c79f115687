from __future__ import annotations

import hashlib
import http.server
import random
import re
import socket
import threading
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import dedupe_ref
import html_ref
import runs_ref
import tokenizer_ref
from timing import assert_linear
from arfuture import corpus
from arfuture.corpus import (
    CorpusError,
    FetchFailure,
    RawPage,
    USER_AGENT,
    compile_corpus_file,
    dedupe_documents,
    doc_id_for_url,
    extract_main_article,
    fetch_pages,
    make_document,
    parse_corpus_file,
    read_local_page,
)

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

    def test_title_whitespace_is_folded_as_the_regex_folded_it(self):
        """``" ".join(title.split())`` gives what ``re.sub(r"\\s+", " ",
        title).strip()`` gave, on every code point either counts as space."""
        spaces = [chr(cp) for cp in range(0x110000)
                  if chr(cp).isspace() or re.fullmatch(r"\s", chr(cp))]
        assert len(spaces) == 29
        title = "".join(f"{ch}ا{ch}{ch}ب" for ch in spaces) + "".join(spaces)
        html = f"<title>{title}</title><p>{'ت' * 150}</p>"
        got, _ = extract_main_article(RawPage(source_url="x", html=html))
        assert got == re.sub(r"\s+", " ", title).strip()
        assert got == " ".join(["ا", "ب"] * 29)

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

    @settings(max_examples=500, deadline=None)
    @given(text=st.text(alphabet=" \t\n\r\x0bab.ب", max_size=200),
           min_run_chars=st.integers(1, 6))
    def test_runs_flatten_as_the_newline_regex_flattens_them(self, text, min_run_chars):
        kept = [
            re.sub(r"[ \t]*\n[ \t]*", " ", run)
            for run in map(str.strip, corpus._text_runs(text))
            if len(run) >= min_run_chars
        ]
        expected = ("", "\n".join(kept)) if kept else "no main content"
        assert _outcome(text, min_run_chars) == expected

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


# fragments in the subset of markup the page scan once read alone, with
# html.parser reading the rest: on any string made of them, the scan and
# html.parser agree
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
# markup outside that subset, each at a place where html.parser releases
# differ or where the subset stopped
_OUTSIDE_BITS = [
    "<![CDATA[", "]]>", "</SCRIPT >", "</script >", "--!>", "<!-- a -- b -->", "<!-->",
    "<!--->", "<!-- a --->", "<?xml ?>", "<!x>", "<p", '<a b="<">', "<a\x0bb>", "</ p>",
    "<textarea>", "<iframe>a<b</iframe>", "<xmp>&amp;</xmp>", "<plaintext>", "<iframe/>",
    "<title/>", "<script/>", "<script>", "<title>", "</", "<!--", "-->", "\x00",
    "<script>if (a</b) x;</script>", "<script><!-- x --></script>",
]

# markup that drives the tokenizer through its less common states
_STATE_BITS = [
    "<!--", "-->", "--!>", "<!-", "-", "<script>", "</script>", "<script ", "</script\t",
    "<SCRIPT/", "</title>", "</textarea ", "<xmp>", "</", "<a", "<b c=", "=", '"', "'", "/",
    "<", ">", "!", "?", " ",
]


def _outcome(html: str, min_run_chars: int):
    try:
        return extract_main_article(RawPage(source_url="x", html=html), min_run_chars)
    except CorpusError as exc:
        return str(exc)


_TAIL = f"<p>{PARA_TWO}</p>"
_TAIL_TEXT = f"\n{PARA_TWO}\n"
# the text of each markup, then the tail after it, as the WHATWG tokenizer
# reads them
_SPEC_READING = {
    "<![CDATA[x]]>": _TAIL_TEXT,  # a bogus comment up to the first ">"
    "<script>x</SCRIPT >": "\n\n" + _TAIL_TEXT,
    "<script>x</script >": "\n\n" + _TAIL_TEXT,
    "<!-- x --!>": _TAIL_TEXT,
    "<!-- a -- b -->": _TAIL_TEXT,
    "<!-->": _TAIL_TEXT,
    "<!--->": _TAIL_TEXT,
    "<!-- a --->": _TAIL_TEXT,
    "<?php echo 1 ?>": _TAIL_TEXT,
    "<!x>": _TAIL_TEXT,
    '<a title="a<b">': "\n" + _TAIL_TEXT,
    "<a href=/x>": "\n" + _TAIL_TEXT,
    "<a\x0bhref='x'>": "\n" + _TAIL_TEXT,  # a tag named "a\x0bhref='x'"
    "</ p>": _TAIL_TEXT,
    "<textarea>a &amp; b</textarea>": "\na & b\n" + _TAIL_TEXT,
    "<iframe><p>x</p></iframe>": "\n<p>x</p>\n" + _TAIL_TEXT,
    "<plaintext>": "\n" + _TAIL,
    "<iframe/>": "\n" + _TAIL,  # the slash does not close it
    "<title>a<b>b</b></title>": "\na<b>b</b>\n" + _TAIL_TEXT,  # a second title is text
    "<title/>": "\n" + _TAIL,
    "<script/>": "\n",
    "<script>if (a</b) x;</script>": "\n\n" + _TAIL_TEXT,
    "<script><!-- x --></script>": "\n\n" + _TAIL_TEXT,
    "<p": "",  # a tag open at the end of the page is dropped, the tail with it
}


class TestPageScan:
    """The page scan: against html.parser inside the subset it once read
    alone, and against the WHATWG tokenizer everywhere, by hand-written
    cases and by the reference in tokenizer_ref."""

    @settings(max_examples=500, deadline=None)
    @given(
        bits=st.lists(st.one_of(
            st.sampled_from(_SUBSET_BITS), st.sampled_from(_OUTSIDE_BITS), st.text(max_size=4)
        )),
        min_run_chars=st.integers(1, 150),
    )
    def test_any_page_reads_the_same_twice_and_fails_only_as_corpus_error(
        self, bits, min_run_chars
    ):
        html = "".join(bits)
        assert corpus._read_page(html) == corpus._read_page(html)
        assert _outcome(html, min_run_chars) == _outcome(html, min_run_chars)

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.sampled_from(_SUBSET_BITS)))
    def test_subset_pages_take_the_scan(self, bits):
        html = "".join(bits)
        assert corpus._read_page(html) == html_ref.read_page(html)

    @settings(max_examples=1000, deadline=None)
    @given(bits=st.lists(st.one_of(
        st.sampled_from(_SUBSET_BITS), st.sampled_from(_OUTSIDE_BITS),
        st.sampled_from(_STATE_BITS), st.text(max_size=4),
    )))
    def test_page_reads_as_the_reference_tokenizer(self, bits):
        html = "".join(bits)
        assert corpus._read_page(html) == tokenizer_ref.read_page(html)

    @pytest.mark.parametrize("markup", list(_SPEC_READING))
    def test_html_parser_reads_from_markup_outside_the_subset(self, markup):
        """Each kind of markup html.parser once read after the subset."""
        head = f"<title>t</title><p>{PARA_ONE}</p>"
        html = f"{head}{markup}{_TAIL}" if markup != "<p" else f"{head}{markup}"
        expected = ("t", f"\n\n\n{PARA_ONE}\n" + _SPEC_READING[markup])
        assert corpus._read_page(html) == expected
        assert tokenizer_ref.read_page(html) == expected

    @pytest.mark.parametrize("html, title, text", [
        # bogus comments, ended by the first ">" or by the end of the page
        ("a<?x>b<?x y", "", "ab"),
        ("a<!x>b<![CDATA[ <p>x</p> ]]>c<!DOCTYPE html>d<!x", "", "abx\n ]]>cd"),
        ("a</ x>b</>c</1>d</", "", "abcd</"),
        # comments
        ("a<!-- <p> -- -> --!>b<!-->c<!--->d<!---->e<!-- x", "", "abcde"),
        ("a<!--<!-- x -->b<!--- x --->c", "", "abc"),
        # a quote opens a value only after "=", and holds "<" and ">"
        ("<a title='a>b' alt=\"<\">x", "", "\nx"),
        ('<a b = "x>y">z', "", "\nz"),
        ('<a ="x>y">z', "", '\ny">z'),
        ('<a "b>c">', "", '\nc">'),
        ('<a b=c"d>e">', "", '\ne">'),
        ('<a b=="x>y">z', "", '\ny">z'),
        ('<a b="c"d="e>f">g', "", "\ng"),
        ('x<a b="c>', "", "x"),
        # RCDATA: ended only by its own end tag, in any case, before
        # whitespace, "/" or ">"; references unescaped, a NUL replaced
        ("<title>a</titlex></b></TITLE >b", "a</titlex></b>", "\n\nb"),
        ("<title>a &amp; b\x00</title/>", "a & b\ufffd", "\n\n"),
        ("<title>a</title", "a</title", "\n"),
        ("<textarea>&lt;p&gt;</textarea x=1>", "", "\n<p>\n"),
        # RAWTEXT: references kept as written
        ("<xmp>&amp;<p>\x00</xmp>", "", "\n&amp;<p>\ufffd\n"),
        ("<noembed>&lt;</noembed>x<noframes>&lt;", "", "\n&lt;\nx\n&lt;"),
        ("<style>p{}</style x>a<style>b", "", "\n\na\n"),
        # script data and its escape states
        ("<script>a<!--b--></script>c", "", "\n\nc"),
        ("<script><!--<script></script>x</script>y", "", "\n\ny"),
        ("<script><!--<script></script><script></script>x</script>y", "", "\n\ny"),
        ("<script><!--<script>--></script>y", "", "\n\ny"),
        ("<script><!--<SCRIPT/></SCRIPT\t>--></script>y", "", "\n\ny"),
        ("<script><!-- </script>y", "", "\n\ny"),
        ("<script><!--<scripts></script>y", "", "\n\ny"),
        ("<script><!--<script></scriptx>--></script>y", "", "\n\ny"),
        ("<script><!--<script>x</script>y", "", "\n"),
        ("<script><!---->x</script>y", "", "\n\ny"),
        # plaintext: all the rest is text, as written
        ("a<plaintext x>&amp;</plaintext>\x00", "", "a\n&amp;</plaintext>\ufffd"),
        # "<" before anything else is text; a NUL in text is dropped
        ("a < b <3 <ب <", "", "a < b <3 <ب <"),
        ("a\x00b<p>c\x00", "", "ab\nc"),
        # no reference spans a removed construct or a NUL
        ("&am<?x>p; &am<!x>p; &am</ x>p; &am\x00p;", "", "&amp; &amp; &amp; &amp;"),
    ])
    def test_markup_reads_as_the_whatwg_tokenizer(self, html, title, text):
        assert corpus._read_page(html) == (title, text)
        assert tokenizer_ref.read_page(html) == (title, text)

    def test_golden_page_takes_the_scan(self):
        assert corpus._read_page(GOLDEN_HTML) == html_ref.read_page(GOLDEN_HTML)

    def test_noscript_and_plain_raw_text_elements_take_the_scan(self):
        html = (f'<body><noscript><img src="/px.gif"></noscript><p>{PARA_ONE}</p>'
                "<iframe src='/ad'></iframe><textarea>t</textarea></body>")
        assert corpus._read_page(html) == html_ref.read_page(html)

    def test_nul_in_text_is_dropped_and_in_title_replaced(self):
        html = f"<title>a\x00b</title><p>{PARA_ONE}\x00</p>\x00<p>{PARA_TWO}</p>"
        assert corpus._read_page(html) == ("a\ufffdb", f"\n\n\n{PARA_ONE}\n\n{PARA_TWO}\n")

    def test_title_after_a_bogus_comment_is_the_title(self):
        html = f"<![CDATA[x]]><title>late</title><p>{PARA_ONE}</p>"
        assert corpus._read_page(html) == ("late", f"\n\n\n{PARA_ONE}\n")

    def test_title_before_the_cut_stays_the_only_one(self):
        html = f"<title>first</title><?x?><title>late</title><p>{PARA_ONE}</p>"
        assert corpus._read_page(html) == ("first", f"\n\n\nlate\n\n{PARA_ONE}\n")

    def test_reference_split_by_a_comment_or_declaration_stays_unconverted(self):
        # the tokenizer unescapes the text on each side of them apart
        html = "<p>&am<!---->p; &amp<!---->x &am<!DOCTYPE html>p;</p>"
        assert corpus._read_page(html) == ("", "\n&amp; &x &amp;\n")
        assert html_ref.read_page(html) == ("", "\n&amp; &x &amp;\n")

    def test_title_is_the_first_title_element(self):
        html = "<title>a &lt; b</title><title>second</title>"
        assert corpus._read_page(html) == ("a < b", "\n\n\nsecond\n")
        assert html_ref.read_page(html) == ("a < b", "\n\n\nsecond\n")

    def test_end_title_before_any_title_means_none(self):
        html = "</title><title>late</title>"
        assert corpus._read_page(html) == ("", "\n\nlate\n")
        assert html_ref.read_page(html) == ("", "\n\nlate\n")

    # about 210 KB of each unit, repeated after the head: markup, and text
    # with characters outside the blocks that the run split's class lists
    # (Hebrew words, Arabic with emoji)
    @pytest.mark.parametrize("head, unit", [
        ("", "<!-- x "), ("", "<a"), ("", "<![CDATA["), ("", "<?x "), ("", "</ "),
        ("", "<script>"), ("", "<title>"), ("", "<textarea>"), ("", "<a b='"), ("<a", " b"),
        ("", "שלום עולם כלכלה "), ("", "سعر \U0001f600 النفط \u2192 ارتفع \U0001f4c8 "),
    ])
    def test_hostile_page_reads_in_linear_time(self, head, unit):
        n = 210_000 // len(unit)
        small, large = (RawPage(source_url="x", html=head + unit * k) for k in (n, 4 * n))
        assert_linear(_extract_or_none, small, large)

    def test_page_of_distinct_code_points_reads_in_linear_time(self):
        # from U+30000 up: letters, then unassigned and private-use code points
        small, large = (
            RawPage(source_url="x", html="".join(map(chr, range(0x30000, 0x30000 + k))))
            for k in (210_000, 840_000)
        )
        assert_linear(_extract_or_none, small, large)

    def test_tag_with_many_attributes_reads_in_little_memory(self):
        html = "<a" + " b" * 105_000 + f">{PARA_ONE}"
        tracemalloc.start()
        try:
            assert corpus._read_page(html) == ("", f"\n{PARA_ONE}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    # attributes of each form in turn, so that the last one a match reads
    # (the _MAX_ATTRS-th) is of each form in one of the counts; only the
    # quotes after "=" in the first three hold a ">"
    _ATTR_FORMS = [' a="1>"', " b='2>'", '/f = "g>"', " c=d", " e", ' ="h"', " i==j'k"]

    @pytest.mark.parametrize("count", [63, 64, 65, 66, 67, 68, 69, 70, 200])
    @pytest.mark.parametrize("name", ["p", "/p", "title", "/title", "script", "xmp"])
    def test_tag_with_many_attributes_reads_as_the_reference_tokenizer(self, name, count):
        attrs = "".join(self._ATTR_FORMS[i % len(self._ATTR_FORMS)] for i in range(count))
        html = f"<title>t</title><{name}{attrs} k='>'>x</{name.strip('/')}>y"
        assert corpus._read_page(html) == tokenizer_ref.read_page(html)
        if name == "p":
            assert corpus._read_page(html)[1].endswith("\nx\ny")


def _extract_or_none(page: RawPage) -> tuple[str, str] | None:
    try:
        return extract_main_article(page)
    except CorpusError:
        return None


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
    st.integers(1, 5).map(lambda n: ";" * n),
    st.integers(1, 3).map(lambda n: " \n" * n),
    st.text(max_size=3),
)).map("".join)


class TestTextRuns:
    @settings(max_examples=500, deadline=None)
    @given(text=_RUN_TEXT)
    def test_runs_equal_the_char_loop(self, text):
        assert _stripped(corpus._text_runs(text)) == _stripped(runs_ref.text_runs(text))
        assert re.split(corpus._RUN_SPLIT, text) == re.split(runs_ref.RUN_SPLIT, text)

    @settings(max_examples=500, deadline=None)
    @given(text=_RUN_TEXT)
    def test_split_equals_the_char_loop_inside_the_blocks(self, text):
        text = re.sub(corpus._OUTSIDE_RUN_BLOCKS, "", text)
        assert _stripped(re.split(corpus._RUN_SPLIT, text)) == _stripped(
            runs_ref.text_runs(text))

    @pytest.mark.parametrize("unit", [";", "\n", " \n"])
    def test_runs_of_one_unit_split_in_linear_time(self, unit):
        n = 200_000 // len(unit)
        assert_linear(corpus._text_runs, "x" + unit * n + "x", "x" + unit * 4 * n + "x")

    def test_split_class_is_is_run_char(self):
        for lo, hi in corpus._RUN_BLOCKS:
            for cp in range(lo, hi + 1):
                ch = chr(cp)
                assert (re.split(corpus._RUN_SPLIT, ch) == [ch]) == corpus._is_run_char(ch), hex(cp)

    def test_split_keeps_characters_outside_the_blocks(self):
        for ch in _OUTSIDE_CHARS + ["\u0100", "\u05ff", "\u0780", "\u1fff", "\u20d0"]:
            assert re.split(corpus._RUN_SPLIT, ch) == [ch]

    def test_page_mixing_blocks_gives_the_reference_runs(self):
        text = f"{PARA_ONE}\n\nسعر 5 \ufdfc للسهم \U0001f600، {PARA_TWO}\u2192\n\n{PARA_ONE}"
        runs = corpus._text_runs(text)
        assert _stripped(runs) == _stripped(runs_ref.text_runs(text))
        assert not any("\0" in run for run in runs)
        assert extract_main_article(RawPage(source_url="x", html=f"<p>{text}</p>"))[1] == (
            f"{PARA_ONE}\n، {PARA_TWO}\n{PARA_ONE}"
        )


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


class TestDocId:
    @settings(max_examples=300, deadline=None)
    @given(st.text(
        st.characters() | st.sampled_from("ابتث/:.?=%") | st.characters(min_codepoint=0x10000)
    ))
    def test_is_the_head_of_the_urls_sha256(self, url):
        expected = hashlib.sha256(url.encode("utf-8")).hexdigest()[:12]
        assert doc_id_for_url(url) == make_document(url, "", "b").id == expected

    def test_url_with_a_lone_surrogate_fails_to_encode(self):
        with pytest.raises(UnicodeEncodeError):
            doc_id_for_url("http://x/\ud800")


#: every whitespace code point; the last is U+3000
_SPACES = [c for c in map(chr, range(0x3001)) if c.isspace()]
#: text mostly of whitespace, every kind of it, and of look-alikes that are
#: not, with a lone surrogate, which a body decoded from a page may hold
_SPACED_TEXT = st.text(
    st.sampled_from(_SPACES + ["\u200b", "\ufeff", "\ud800", "ن", "a"]) | st.characters(),
    max_size=10,
)


@st.composite
def _bodies_with_repeats(draw):
    """Bodies of a few words, lone surrogates among them, joined by any
    whitespace, each drawn from a small pool so that repeats are common."""
    words = st.sampled_from(["نص", "واحد", "a", "\ud800", "نص\udfff"])
    spaces = st.text(st.sampled_from(_SPACES), min_size=1, max_size=3)
    body = st.lists(words | spaces, max_size=5).map("".join)
    pool = draw(st.lists(body, min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), max_size=10))


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

    @settings(max_examples=300, deadline=None)
    @given(_bodies_with_repeats())
    def test_keeps_the_documents_the_digest_key_kept(self, bodies):
        docs = [make_document(url=f"http://{i}", title="", body=b) for i, b in enumerate(bodies)]
        expected = dedupe_ref.dedupe_documents(docs)
        assert dedupe_documents(docs) == expected
        # and with every body in one bucket, where only equality decides
        with mock.patch.object(corpus, "hash", lambda text: 0, create=True):
            assert dedupe_documents(docs) == expected

    def test_colliding_hashes_are_told_apart_by_the_text(self, monkeypatch):
        hashed = []
        monkeypatch.setattr(corpus, "hash", lambda text: hashed.append(text) or 0, raising=False)
        bodies = ["نص  واحد", "نص اخر", "نص\u3000واحد\n", "\ud800 a", "نص اخر ", "\ud800\ta"]
        docs = [make_document(url=f"http://{i}", title="", body=b) for i, b in enumerate(bodies)]
        assert dedupe_documents(docs) == [docs[0], docs[1], docs[3]]
        assert hashed == [" ".join(b.split()) for b in bodies]


_CP1256_PAGE = '<html><head><meta charset="windows-1256"></head><body>اقتصاد</body></html>'


class _Handler(http.server.BaseHTTPRequestHandler):
    """Serves /page and any path under /page/ (windows-1256), /moved (a
    redirect to /page), /slow (held until the test ends) and a 404 for
    anything else; logs every hit with its path as the request line sent it."""

    def do_GET(self):
        self.server.hits.append((self.path, self.headers["User-Agent"], time.monotonic()))
        if self.path == "/moved":
            self.send_response(302)
            self.send_header("Location", "/page")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.path == "/slow":
            self.server.release.wait(10)
        elif self.path != "/page" and not self.path.startswith("/page/"):
            self.send_error(404)
            return
        body = _CP1256_PAGE.encode("windows-1256")
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:  # the client of /slow has gone
            pass

    def log_message(self, *args):
        pass


@pytest.fixture()
def server():
    """A base URL on 127.0.0.1, and the hits the server logs."""
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.hits = []
    httpd.release = threading.Event()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", httpd.hits
    finally:
        httpd.release.set()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestFetchPages:
    def test_empty_list(self):
        assert list(fetch_pages([])) == []

    def test_local_file_mode(self, tmp_path):
        f = tmp_path / "page.html"
        f.write_text("<p>محتوى</p>", encoding="utf-8")
        assert list(fetch_pages([str(f)])) == [RawPage(source_url=str(f), html="<p>محتوى</p>")]

    def test_file_url_is_percent_decoded(self, tmp_path):
        f = tmp_path / "a b%.html"
        f.write_text("<p>محتوى</p>", encoding="utf-8")
        by_url = list(fetch_pages([f.as_uri()]))
        assert by_url == list(fetch_pages([str(f)])) == list(fetch_pages([f]))
        assert isinstance(by_url[0], RawPage)

    def test_partial_failure(self, tmp_path):
        good1 = tmp_path / "a.html"
        good2 = tmp_path / "b.html"
        good1.write_text("<p>a</p>", encoding="utf-8")
        good2.write_text("<p>b</p>", encoding="utf-8")
        missing = tmp_path / "missing.html"
        for sources in ([str(good1), str(missing), str(good2)], [good1, missing, good2]):
            items = list(fetch_pages(sources))
            assert [type(item) for item in items] == [RawPage, FetchFailure, RawPage]
            assert [item[0] for item in items] == [str(good1), str(missing), str(good2)]
            assert "No such file" in items[1].reason

    def test_declared_charset_decoded(self, tmp_path):
        f = tmp_path / "cp1256.html"
        content = '<html><head><meta charset="windows-1256"></head><body>اقتصاد</body></html>'
        f.write_bytes(content.encode("windows-1256"))
        page = read_local_page(f)
        assert "اقتصاد" in page.html

    def test_remote_page_in_windows_1256(self, server):
        base, hits = server
        pages = list(fetch_pages([f"{base}/page"], politeness_delay=0))
        assert pages == [RawPage(source_url=f"{base}/page", html=_CP1256_PAGE)]
        assert [(path, agent) for path, agent, _ in hits] == [("/page", USER_AGENT)]

    # each sent as requests 2.34.2 sends it
    @pytest.mark.parametrize("path, sent", [
        ("/page/أخبار لبنان?q=اقتصاد لبنان&n=1",
         "/page/%D8%A3%D8%AE%D8%A8%D8%A7%D8%B1%20%D9%84%D8%A8%D9%86%D8%A7%D9%86"
         "?q=%D8%A7%D9%82%D8%AA%D8%B5%D8%A7%D8%AF%20%D9%84%D8%A8%D9%86%D8%A7%D9%86&n=1"),
        ("/page/a b", "/page/a%20b"),
        ("/page/%D8%A3%20b?q=a+b%26c", "/page/%D8%A3%20b?q=a+b%26c"),
    ])
    def test_path_and_query_are_sent_percent_encoded(self, server, path, sent):
        base, hits = server
        pages = list(fetch_pages([base + path], politeness_delay=0))
        assert pages == [RawPage(source_url=base + path, html=_CP1256_PAGE)]
        assert [hit_path for hit_path, _, _ in hits] == [sent]

    def test_not_found_is_a_failure(self, server):
        base, _ = server
        [failure] = fetch_pages([f"{base}/missing"], politeness_delay=0)
        assert isinstance(failure, FetchFailure)
        assert failure.url == f"{base}/missing"
        assert "404" in failure.reason

    def test_redirect_is_followed(self, server):
        base, hits = server
        pages = list(fetch_pages([f"{base}/moved"], politeness_delay=0))
        assert pages == [RawPage(source_url=f"{base}/moved", html=_CP1256_PAGE)]
        assert [path for path, _, _ in hits] == ["/moved", "/page"]

    def test_server_slower_than_the_timeout_is_a_failure(self, server):
        base, _ = server
        start = time.monotonic()
        # /slow answers after 10 s; 1 s leaves /page time to answer on a busy machine
        items = list(fetch_pages([f"{base}/slow", f"{base}/page"], politeness_delay=0, timeout=1))
        assert time.monotonic() - start < 5
        assert [(type(item), item[0]) for item in items] == [
            (FetchFailure, f"{base}/slow"), (RawPage, f"{base}/page")]

    def test_politeness_delay_spaces_the_hits_on_one_host(self, server):
        base, hits = server
        other_host = base.replace("127.0.0.1", "localhost")
        waits = []  # the hits logged when fetch_pages sleeps
        real_sleep = time.sleep

        def sleep(seconds):
            waits.append(len(hits))
            real_sleep(seconds)

        with mock.patch.object(corpus.time, "sleep", sleep):
            items = list(fetch_pages([f"{base}/page", f"{other_host}/page", f"{base}/page"],
                                     politeness_delay=0.5))
        assert [type(item) for item in items] == [RawPage] * 3
        (_, _, first), _, (_, _, again) = hits
        # another host is not kept waiting; the same host is, unless the hit on
        # the other took the whole delay
        assert all(hit_count == 2 for hit_count in waits)
        assert again - first >= 0.5

    def test_failure_leaves_the_rest_of_the_batch(self, server):
        base, _ = server
        refused = f"http://127.0.0.1:{_closed_port()}/page"
        urls = [f"{base}/page", f"{base}/missing", refused, f"{base}/moved"]
        items = list(fetch_pages(urls, politeness_delay=0))
        assert [(type(item), item[0]) for item in items] == [
            (RawPage, urls[0]), (FetchFailure, urls[1]), (FetchFailure, urls[2]),
            (RawPage, urls[3])]
