from __future__ import annotations

import importlib
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import segment_ref
from spans import byte_slice
from timing import assert_linear
from arfuture.segment import (
    BOUNDARY_DOT,
    DEFAULT_BOUNDARIES,
    Sentence,
    TokenKind,
    segment,
    tokenize,
)

# the module itself: the package exports the function ``segment`` under its name
segment_module = importlib.import_module("arfuture.segment")


class _CountedSlices(str):
    """A str that adds up the lengths of the slices taken of it."""

    sliced = 0

    def __getitem__(self, key):
        piece = super().__getitem__(key)
        self.sliced += len(piece)
        return piece


def texts(sentences: list[Sentence]) -> list[str]:
    return [s.text for s in sentences]


def oracle_split(body: str) -> list[str]:
    """Regex-based reference splitter for the three boundary conditions."""
    cuts = {0, len(body)}
    for m in re.finditer(r"[.؟!](?=\s|\Z)", body):
        cuts.add(m.end())
    for m in re.finditer(r"\n", body):
        cuts.add(m.start())
        cuts.add(m.end())
    points = sorted(cuts)
    pieces = [body[a:b].strip() for a, b in zip(points, points[1:])]
    return [p for p in pieces if p]


class TestSegment:
    def test_dot_space_splits(self):
        got = texts(segment("جملة أولى. جملة ثانية."))
        assert got == ["جملة أولى.", "جملة ثانية."]

    def test_decimal_number_does_not_split(self):
        got = texts(segment("النسبة 1.5 في المائة"))
        assert got == ["النسبة 1.5 في المائة"]

    def test_empty_body(self):
        assert segment("") == []

    def test_newline_splits_matches_oracle(self):
        body = "سطر أول\nسطر ثان"
        assert texts(segment(body)) == oracle_split(body) == ["سطر أول", "سطر ثان"]

    def test_arabic_question_and_exclamation(self):
        got = texts(segment("هل يرتفع النمو؟ نعم! ربما"))
        assert got == ["هل يرتفع النمو؟", "نعم!", "ربما"]

    def test_dot_without_space_keeps_sentence(self):
        assert texts(segment("رقم.٥ يتبع")) == ["رقم.٥ يتبع"]

    def test_boundary_chars_belong_to_previous_sentence(self):
        got = segment("انتهى. تابع")
        assert got[0].text.endswith(".")

    def test_dot_space_only_mode(self):
        body = "سؤال؟ جواب\nسطر. نهاية"
        got = texts(segment(body, boundaries=frozenset({BOUNDARY_DOT})))
        assert got == ["سؤال؟ جواب\nسطر.", "نهاية"]

    def test_spans_slice_back_to_text(self):
        body = "جملة أولى. جملة ثانية.\nثالثة"
        for s in segment(body):
            assert byte_slice(body, s.span) == s.text

    def test_indexes_are_sequential(self):
        body = "أ. ب. ج."
        assert [s.index for s in segment(body)] == [0, 1, 2]

    def test_idempotent_on_single_sentence(self):
        for text in ["جملة أولى.", "هل؟", "بدون نقطة"]:
            once = segment(text)
            assert len(once) == 1
            again = segment(once[0].text)
            assert len(again) == 1 and again[0].text == once[0].text


def random_text(rng: random.Random) -> str:
    words = ["كلمة", "نص", "لبنان", "اقتصاد", "نمو", "1.5", "20", "تقرير"]
    parts = []
    for _ in range(rng.randint(1, 40)):
        parts.append(rng.choice(words))
        roll = rng.random()
        if roll < 0.12:
            parts.append(". ")
        elif roll < 0.16:
            parts.append("؟ ")
        elif roll < 0.20:
            parts.append("! ")
        elif roll < 0.28:
            parts.append("\n")
        elif roll < 0.32:
            parts.append(".")  # no space: must not split
        else:
            parts.append(" ")
    return "".join(parts)


def assert_reconstructs(body: str) -> None:
    data = body.encode("utf-8")
    rebuilt = bytearray()
    pos = 0
    for s in segment(body):
        gap = data[pos:s.span[0]]
        assert not gap.decode("utf-8").strip(), "gaps must be pure whitespace"
        rebuilt += gap
        rebuilt += data[s.span[0]:s.span[1]]
        pos = s.span[1]
    rebuilt += data[pos:]
    assert bytes(rebuilt) == data


def assert_no_internal_boundary(sentence_text: str) -> None:
    assert "\n" not in sentence_text
    for m in re.finditer(r"[.؟!]", sentence_text):
        nxt = sentence_text[m.end():m.end() + 1]
        assert not (nxt and nxt.isspace()), f"internal boundary in {sentence_text!r}"


class TestSegmentProperties:
    def test_reconstruction_and_no_internal_boundaries(self):
        rng = random.Random(1234)
        for _ in range(200):
            body = random_text(rng)
            assert_reconstructs(body)
            for s in segment(body):
                assert_no_internal_boundary(s.text)

    def test_matches_oracle_on_random_texts(self):
        rng = random.Random(99)
        for _ in range(200):
            body = random_text(rng)
            assert texts(segment(body)) == oracle_split(body)


def written(text: str, toks) -> list[tuple[TokenKind, str]]:
    """Each token's kind and the text its byte span covers."""
    return [(t.kind, byte_slice(text, t.span)) for t in toks]


class TestTokenize:
    def test_two_word_split(self):
        text = "قد يترتب"
        assert written(text, tokenize(text)) == [
            (TokenKind.WORD, "قد"),
            (TokenKind.WORD, "يترتب"),
        ]

    def test_two_token_participle_phrase(self):
        text = "من المرجح"
        toks = tokenize(text)
        assert [w for _, w in written(text, toks)] == ["من", "المرجح"]
        assert [t.shadow for t in toks] == ["من", "المرجح"]
        assert all(t.kind is TokenKind.WORD for t in toks)

    def test_punctuation_isolated(self):
        text = '"الخطر"'
        assert written(text, tokenize(text)) == [
            (TokenKind.PUNCT, '"'),
            (TokenKind.WORD, "الخطر"),
            (TokenKind.PUNCT, '"'),
        ]

    def test_digit_runs(self):
        text = "20 مليار"
        toks = tokenize(text)
        assert written(text, toks)[0] == (TokenKind.DIGIT, "20")
        assert toks[0].shadow == "20"

    def test_tatweel_stripped_from_shadow(self):
        toks = tokenize("مـتوقع")
        assert toks[0].shadow == "متوقع"
        # the span still covers the raw run, tatweel included
        assert byte_slice("مـتوقع", toks[0].span) == "مـتوقع"

    def test_diacritics_kept_in_surface_not_shadow(self):
        word = "مُتَوَقَّع"
        toks = tokenize(word)
        assert byte_slice(word, toks[0].span) == word
        assert toks[0].shadow == "متوقع"

    def test_coverage_of_non_whitespace(self):
        rng = random.Random(5)
        for _ in range(100):
            text = random_text(rng).replace("\n", " ")
            toks = tokenize(text)
            data = text.encode("utf-8")
            covered = bytearray()
            pos = 0
            for t in toks:
                gap = data[pos:t.span[0]].decode("utf-8")
                assert not gap.strip()
                covered += data[t.span[0]:t.span[1]]
                pos = t.span[1]
            assert not data[pos:].decode("utf-8").strip()
            assert bytes(covered).decode("utf-8") == re.sub(r"\s+", "", text)

    def test_long_trailing_whitespace_costs_linear_time(self):
        text = "قد يترتب" + " \t" * 10_000
        started = time.perf_counter()
        toks = tokenize(text)
        assert time.perf_counter() - started < 1.0
        assert [t.shadow for t in toks] == ["قد", "يترتب"]

    # letters outside the scan's classes: distinct ones, about 52k in the
    # larger sentence, and Persian words, whose پ, ی, ک and گ are among them
    _FOREIGN_LETTERS = "".join(itertools.islice(
        (ch for ch in map(chr, range(0x110000))
         if ch.isalpha() and not re.match(r"[\u0620-\u0652A-Za-z]", ch)),
        52_000,
    ))

    @pytest.mark.parametrize("small, large", [
        (_FOREIGN_LETTERS[:13_000], _FOREIGN_LETTERS),
        ("پیش بینی گزارش یک " * 750, "پیش بینی گزارش یک " * 3000),
    ], ids=["distinct-letters", "persian"])
    def test_text_outside_the_classes_costs_linear_time(self, small, large):
        assert_linear(tokenize, small, large)
        assert list(tokenize(large)) == segment_ref.tokenize(large)

    def test_the_catch_all_group_takes_exactly_the_chars_foreign_replaces(self):
        """A char that reached the catch-all group but that ``_FOREIGN`` does
        not replace would reach it again in the copy, which has no answer."""
        text = " ".join(ch for ch in map(chr, range(0x110000)) if not ch.isspace())
        caught = "".join(run[-1] for run in segment_module._TOKEN.findall(text))
        assert caught == "".join(segment_module._FOREIGN.findall(text))
        copy = segment_module._FOREIGN.sub(segment_module._stand_in, text)
        assert len(copy) == len(text)
        assert not "".join(run[-1] for run in segment_module._TOKEN.findall(copy))

    def test_spans_read_in_order_take_one_pass(self):
        text = _CountedSlices("لن يتغير  الدين، " * 1000)
        toks = tokenize(text)
        assert len(toks) == 4000
        text.sliced = 0
        spans = [toks.span(i) for i in range(len(toks))]
        # each span is counted on from the one before, not from the start
        assert text.sliced <= len(text)
        assert spans == [
            (len(text[:start].encode()), len(text[:end].encode()))
            for start, end in zip(toks.starts, toks.ends)
        ]
        assert [toks.span(i) for i in reversed(range(100))] == spans[99::-1]

    def test_spans_read_back_count_from_the_nearer_end(self):
        text = _CountedSlices("لن يتغير  الدين، " * 1000)
        toks = tokenize(text)
        want = [
            (len(text[:start].encode()), len(text[:end].encode()))
            for start, end in zip(toks.starts, toks.ends)
        ]
        # each group of ten tokens read last first, as rules read their
        # spans one after another: a span is counted back from the end of
        # the one read before it (over both tokens and the gap between
        # them), not on from the start of the text
        order = [i for group in range(0, 4000, 10) for i in reversed(range(group, group + 10))]
        text.sliced = 0
        assert [toks.span(i) for i in order] == [want[i] for i in order]
        assert text.sliced <= 5 * len(text)
        shuffled = list(range(4000))
        random.Random(5).shuffle(shuffled)
        assert [toks.span(i) for i in shuffled] == [want[i] for i in shuffled]

    def test_diacritized_word_span_covers_written_word(self):
        text = "مُتَوَقَّعاً تقرير"
        toks = tokenize(text)
        assert written(text, toks) == [
            (TokenKind.WORD, "مُتَوَقَّعاً"),
            (TokenKind.WORD, "تقرير"),
        ]
        assert toks[0].shadow == "متوقعا"


# Any text a UTF-8 file can hold, weighted toward what tokenization and
# segmentation treat specially: harakat, tatweel, Arabic-Indic and
# superscript digits, sentence triggers before every kind of whitespace
# (NBSP, em space, tab, CR, newline), decimals and astral chars.  Also the
# chars on which ``re``'s classes and ``str``'s predicates disagree: "_",
# numerals that are not decimal digits (½ Ⅻ 〇), the Arabic number sign
# U+0600 and the marks U+0670 and U+06D6, and runs of harakat or tatweel
# alone, whose shadow is "", after a digit or punctuation.
_SPECIAL = (
    "ًٌٍَُِّْـ٠١٢٣٤٥٦٧٨٩²³¹.؟!,\"\u00a0\u2003\t\r\n \U0001d7d8\U0001f600"
    "_½Ⅻ〇\u0600\u0670\u06d6"
)
_UNITS = [
    "سوف", "قد يترتب", "مُتَوَقَّعاً", "مـتوقع", ". ", ".\t", "؟\u00a0", "!\u2003", ".\r\n",
    "1.5", "1َ", "٣ـ", ".ًّ", "!ـــ", "2ـَ", "سوف_", "قد½",
]
_TEXT = st.lists(
    st.one_of(
        st.characters(codec="utf-8"), st.sampled_from(_SPECIAL), st.sampled_from(_UNITS)
    ),
    max_size=40,
).map("".join)
# the chars a cut reads: each trigger before whitespace, before another
# char and alone (so also at the end of the text), newlines alone and in
# runs, and a letter, a digit and a comma between them
_CUT_TEXT = st.lists(st.one_of(
    st.sampled_from([
        ".", "؟", "!", "\n", " ", "\t", "\u00a0", "\r", "\u2003", "a", "ب", "1", ",",
        ". ", "؟\n", "!\t", ".x", "؟ب", "!1", "..",
    ]),
    st.integers(1, 5).map(lambda n: "\n" * n),
), max_size=40).map("".join)
_BOUNDARY_SUBSETS = [
    frozenset(c)
    for r in range(len(DEFAULT_BOUNDARIES) + 1)
    for c in itertools.combinations(sorted(DEFAULT_BOUNDARIES), r)
]


def assert_tiles(text: str, spans_and_texts) -> None:
    """Spans slice back to their text, in order, with whitespace between."""
    data = text.encode("utf-8")
    pos = 0
    for (start, end), piece in spans_and_texts:
        assert not data[pos:start].decode("utf-8").strip()
        assert data[start:end].decode("utf-8") == piece
        pos = end
    assert not data[pos:].decode("utf-8").strip()


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(text=_TEXT)
    def test_tokenize_matches_reference(self, text):
        toks = tokenize(text)
        assert list(toks) == segment_ref.tokenize(text)
        pieces = [byte_slice(text, t.span) for t in toks]
        assert_tiles(text, zip((t.span for t in toks), pieces))
        assert "".join(pieces) == "".join(text.split())

    @settings(max_examples=300, deadline=None)
    @given(text=_TEXT)
    def test_tokens_read_as_the_reference_list(self, text):
        toks = tokenize(text)
        want = segment_ref.tokenize(text)
        assert len(toks) == len(want)
        assert list(toks) == want
        assert [toks[i] for i in range(-len(want), len(want))] == want + want
        assert toks[1::2] == want[1::2]

    @settings(max_examples=500, deadline=None)
    @given(body=st.one_of(_TEXT, _CUT_TEXT),
           end=st.sampled_from(["", ".", "؟", "!", "\n", ".\n", "!!"]))
    def test_segment_matches_reference_for_every_boundary_subset(self, body, end):
        body += end
        for boundaries in _BOUNDARY_SUBSETS:
            got = segment(body, doc_id="d", boundaries=boundaries)
            assert got == segment_ref.segment(body, doc_id="d", boundaries=boundaries)
            assert_tiles(body, [(s.span, s.text) for s in got])

    @pytest.mark.parametrize("unit", [".", "؟", "\n"])
    def test_body_of_one_cut_char_segments_in_linear_time(self, unit):
        assert_linear(segment, "x" + unit * 50_000, "x" + unit * 200_000)
