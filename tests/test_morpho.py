from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import morpho_ref
from arfuture.morpho import (
    CONJUNCTION_CLITICS,
    IMPERFECTIVE_PREFIXES,
    SIIN,
    TA_SUFFIX,
    Lexicons,
    Verdict,
    analyze_token,
    is_future_verb_with_siin,
    strip_clitics,
)
from arfuture.resources import data_dir, load_lexicons

# the bundled open verb lists (clitics and siin prefix left intact)
SIIN_VERBS = [
    "سيفرض", "وستنطلق", "وسيجري", "ستمكن", "سيجيره", "سيفرح", "ستصعب",
    "سيوجهان", "سيتقاضون", "سيجبر", "سنتر", "ستجوب", "سنمنح", "ستتضمن",
]
QAD_VERBS = [
    "يواجهه", "تستخدم", "يعجز", "يسفر", "يستوعب", "يطال", "يطول", "نلحظ",
    "يشاهدها", "تعيق", "تتخلف", "تعتقدن", "تترتب", "تستقر", "تتراوح",
]
PAST_STEMS = ["توقع", "استبعد", "ارتقب"]


class TestStripClitics:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("وسوف", ("و", "سوف")),
            ("سوف", ("", "سوف")),
            ("فستنطلق", ("ف", "ستنطلق")),
            ("و", ("", "و")),  # never strip down to nothing
            ("قد", ("", "قد")),
        ],
    )
    def test_cases(self, token, expected):
        assert strip_clitics(token) == expected

    def test_reconstruction_property(self):
        rng = random.Random(42)
        letters = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
        for _ in range(500):
            token = "".join(rng.choice(letters) for _ in range(rng.randint(1, 10)))
            clitics, stem = strip_clitics(token)
            assert clitics + stem == token


class TestAnalyzeToken:
    def test_heuristic_present_verb(self, lexicons):
        assert analyze_token("يترتب", lexicons).verdict is Verdict.PRESENT_VERB

    def test_past_verb_from_lexicon(self, lexicons):
        assert analyze_token("توقع", lexicons).verdict is Verdict.PAST_VERB

    def test_past_verb_with_ta_suffix(self, lexicons):
        assert analyze_token("توقعت", lexicons).verdict is Verdict.PAST_VERB
        assert analyze_token("واستبعدت", lexicons).verdict is Verdict.PAST_VERB

    def test_plain_noun_is_other(self, lexicons):
        assert analyze_token("طاولة", lexicons).verdict is Verdict.OTHER

    def test_daras_is_not_present(self, lexicons):
        # د is not an imperfective prefix and the stem is in no lexicon
        assert analyze_token("درس", lexicons).verdict is not Verdict.PRESENT_VERB

    def test_short_stem_blocked(self, lexicons):
        assert analyze_token("يد", lexicons).verdict is Verdict.OTHER

    def test_stoplist_beats_prefix_shape(self, lexicons):
        for entry in sorted(lexicons.proper_nouns):
            assert analyze_token(entry, lexicons).verdict is Verdict.PROPER_NOUN

    def test_clitic_reconstruction_fields(self, lexicons):
        verdict = analyze_token("وتوقع", lexicons)
        assert verdict.stripped_clitics + verdict.stem == "وتوقع"
        assert verdict.verdict is Verdict.PAST_VERB

    def test_lexicon_conflict_rejected(self):
        with pytest.raises(ValueError):
            Lexicons(present_verbs=frozenset({"سيمون"}), proper_nouns=frozenset({"سيمون"}))


class TestSiinFutureVerb:
    def test_simple_future(self, lexicons):
        assert is_future_verb_with_siin("سيوفر", lexicons)

    def test_switzerland_stoplisted(self, lexicons):
        assert not is_future_verb_with_siin("سويسرا", lexicons)

    def test_simon_stoplisted(self, lexicons):
        assert not is_future_verb_with_siin("سيمون", lexicons)

    def test_cliticized_stoplist_entry(self, lexicons):
        assert not is_future_verb_with_siin("وسويسرا", lexicons)

    def test_safara_rejected(self, lexicons):
        # hand check: the siin-stripped remainder افر opens with ا, which is
        # not one of the imperfective prefix letters ي ت ن أ
        assert not is_future_verb_with_siin("سافر", lexicons)

    def test_sawfa_itself_rejected(self, lexicons):
        assert not is_future_verb_with_siin("سوف", lexicons)

    def test_no_siin_rejected(self, lexicons):
        assert not is_future_verb_with_siin("يوفر", lexicons)

    def test_empty_rejected(self, lexicons):
        assert not is_future_verb_with_siin("", lexicons)
        assert not is_future_verb_with_siin("س", lexicons)


class TestBundledListCoverage:
    def test_every_siin_verb_passes(self, lexicons):
        for token in SIIN_VERBS:
            assert is_future_verb_with_siin(token, lexicons), token

    def test_every_qad_verb_is_present_tense(self, lexicons):
        for token in QAD_VERBS:
            assert analyze_token(token, lexicons).verdict is Verdict.PRESENT_VERB, token

    def test_every_past_expansion_is_past(self, lexicons):
        for clitic in ("", "و", "ف"):
            for stem in PAST_STEMS:
                for suffix in ("", "ت"):
                    token = clitic + stem + suffix
                    assert analyze_token(token, lexicons).verdict is Verdict.PAST_VERB, token


BUNDLED = load_lexicons(data_dir())
BUNDLED_WORDS = sorted({w for words in BUNDLED for w in words})
_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهويأة"


def _affixed(stems):
    """A stem with an optional clitic, siin, imperfective prefix and final
    letter, most often ت."""
    return st.builds(
        lambda *parts: "".join(parts),
        st.sampled_from(("",) + CONJUNCTION_CLITICS),
        st.sampled_from(("", SIIN)),
        st.sampled_from(("",) + tuple(sorted(IMPERFECTIVE_PREFIXES))),
        stems,
        st.one_of(st.sampled_from(("", TA_SUFFIX)), st.sampled_from(_LETTERS)),
    )


WORDS = _affixed(st.one_of(st.text(_LETTERS, max_size=5), st.sampled_from(BUNDLED_WORDS)))


@st.composite
def _lexicons(draw):
    """Small word lists of generated words; present verbs and proper nouns
    stay apart, as ``Lexicons`` requires."""
    words = st.frozensets(WORDS, max_size=4)
    proper = draw(words)
    return Lexicons(
        present_verbs=draw(words) - proper,
        past_verbs=draw(words),
        proper_nouns=proper,
        qad_exclusions=draw(words),
    )


class TestAgainstReference:
    """The verdict function gives what the earlier ``analyze_token`` and
    siin gate (``tests/morpho_ref.py``) gave."""

    @settings(max_examples=1000, deadline=None)
    @given(word=WORDS)
    def test_generated_words_with_bundled_lexicons(self, word):
        assert analyze_token(word, BUNDLED) == morpho_ref.analyze_token(word, BUNDLED)
        assert is_future_verb_with_siin(word, BUNDLED) is morpho_ref.is_future_verb_with_siin(
            word, BUNDLED
        )

    @settings(max_examples=500, deadline=None)
    @given(lex=_lexicons(), data=st.data())
    def test_generated_words_with_generated_lexicons(self, lex, data):
        entries = sorted({w for words in lex for w in words})
        stems = st.sampled_from(entries) if entries else st.just("")
        for word in data.draw(st.lists(st.one_of(WORDS, _affixed(stems)), max_size=8)):
            assert analyze_token(word, lex) == morpho_ref.analyze_token(word, lex)
            assert is_future_verb_with_siin(word, lex) is morpho_ref.is_future_verb_with_siin(
                word, lex
            )

    @pytest.mark.parametrize("word", BUNDLED_WORDS)
    def test_every_bundled_entry(self, word):
        for token in (word, SIIN + word, "و" + SIIN + word):
            assert analyze_token(token, BUNDLED) == morpho_ref.analyze_token(token, BUNDLED)
            assert is_future_verb_with_siin(token, BUNDLED) is (
                morpho_ref.is_future_verb_with_siin(token, BUNDLED)
            )
