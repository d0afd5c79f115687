from __future__ import annotations

import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from arfuture.rules import (
    MAX_EXPANSIONS,
    Adjacency,
    FormIndex,
    Group,
    Literal,
    PatternSeq,
    Polarity,
    RuleParseError,
    expansions,
    format_pattern,
    format_rule,
    parse_pattern,
    parse_rules,
    parse_semantic_map,
    parse_variable_defs,
)
from arfuture.segment import tokenize

from backtrack import Matcher
from oracle import expand_words

MAP = parse_semantic_map("مستقبل\n")

VARS = parse_variable_defs(
    "::فعل_ماضي = (و|ف)؟(توقع|استبعد|ارتقب)(ت)؟\n"
    "::فعل_مضارع = (و|ف)؟(ي|ن|ا)(توقع|استبعد|رجح|رجو)\n"
)


def ends(m) -> tuple[int, tuple[int, ...]] | None:
    """What the engine reads of a match: its end token and covered tokens.
    A ``FormIndex`` match is its covered tokens, the last ending it; a
    backtracker match names both."""
    if m is None:
        return None
    if isinstance(m, tuple):
        return m[-1], m
    return m.end_token, m.covered


def match_words(pattern_text: str, sentence: str, start: int = 0, **kw):
    """Shadow pieces the backtracker consumes; the first-word index must
    end at the same token and cover the same tokens."""
    pattern = parse_pattern(pattern_text)
    tokens = tokenize(sentence)
    m = Matcher(pattern).match_at(tokens, start, **kw)
    assert ends(FormIndex(pattern).match_at(tokens, start, **kw)) == ends(m)
    if m is None:
        return None
    return [tokens[ti].shadow[a:b] for ti, a, b in m.pieces]


class TestPatternParsing:
    def test_optional_clitic_then_literal(self):
        seq = parse_pattern("(و|ف)؟سوف")
        assert len(seq.items) == 2
        group, lit = seq.items
        assert isinstance(group, Group) and group.optional
        assert [a.items[0].text for a in group.alternatives] == ["و", "ف"]
        assert lit == Literal("سوف")
        assert seq.joins == (Adjacency.GLUED,)

    def test_spaced_vs_glued_inside_group(self):
        # the "من ال" alternative carries a space: spaced after من, then
        # the group glues onto the participle
        seq = parse_pattern("(و|ف)؟(من ال)؟(ممكن|متوقع|مرجح|مرتقب|مرجو|مستبعد|محتمل)")
        mid = seq.items[1]
        assert isinstance(mid, Group) and mid.optional
        inner = mid.alternatives[0]
        assert [i.text for i in inner.items] == ["من", "ال"]
        assert inner.joins == (Adjacency.SPACED,)
        assert seq.joins == (Adjacency.GLUED, Adjacency.GLUED)

    def test_ascii_question_mark_alias(self):
        assert parse_pattern("(ت)?قال") == parse_pattern("(ت)؟قال")

    def test_unbalanced_parens(self):
        with pytest.raises(RuleParseError, match="unbalanced"):
            parse_pattern("(ا|")

    def test_empty_alternative(self):
        with pytest.raises(RuleParseError, match="empty alternative"):
            parse_pattern("(ا|)")

    def test_all_optional_pattern_rejected(self):
        with pytest.raises(RuleParseError, match="empty string"):
            parse_pattern("(و|ف)؟(ت)؟")

    def test_bar_outside_group_rejected(self):
        with pytest.raises(RuleParseError, match="outside a group"):
            parse_pattern("قد|سوف")


class TestExpansionLimit:
    BLOWUP = "(ا|ب)" * 20  # 2**20 surface forms

    def test_rule_over_limit_names_line(self):
        text = "سوف -> مستقبل\n" + self.BLOWUP + " -> مستقبل\n"
        with pytest.raises(
            RuleParseError, match="^line 2: pattern expands to more than 10,000 surface forms$"
        ):
            parse_rules(text, VARS, MAP)

    def test_variable_over_limit_names_line(self):
        with pytest.raises(RuleParseError, match="line 2: .*more than 10,000"):
            parse_variable_defs("::a = ا\n::b = " + self.BLOWUP + "\n")

    def test_limit_counts_the_expanded_rule(self):
        # each variable is under the limit; the rule joining them is not
        table = parse_variable_defs("::x = " + "(ا|ب)" * 7 + "\n")
        with pytest.raises(
            RuleParseError, match="^line 1: pattern expands to more than 10,000 surface forms$"
        ):
            parse_rules("::x ::x -> مستقبل\n", table, MAP)

    def test_limit_is_inclusive(self):
        limit_sized = "(ا|ب|ت|ث|ج|ح|خ|د|ذ|ر)" * 4
        assert len(expansions(parse_pattern(limit_sized))) == MAX_EXPANSIONS == 10_000
        with pytest.raises(RuleParseError, match="more than 10,000"):
            expansions(parse_pattern(f"({limit_sized}|ز)"))


class TestVariableDefs:
    def test_past_verb_structure(self):
        seq = VARS["فعل_ماضي"]
        assert len(seq.items) == 3
        assert seq.joins == (Adjacency.GLUED, Adjacency.GLUED)
        stems = seq.items[1]
        assert [a.items[0].text for a in stems.alternatives] == ["توقع", "استبعد", "ارتقب"]
        assert stems.optional is False
        assert seq.items[2].optional is True

    def test_duplicate_name_rejected(self):
        with pytest.raises(RuleParseError, match="duplicate"):
            parse_variable_defs("::x = ا\n::x = ب\n")

    def test_recursive_reference_rejected(self):
        with pytest.raises(RuleParseError, match="recursive|unresolved"):
            parse_variable_defs("::a = ::b\n::b = ::a\n")

    def test_nested_reference_expands(self):
        table = parse_variable_defs("::stem = (توقع|ارتقب)\n::full = (و)؟::stem\n")
        assert expansions(table["full"]) == {("توقع",), ("ارتقب",), ("وتوقع",), ("وارتقب",)}


class TestSemanticMap:
    def test_single_node(self):
        assert parse_semantic_map("مستقبل\n") == ["مستقبل"]

    def test_one_nesting_level(self):
        assert parse_semantic_map("اقتصاد\n  مستقبل\n") == ["اقتصاد", "مستقبل"]

    def test_duplicate_name(self):
        with pytest.raises(RuleParseError, match="duplicate"):
            parse_semantic_map("مستقبل\nمستقبل\n")

    def test_bad_indent(self):
        with pytest.raises(RuleParseError, match="indentation"):
            parse_semantic_map("اقتصاد\n   مستقبل\n")

    def test_orphan_indent(self):
        with pytest.raises(RuleParseError, match="indentation"):
            parse_semantic_map("  مستقبل\n")


class TestRuleParsing:
    def test_variable_rule(self):
        rules = parse_rules("::فعل_ماضي -> مستقبل\n", VARS, MAP)
        assert len(rules) == 1
        rule = rules[0]
        assert rule.category == "مستقبل"
        assert len(rule.forms) == 1
        assert rule.forms[0].polarity is Polarity.POSITIVE

    def test_clitic_sawfa_rule(self):
        rules = parse_rules("(و|ف)؟سوف -> مستقبل\n", VARS, MAP)
        seq = rules[0].forms[0].pattern
        assert isinstance(seq.items[0], Group) and seq.items[0].optional
        assert seq.items[1] == Literal("سوف")
        assert seq.joins == (Adjacency.GLUED,)

    def test_negative_then_positive(self):
        rules = parse_rules("-قبل > ::فعل_مضارع -> مستقبل\n", VARS, MAP)
        forms = rules[0].forms
        assert forms[0].polarity is Polarity.NEGATIVE
        assert forms[1].polarity is Polarity.POSITIVE

    def test_both_arrow_spellings(self):
        a = parse_rules("r: (و|ف)؟سوف -> مستقبل\n", VARS, MAP)
        b = parse_rules("r: (و|ف)؟سوف <- مستقبل\n", VARS, MAP)
        assert a == b

    def test_search_field_suffix(self):
        rules = parse_rules("سوف > قد@3 -> مستقبل\n", VARS, MAP)
        assert rules[0].forms[1].search_field_words == 3

    def test_directives(self):
        rules = parse_rules("sin: (و|ف)؟س -> مستقبل [morph=siin, class=sin]\n", VARS, MAP)
        assert rules[0].morph == "siin"
        assert rules[0].class_label == "sin"

    def test_every_allowed_directive_value(self):
        text = (
            "a: (و|ف)؟س -> مستقبل [morph=siin, extract=from-marker-to-end, class=a b]\n"
            "b: (و|ف)؟قد -> مستقبل [morph=qad]\n"
        )
        a, b = parse_rules(text, VARS, MAP)
        assert (a.morph, a.extract, a.class_label) == ("siin", "from-marker-to-end", "a b")
        assert (b.morph, b.extract, b.class_label) == ("qad", None, "b")

    @pytest.mark.parametrize(
        "directives, message",
        [
            ("morph=sin", "morph must be qad or siin, not 'sin'"),
            ("morph=", "morph must be qad or siin, not ''"),
            ("extract=from-marker", "extract must be from-marker-to-end, not 'from-marker'"),
            ("class=", "empty class directive"),
            ("class= ", "empty class directive"),
            ("morph=qad, morph=siin", "repeated directive 'morph'"),
            ("class=x, class=x", "repeated directive 'class'"),
            ("mode=qad", "unknown directive 'mode'"),
            ("morph", "bad directive 'morph'"),
        ],
    )
    def test_bad_directive_names_line(self, directives, message):
        text = f"سوف -> مستقبل\nr: لن -> مستقبل [{directives}]\n"
        with pytest.raises(RuleParseError, match=f"^line 2: {re.escape(message)}$"):
            parse_rules(text, VARS, MAP)

    def test_siin_form_is_the_last_positive_form(self):
        text = (
            "a: سوف > -لن > س > -قد -> مستقبل [morph=siin]\n"
            "b: سوف > س -> مستقبل\n"
            "c: -لن > س -> مستقبل [morph=siin]\n"
        )
        assert [r.siin_form for r in parse_rules(text, VARS, MAP)] == [2, -1, 1]

    def test_unresolved_variable(self):
        with pytest.raises(RuleParseError, match="^line 1: unresolved variable مجهول$"):
            parse_rules("::مجهول -> مستقبل\n", VARS, MAP)

    def test_no_positive_marker(self):
        with pytest.raises(RuleParseError, match="no positive marker"):
            parse_rules("-قبل -> مستقبل\n", VARS, MAP)

    def test_unknown_category(self):
        with pytest.raises(RuleParseError, match="category not in semantic map"):
            parse_rules("سوف -> ماضي\n", VARS, MAP)

    def test_comments_and_blanks_skipped(self):
        rules = parse_rules("# والتعليق\n\nسوف -> مستقبل\n", VARS, MAP)
        assert len(rules) == 1

    def test_missing_arrow_names_line(self):
        with pytest.raises(RuleParseError, match="^line 2: missing category arrow$"):
            parse_rules("سوف -> مستقبل\nلن مستقبل\n", VARS, MAP)

    def test_auto_id_clashing_with_explicit_id_rejected(self):
        # the second rule's automatic id is rule2, already taken by line 1
        with pytest.raises(RuleParseError, match="^line 2: duplicate rule id rule2$"):
            parse_rules("rule2: سوف -> مستقبل\nلن -> مستقبل\n", VARS, MAP)

    def test_repeated_explicit_id_rejected(self):
        with pytest.raises(RuleParseError, match="^line 3: duplicate rule id a$"):
            parse_rules("a: سوف -> مستقبل\n\na: لن -> مستقبل\n", VARS, MAP)


class TestRoundTrip:
    def test_bundled_rules_round_trip(self, ruleset):
        empty = {}
        for rule in ruleset:
            line = format_rule(rule)
            reparsed = parse_rules(line + "\n", empty, MAP)
            assert reparsed == [rule], line

    def test_pattern_round_trip(self):
        for text in ["(و|ف)؟سوف", "(من ال)؟(ممكن|مرجح)(ا)؟", "قبل ::فعل_ماضي"]:
            seq = parse_pattern(text)
            assert parse_pattern(format_pattern(seq)) == seq


class TestMatcher:
    def test_clitic_absorbed_in_same_token(self):
        assert match_words("(و|ف)؟سوف", "وسوف يرتفع") == ["وسوف"]

    def test_optional_group_empty(self):
        assert match_words("(و|ف)؟سوف", "سوف يرتفع") == ["سوف"]

    def test_two_token_match(self):
        assert match_words("من ال(ممكن|متوقع)", "من المتوقع ان") == ["من", "المتوقع"]

    def test_no_partial_token_match(self):
        # the pattern must cover the whole written word
        assert match_words("قد", "قدم الوزير") is None
        assert match_words("(و|ف)؟سوف", "سوفان") is None

    def test_prefix_mode_allows_remainder(self):
        assert match_words("(و|ف)؟س", "سيوفر", prefix=True) == ["س"]
        assert match_words("(و|ف)؟س", "وسيجري", prefix=True) == ["وس"]
        # only the last word may run on; earlier words stay whole
        assert match_words("قد لا يكون", "قد لا يكونوا", prefix=True) == ["قد", "لا", "يكون"]
        assert match_words("قد لا يكون", "قد لاا يكونوا", prefix=True) is None

    def test_glued_never_crosses_whitespace(self):
        # س glued to a following letter cannot match across two tokens
        assert match_words("(و|ف)؟سوف", "و سوف") is None

    def test_punct_transparent_spaced_gap(self):
        assert match_words("من ال(متوقع|مرجح)", 'من "المتوقع') == ["من", "المتوقع"]

    def test_strict_adjacency_blocks_punct(self):
        assert match_words(
            "من ال(متوقع|مرجح)", 'من "المتوقع', punct_transparent=False
        ) is None

    def test_greedy_longest_wins(self):
        assert match_words("(قد|قدم)", "قدم") == ["قدم"]

    def test_skipped_group_joins_neighbours(self):
        # clitic glues straight onto the participle when the optional
        # middle group is not taken
        assert match_words("(و|ف)؟(من ال)؟(متوقع|مرجح)", "ومتوقع") == ["ومتوقع"]
        assert match_words("(و|ف)؟(من ال)؟(متوقع|مرجح)", "ومن المتوقع") == ["ومن", "المتوقع"]

    def test_diacritics_ignored_for_matching(self):
        assert match_words("(و|ف)؟سوف", "سَوْفَ") == ["سوف"]

    def test_leading_skipped_group_opens_no_gap(self):
        # with the optional word left out, the match starts at سوف itself
        assert match_words("(و)؟ سوف", "سوف يرتفع") == ["سوف"]
        assert match_words("(و)؟ سوف", "و سوف") == ["و", "سوف"]

    def test_determinism(self):
        first = match_words("(س|سو)(وف|ف)", "سوف")
        assert first is not None
        for _ in range(5):
            assert match_words("(س|سو)(وف|ف)", "سوف") == first


def mutate(rng: random.Random, words: tuple[str, ...]) -> tuple[str, ...]:
    words = list(words)
    idx = rng.randrange(len(words))
    w = words[idx]
    letters = "ابتثجحخسوفقلمن"
    roll = rng.random()
    if roll < 0.34:
        pos = rng.randrange(len(w) + 1)
        words[idx] = w[:pos] + rng.choice(letters) + w[pos:]
    elif roll < 0.67 and len(w) > 1:
        pos = rng.randrange(len(w))
        words[idx] = w[:pos] + w[pos + 1:]
    else:
        words.append(rng.choice(["لبنان", "قد", "سوف"]))
    return tuple(w for w in words if w)


class TestExpansionSoundness:
    def test_matcher_agrees_with_enumeration_on_bundled_patterns(self, ruleset):
        rng = random.Random(2024)
        patterns = [form.pattern for rule in ruleset for form in rule.forms]
        for pattern in patterns:
            variants = expansions(pattern)
            assert 0 < len(variants) <= MAX_EXPANSIONS
            # the independent enumeration agrees with the library one
            assert {tuple(w) for w in expand_words(pattern)} == variants
            matcher = Matcher(pattern)
            index = FormIndex(pattern)
            candidates = set(variants)
            for variant in list(variants):
                for _ in range(6):
                    candidates.add(mutate(rng, variant))
            for candidate in sorted(candidates):
                tokens = tokenize(" ".join(candidate))
                m = matcher.match_at(tokens, 0)
                accepted = (
                    m is not None
                    and m.end_token == len(tokens) - 1
                    and m.end_char == len(tokens[-1].shadow)
                )
                assert accepted == (candidate in variants), candidate
                got = index.match_at(tokens, 0)
                assert (got is not None and got[-1] == len(tokens) - 1) == accepted


# Small alphabets make literals collide with each other and with tokens.
_LITERALS = st.sampled_from(["a", "b", "ab", "ba", "1", "،"])
_TOKEN_TEXTS = st.sampled_from(["a", "b", "ab", "ba", "aab", "bab", "1", "،", "ـ"])


def _seqs(elements):
    def with_joins(items):
        joins = st.lists(
            st.sampled_from(list(Adjacency)),
            min_size=len(items) - 1,
            max_size=len(items) - 1,
        )
        return joins.map(lambda js: PatternSeq(tuple(items), tuple(js)))

    return st.lists(elements, min_size=1, max_size=3).flatmap(with_joins)


_PATTERNS = _seqs(
    st.recursive(
        st.builds(Literal, _LITERALS),
        lambda inner: st.builds(
            Group, st.lists(_seqs(inner), min_size=1, max_size=3).map(tuple), st.booleans()
        ),
        max_leaves=6,
    )
)


class TestIndexAgainstBacktracker:
    @pytest.mark.parametrize("prefix", [False, True])
    @pytest.mark.parametrize("punct_transparent", [True, False])
    @settings(max_examples=100, deadline=None)
    @given(pattern=_PATTERNS, data=st.data())
    def test_same_match_at_every_start(self, pattern, data, prefix, punct_transparent):
        # plant one surface form, its words perhaps lengthened or split by
        # punctuation, among random tokens, so that most examples match
        forms = sorted(expansions(pattern))
        planted = list(data.draw(st.sampled_from(forms))) if forms else []
        words = data.draw(st.lists(_TOKEN_TEXTS, max_size=3))
        for word in planted:
            if data.draw(st.booleans()):
                words.append("،")
            words.append(word + data.draw(st.sampled_from(["", "", "a", "b"])))
        words += data.draw(st.lists(_TOKEN_TEXTS, max_size=3))
        tokens = tokenize(" ".join(words))
        matcher, index = Matcher(pattern), FormIndex(pattern)
        kw = dict(prefix=prefix, punct_transparent=punct_transparent)
        for start in range(len(tokens)):
            want = ends(matcher.match_at(tokens, start, **kw))
            assert ends(index.match_at(tokens, start, **kw)) == want, start


def _merge_glued_literals(seq: PatternSeq) -> PatternSeq:
    """The structure parsing gives back: glued neighbouring literals are
    written as one word, so they read back as one literal."""
    items: list = []
    joins: list[Adjacency] = []
    for i, item in enumerate(seq.items):
        if isinstance(item, Group):
            item = Group(tuple(map(_merge_glued_literals, item.alternatives)), item.optional)
        if i and seq.joins[i - 1] is Adjacency.GLUED and isinstance(item, Literal) \
                and isinstance(items[-1], Literal):
            items[-1] = Literal(items[-1].text + item.text)
            continue
        if i:
            joins.append(seq.joins[i - 1])
        items.append(item)
    return PatternSeq(tuple(items), tuple(joins))


class TestGeneratedRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(pattern=_PATTERNS)
    def test_format_then_parse(self, pattern):
        text = format_pattern(pattern)
        try:
            parsed = parse_pattern(text)
        except RuleParseError:
            assume(False)  # e.g. every item optional: may match the empty string
        assert parsed == _merge_glued_literals(pattern), text
        assert expansions(parsed) == expansions(pattern), text
