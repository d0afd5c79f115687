"""Independent brute-force re-implementation of rule matching.

Used as the second route in oracle-equivalence tests: patterns are
enumerated into their full finite surface-form sets and matched by direct
string comparison against token shadows, with no code shared with the
engine's matcher (``arfuture.rules.FormIndex``).  Only single-positive-form
rules (the bundled set) are supported.
"""

from __future__ import annotations

import random

from arfuture.morpho import Verdict, analyze_token, is_future_verb_with_siin, strip_clitics
from arfuture.rules import Adjacency, Group, Literal, LinguisticRule, Polarity
from arfuture.segment import Token, TokenKind


def expand_words(seq) -> list[list[str]]:
    """Every surface form of a pattern, as a list of written words."""
    return [r for r in _seq_words(seq) if r]


def _seq_words(seq) -> list[list[str]]:
    results: list[list[str]] = [[]]
    for i, item in enumerate(seq.items):
        spaced = i > 0 and seq.joins[i - 1] is Adjacency.SPACED
        grown: list[list[str]] = []
        for prefix in results:
            for words in _item_words(item):
                if not words:
                    grown.append(list(prefix))
                elif not prefix:
                    grown.append(list(words))
                elif spaced:
                    grown.append(prefix + words)
                else:
                    grown.append(prefix[:-1] + [prefix[-1] + words[0]] + words[1:])
        results = [list(t) for t in {tuple(g) for g in grown}]
    return results


def _item_words(item) -> list[list[str]]:
    if isinstance(item, Literal):
        return [[item.text]]
    if isinstance(item, Group):
        out = {tuple(w) for alt in item.alternatives for w in _seq_words(alt)}
        if item.optional:
            out.add(())
        return [list(t) for t in out]
    raise AssertionError("oracle needs variable-free patterns")


def _variant_end(
    variant: list[str],
    tokens: list[Token],
    start: int,
    *,
    prefix: bool,
    punct_transparent: bool,
) -> tuple[int, list[int]] | None:
    """End token index and matched token indices, or None."""
    ti = start
    matched: list[int] = []
    for k, word in enumerate(variant):
        if k > 0:
            ti += 1
            if punct_transparent:
                while ti < len(tokens) and tokens[ti].kind is TokenKind.PUNCT:
                    ti += 1
            if ti >= len(tokens) or tokens[ti].kind is not TokenKind.WORD:
                return None
        if ti >= len(tokens):
            return None
        shadow = tokens[ti].shadow
        last = k == len(variant) - 1
        if last and prefix:
            if not shadow.startswith(word):
                return None
        elif shadow != word:
            return None
        matched.append(ti)
    return ti, matched


def _next_word(tokens: list[Token], after: int, punct_transparent: bool) -> int | None:
    j = after + 1
    if punct_transparent:
        while j < len(tokens) and tokens[j].kind is TokenKind.PUNCT:
            j += 1
    if j < len(tokens) and tokens[j].kind is TokenKind.WORD:
        return j
    return None


def oracle_marker_spans(
    rule: LinguisticRule,
    tokens: list[Token],
    lex,
    *,
    punct_transparent: bool = True,
) -> list[tuple[tuple[int, int], ...]]:
    """All marker-span tuples the rule should produce on this sentence."""
    positives = [f for f in rule.forms if f.polarity is Polarity.POSITIVE]
    assert len(positives) == 1 and len(rule.forms) == 1, "oracle handles 1-form rules"
    variants = expand_words(positives[0].pattern)
    prefix = rule.morph == "siin"
    hits: list[tuple[tuple[int, int], ...]] = []
    pos = 0
    while pos < len(tokens):
        found = None
        for t in range(pos, len(tokens)):
            best = None
            for variant in variants:
                got = _variant_end(
                    variant, tokens, t, prefix=prefix, punct_transparent=punct_transparent
                )
                if got is None:
                    continue
                if best is None or got[0] > best[0]:
                    best = got
            if best is None:
                continue
            end, matched = best
            if prefix and not is_future_verb_with_siin(tokens[end].shadow, lex):
                continue
            if rule.morph == "qad":
                verb = _next_word(tokens, end, punct_transparent)
                if verb is None:
                    continue
                shadow = tokens[verb].shadow
                verdict = analyze_token(shadow, lex).verdict
                if verdict is not Verdict.PRESENT_VERB:
                    continue
                if shadow in lex.qad_exclusions or strip_clitics(shadow)[1] in lex.qad_exclusions:
                    continue
                matched = matched + [verb]
            found = (t, end, matched)
            break
        if found is None:
            break
        _, end, matched = found
        hits.append(tuple(tokens[ti].span for ti in matched))
        pos = end + 1
    return hits


# ---------------------------------------------------------------------------
# template sentence generator shared by equivalence tests

MARKER_PARTS = [
    "قد", "وقد", "فقد", "سوف", "وسوف", "فسوف", "لن", "ولن", "فلن",
    "من المتوقع", "ومن المرجح", "من الممكن", "متوقعا", "مستبعد", "محتمل",
    "توقع", "توقعت", "وتوقع", "فاستبعدت", "ارتقب",
    "يتوقع", "نرجح", "اتوقع", "ويستبعد",
    "سيرتفع", "ستنخفض", "وسيجري", "فستنطلق", "سنتر", "ستتضمن",
    "سيمون", "سويسرا", "سيشيل", "سافر", "سوق", "سنة", "سنويا", "سندات",
    # diacritized / elongated spellings match through the shadow layer
    "سَوْفَ", "قَدْ", "لَنْ", "مـتوقع", "مُسْتَبْعَداً",
]
DISTRACTOR_PARTS = [
    "الاقتصاد", "لبنان", "الدين", "العام", "المصرف", "المركزي", "كتاب",
    "طاولة", "الوزارة", "النمو", "درس", "قدم", "لان", "بعد", "قبل",
    "اليوم", "تقرير", "جديد", "المالية", "الضغوط", "يمتلك", "استخدامه",
]
PUNCT_PARTS = ["،", '"', "(", ")", ":", "؛", "%"]
DIGIT_PARTS = ["20", "1.5", "2017", "743"]


def generate_sentence(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(6, 16)):
        roll = rng.random()
        if roll < 0.30:
            parts.append(rng.choice(MARKER_PARTS))
        elif roll < 0.82:
            parts.append(rng.choice(DISTRACTOR_PARTS))
        elif roll < 0.92:
            parts.append(rng.choice(PUNCT_PARTS))
        else:
            parts.append(rng.choice(DIGIT_PARTS))
    return " ".join(parts)
