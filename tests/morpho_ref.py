"""Reference verdicts: the earlier ``analyze_token`` and both gates.

``arfuture.morpho`` decides a verdict in one function, ``_verdict``, which
both gates read directly, each stripping a word's clitic once;
``analyze_token`` wraps its result in a ``MorphVerdict``.  This module
keeps the earlier versions, in which the siin gate built a full
``MorphVerdict`` for the word's remainder and the qad gate was a test of
the verdict and of the exclusion list, word and stem, so tests can hold
the two to the same verdicts on the same words.
"""

from __future__ import annotations

from arfuture.morpho import (
    IMPERFECTIVE_PREFIXES,
    MIN_STEM_AFTER_PREFIX,
    SIIN,
    TA_SUFFIX,
    Lexicons,
    MorphVerdict,
    Verdict,
    strip_clitics,
)


def analyze_token(token: str, lex: Lexicons) -> MorphVerdict:
    """Classify a (diacritic-stripped) word token.

    Order matters: the proper-noun stoplist wins over everything, then the
    closed past/present lexicons, then the imperfective-prefix heuristic.
    """
    clitics, stem = strip_clitics(token)
    if token in lex.proper_nouns or stem in lex.proper_nouns:
        verdict = Verdict.PROPER_NOUN
    elif stem in lex.past_verbs or (
        len(stem) > 1 and stem.endswith(TA_SUFFIX) and stem[:-1] in lex.past_verbs
    ):
        verdict = Verdict.PAST_VERB
    elif stem in lex.present_verbs:
        verdict = Verdict.PRESENT_VERB
    elif (
        stem
        and stem[0] in IMPERFECTIVE_PREFIXES
        and len(stem) - 1 >= MIN_STEM_AFTER_PREFIX
    ):
        verdict = Verdict.PRESENT_VERB
    else:
        verdict = Verdict.OTHER
    return MorphVerdict(token, verdict, clitics, stem)


def is_future_verb_with_siin(token: str, lex: Lexicons) -> bool:
    """True when the token is a siin-prefixed present verb.

    The token (and its post-clitic stem) must not be a stoplisted proper
    noun, must start with س after clitic stripping, and the remainder must
    analyze as a present verb.
    """
    if not token:
        return False
    _, stem = strip_clitics(token)
    if token in lex.proper_nouns or stem in lex.proper_nouns:
        return False
    if not stem.startswith(SIIN):
        return False
    remainder = stem[1:]
    if not remainder:
        return False
    return analyze_token(remainder, lex).verdict is Verdict.PRESENT_VERB


def is_present_verb_after_qad(token: str, lex: Lexicons) -> bool:
    """True when the word after قد is a present verb that neither it nor
    its post-clitic stem is an entry of ``qad_exclusions``."""
    return (
        analyze_token(token, lex).verdict is Verdict.PRESENT_VERB
        and token not in lex.qad_exclusions
        and strip_clitics(token)[1] not in lex.qad_exclusions
    )
