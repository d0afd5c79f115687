"""Lightweight verb-tense verdicts for Arabic tokens.

Replaces a full morpho-syntactic analyzer with lexicon lookups plus an
imperfective-prefix heuristic.  The point is to decide whether a token is
a present-tense verb, in particular after stripping a leading conjunction
clitic and/or a future-marking siin prefix.  This module reads no files:
the word lists behind ``Lexicons`` are plain, user-extensible text files
that ``resources.load_lexicons`` reads, so precision can be tuned without
touching code.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

SIIN = "س"  # س
CONJUNCTION_CLITICS = ("و", "ف")  # و ف
# letters that open an imperfective (present-tense) verb: ي ت ن أ
IMPERFECTIVE_PREFIXES = frozenset({"ي", "ت", "ن", "أ"})
TA_SUFFIX = "ت"  # ت

#: minimum letters a stem must keep after its imperfective prefix; blocks
#: two-letter nouns such as يد from passing as verbs.
MIN_STEM_AFTER_PREFIX = 3


class Verdict(Enum):
    PRESENT_VERB = "present_verb"
    PAST_VERB = "past_verb"
    PROPER_NOUN = "proper_noun"
    OTHER = "other"


#: the verdicts as plain names, which a hot loop reads several times faster
#: than an ``Enum`` member
PRESENT_VERB, PAST_VERB, PROPER_NOUN, OTHER = (
    Verdict.PRESENT_VERB, Verdict.PAST_VERB, Verdict.PROPER_NOUN, Verdict.OTHER
)


class MorphVerdict(NamedTuple):
    token: str
    verdict: Verdict
    stripped_clitics: str
    stem: str


class _LexiconFields(NamedTuple):
    present_verbs: frozenset[str] = frozenset()
    past_verbs: frozenset[str] = frozenset()
    proper_nouns: frozenset[str] = frozenset()
    qad_exclusions: frozenset[str] = frozenset()


class Lexicons(_LexiconFields):
    """Immutable word lists backing the verdicts.

    ``proper_nouns`` is the stoplist of siin-initial names that would
    otherwise look like future verbs.  ``qad_exclusions`` lists verbs that
    should not count as future after the qad particle; it is empty by
    default so the method keeps its documented over-triggering.  Each
    field is read from the word list ``<field name>.txt``.  A word both
    a present verb and a proper noun is refused.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        clash = self.present_verbs & self.proper_nouns
        if clash:
            raise ValueError(
                "lexicon conflict: entries are both present_verb and proper_noun: "
                + ", ".join(sorted(clash))
            )
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that _replace checks


def strip_clitics(token: str) -> tuple[str, str]:
    """Remove at most one leading conjunction clitic (و or ف).

    The siin future prefix is never stripped here; callers that care about
    it handle it explicitly.  Always reconstructs: clitics + remainder ==
    token.
    """
    if len(token) > 1 and token[0] in CONJUNCTION_CLITICS:
        return token[0], token[1:]
    return "", token


def _verdict(token: str, stem: str, lex: Lexicons) -> Verdict:
    """The verdict on a (diacritic-stripped) word token and its ``stem``
    from ``strip_clitics``, which both gates read without building the
    ``MorphVerdict`` that ``analyze_token`` gives; each list is read once.

    Order matters: the proper-noun stoplist wins over everything, then the
    closed past/present lexicons, then the imperfective-prefix heuristic.
    """
    proper_nouns = lex.proper_nouns
    if token in proper_nouns or stem in proper_nouns:
        return PROPER_NOUN
    past_verbs = lex.past_verbs
    if stem in past_verbs or (
        len(stem) > 1 and stem.endswith(TA_SUFFIX) and stem[:-1] in past_verbs
    ):
        return PAST_VERB
    if stem in lex.present_verbs or (
        stem and stem[0] in IMPERFECTIVE_PREFIXES and len(stem) - 1 >= MIN_STEM_AFTER_PREFIX
    ):
        return PRESENT_VERB
    return OTHER


def analyze_token(token: str, lex: Lexicons) -> MorphVerdict:
    """Classify a (diacritic-stripped) word token; see ``_verdict``."""
    clitics, stem = strip_clitics(token)
    return MorphVerdict(token, _verdict(token, stem, lex), clitics, stem)


def is_future_verb_with_siin(token: str, lex: Lexicons) -> bool:
    """True when the token is a siin-prefixed present verb: the siin gate.

    The token (and its post-clitic stem) must not be a stoplisted proper
    noun, must start with س after clitic stripping, and the remainder must
    analyze as a present verb.
    """
    stem = strip_clitics(token)[1]
    proper_nouns = lex.proper_nouns
    if len(stem) < 2 or stem[0] != SIIN or token in proper_nouns or stem in proper_nouns:
        return False
    rest = stem[1:]
    return _verdict(rest, strip_clitics(rest)[1], lex) is PRESENT_VERB


def is_present_verb_after_qad(token: str, lex: Lexicons) -> bool:
    """True when the word after قد analyzes as a present verb and neither
    it nor its post-clitic stem is in ``qad_exclusions``: the qad gate."""
    stem = strip_clitics(token)[1]
    exclusions = lex.qad_exclusions
    if token in exclusions or stem in exclusions:
        return False
    return _verdict(token, stem, lex) is PRESENT_VERB
