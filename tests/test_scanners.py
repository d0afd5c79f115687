"""Every regex that searches a whole page or text starts as ``re`` needs in
order to skip in C over the characters that cannot start a match: with a
literal, a class, or branches that each start with a literal.  Any other
start makes it try a whole match at every character."""

from __future__ import annotations

import itertools

import pytest

from arfuture import corpus
from arfuture.segment import DEFAULT_BOUNDARIES, _cut_pattern

try:
    from re import _parser as sre_parse  # Python 3.11 on
except ImportError:  # Python 3.10
    import sre_parse


def leads_with_literal_or_class(pattern: str) -> bool:
    """Whether the first item of ``pattern`` is one ``re`` skips to: a
    literal, a class, or branches that each start with a literal, after
    any groups that hold the whole pattern (``re`` reads into those)."""
    items = sre_parse.parse(pattern)
    op, av = items[0]
    while op is sre_parse.SUBPATTERN:
        op, av = av[-1][0]
    if op is sre_parse.BRANCH:
        return all(branch and branch[0][0] is sre_parse.LITERAL for branch in av[1])
    return op in (sre_parse.LITERAL, sre_parse.IN)


_SCANNERS = {
    "_MARKUP": corpus._MARKUP,
    "_RUN_SPLIT": corpus._RUN_SPLIT,
    "_OUTSIDE_RUN_BLOCKS": corpus._OUTSIDE_RUN_BLOCKS,
    "_SURROGATE": corpus._SURROGATE.pattern,
    **{f"_SCRIPT_STATES[{state!r}]": pattern
       for state, (pattern, _) in corpus._SCRIPT_STATES.items()},
    **{f"_END_TAG {name}": corpus._END_TAG.format(name)
       for name in ("title", "textarea", "style", "xmp", "iframe", "noembed", "noframes")},
    **{f"_cut_pattern {sorted(subset)}": _cut_pattern(frozenset(subset)).pattern
       for r in range(1, len(DEFAULT_BOUNDARIES) + 1)
       for subset in itertools.combinations(sorted(DEFAULT_BOUNDARIES), r)},
}


@pytest.mark.parametrize("pattern", _SCANNERS.values(), ids=_SCANNERS.keys())
def test_scanner_leads_with_a_literal_or_a_class(pattern):
    assert leads_with_literal_or_class(pattern)


@pytest.mark.parametrize("pattern", [
    "[;]+|\n\n", "(?<=[.])(?=\\s|\\Z)|\n", "(-->)|</x", "(ab)|c", "a*b", "\\s+", "(?!)",
])
def test_a_repetition_an_assertion_or_a_group_first_is_refused(pattern):
    assert not leads_with_literal_or_class(pattern)


# the parser makes a class of single-char branches, as in the last
@pytest.mark.parametrize("pattern", ["<a", "[ab]", "a|<", "(a)b", "(?:ab|cd)", "(?:a|b)c"])
def test_a_literal_a_class_or_literal_led_branches_pass(pattern):
    assert leads_with_literal_or_class(pattern)
