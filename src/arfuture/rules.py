"""Rule-file language: marker patterns, variables, semantic map, matcher.

A rule line names an ordered chain of linguistic forms and a target
category::

    qad: (و|ف)؟قد -> مستقبل [morph=qad]

Each form is a marker pattern; a leading ``-`` makes it a negative
(forbidden) form and ``@N`` bounds its search field to N words.  Patterns
support literals, ``(a|b)`` alternation, ``( ... )؟`` optional groups and
``::name`` variable references.  Whitespace between pattern elements means
"next word" (spaced); direct juxtaposition means "same written word"
(glued), which is how single-letter clitics attach.

The grammar has no repetition, so every pattern has a finite set of
surface forms (tuples of written words).  Each form is compiled once, when
its ``LinguisticForm`` is built, into a ``FormIndex``: a dict from the
first written word to the words that may follow it.  Matching looks a
token's shadow up in that dict and compares the remaining words in place.
A pattern with more than ``MAX_EXPANSIONS`` surface forms is refused at
parse time.

Forms and rules are ``NamedTuple``s of the fields they are built from.
What each derives from them (a form's ``index``; a rule's ``positives``,
``siin_form`` and ``steps``) is set on it when it is built.  A field
cannot be assigned, and ``_replace`` builds anew, so nothing derived
goes stale.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from enum import Enum
from typing import Iterator, Mapping, NamedTuple, Union

from .segment import PUNCT, WORD, TokenKind, Tokens


class RuleParseError(ValueError):
    """Raised for malformed rule, variable or map files."""


class Adjacency(Enum):
    GLUED = "glued"
    SPACED = "spaced"


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


def _same_type_eq(a: tuple, b: object) -> bool:
    """Tuple equality for pattern parts of one type only: as plain
    ``NamedTuple``s, ``Literal("x")`` and ``VariableRef("x")`` would be equal."""
    return type(a) is type(b) and tuple.__eq__(a, b)


_BY_TYPE = (_same_type_eq, lambda a, b: not _same_type_eq(a, b), tuple.__hash__)


class Literal(NamedTuple):
    text: str
    __eq__, __ne__, __hash__ = _BY_TYPE


class VariableRef(NamedTuple):
    name: str
    __eq__, __ne__, __hash__ = _BY_TYPE


class Group(NamedTuple):
    alternatives: tuple["PatternSeq", ...]
    optional: bool = False
    __eq__, __ne__, __hash__ = _BY_TYPE


PatternElement = Union[Literal, VariableRef, Group]


class _PatternFields(NamedTuple):
    items: tuple[PatternElement, ...]
    joins: tuple[Adjacency, ...] = ()


class PatternSeq(_PatternFields):
    """Ordered pattern elements with one adjacency flag per gap."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = _BY_TYPE

    def __new__(cls, items: tuple[PatternElement, ...], joins: tuple[Adjacency, ...] = ()):
        if items and len(joins) != len(items) - 1:
            raise ValueError("joins must have exactly len(items)-1 entries")
        return super().__new__(cls, items, joins)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that _replace checks


class _FormFields(NamedTuple):
    polarity: Polarity
    pattern: PatternSeq
    search_field_words: int = 0  # 0 = rest of the sentence


class LinguisticForm(_FormFields):
    """One form of a rule; ``pattern`` must be variable-free.  ``index``
    is its ``FormIndex``."""

    def __new__(cls, polarity: Polarity, pattern: PatternSeq, search_field_words: int = 0):
        self = super().__new__(cls, polarity, pattern, search_field_words)
        self.index = FormIndex(pattern)
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that _replace rebuilds


class _RuleFields(NamedTuple):
    id: str
    forms: tuple[LinguisticForm, ...]
    category: str
    class_label: str
    morph: str | None = None  # None | "qad" | "siin"
    extract: str | None = None  # None | "from-marker-to-end"


class LinguisticRule(_RuleFields):
    def __new__(cls, id: str, forms: tuple[LinguisticForm, ...], category: str,
                class_label: str, morph: str | None = None, extract: str | None = None):
        self = super().__new__(cls, id, forms, category, class_label, morph, extract)
        #: indices of the positive forms, in order
        self.positives = tuple(i for i, f in enumerate(forms) if f.polarity is Polarity.POSITIVE)
        #: index of the form the siin gate checks, which may match a word
        #: prefix: the last positive form under ``morph=siin``, else -1
        self.siin_form = self.positives[-1] if morph == "siin" else -1
        #: one ``(index, negative, FormIndex, siin, @N cap, marker)`` tuple per
        #: form, in order: all that an attempt of the rule reads of a form;
        #: ``siin`` is ``index == siin_form``, and ``marker`` is the written
        #: pattern of a negative form, else ""
        steps = []
        for i, f in enumerate(forms):
            negative = f.polarity is Polarity.NEGATIVE
            marker = format_pattern(f.pattern) if negative else ""
            steps.append((i, negative, f.index, i == self.siin_form, f.search_field_words, marker))
        self.steps: tuple[tuple[int, bool, FormIndex, bool, int, str], ...] = tuple(steps)
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so that _replace rebuilds


# ---------------------------------------------------------------------------
# pattern expression parsing

_OPTIONAL_MARKS = ("؟", "?")  # ؟ and its ASCII alias
_RESERVED = set("()|") | set(_OPTIONAL_MARKS)
_VAR_NAME_RE = re.compile(r"[^\s()|؟?:=#>\[\]-]+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_space(self) -> bool:
        seen = False
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
            seen = True
        return seen


def _parse_seq(sc: _Scanner, in_group: bool) -> PatternSeq:
    items: list[PatternElement] = []
    joins: list[Adjacency] = []
    pending_space = False
    while True:
        pending_space = sc.skip_space() or pending_space
        ch = sc.peek()
        if not ch or (in_group and ch in ")|"):
            break
        if ch in _OPTIONAL_MARKS:
            raise RuleParseError("optional marker must follow a group")
        if ch == "|":
            raise RuleParseError("alternation outside a group")
        item: PatternElement
        if ch == "(":
            sc.pos += 1
            alternatives = [_parse_seq(sc, in_group=True)]
            while sc.peek() == "|":
                sc.pos += 1
                alternatives.append(_parse_seq(sc, in_group=True))
            if sc.peek() != ")":
                raise RuleParseError("unbalanced parentheses in pattern")
            sc.pos += 1
            if any(not alt.items for alt in alternatives):
                raise RuleParseError("empty alternative in pattern group")
            optional = sc.peek() in _OPTIONAL_MARKS
            if optional:
                sc.pos += 1
            item = Group(tuple(alternatives), optional=optional)
        elif ch == ")":
            raise RuleParseError("unbalanced parentheses in pattern")
        elif sc.text.startswith("::", sc.pos):
            sc.pos += 2
            m = _VAR_NAME_RE.match(sc.text, sc.pos)
            if not m:
                raise RuleParseError("variable reference needs a name after ::")
            sc.pos = m.end()
            item = VariableRef(m.group())
        else:
            start = sc.pos
            while sc.pos < len(sc.text):
                c = sc.text[sc.pos]
                if c.isspace() or c in _RESERVED or sc.text.startswith("::", sc.pos):
                    break
                sc.pos += 1
            item = Literal(sc.text[start:sc.pos])
        if items:
            joins.append(Adjacency.SPACED if pending_space else Adjacency.GLUED)
        items.append(item)
        pending_space = False
    return PatternSeq(tuple(items), tuple(joins))


def parse_pattern(text: str) -> PatternSeq:
    """Parse one pattern expression (no polarity or field-length syntax)."""
    sc = _Scanner(text)
    seq = _parse_seq(sc, in_group=False)
    if sc.pos != len(sc.text):
        raise RuleParseError(f"unexpected {sc.peek()!r} in pattern")
    if not seq.items:
        raise RuleParseError("empty pattern")
    if _can_match_empty(seq):
        raise RuleParseError("pattern may not match the empty string")
    return seq


def _can_match_empty(seq: PatternSeq) -> bool:
    def item_empty(item: PatternElement) -> bool:
        if isinstance(item, Group):
            if item.optional:
                return True
            return any(all(item_empty(i) for i in alt.items) for alt in item.alternatives)
        return False

    return all(item_empty(i) for i in seq.items)


def expand_variables(
    seq: PatternSeq, table: Mapping[str, PatternSeq], _stack: tuple[str, ...] = ()
) -> PatternSeq:
    """Inline every variable reference, looked up in ``table`` by name;
    detects cycles."""
    items: list[PatternElement] = []
    for item in seq.items:
        if isinstance(item, VariableRef):
            if item.name in _stack:
                raise RuleParseError(f"recursive reference to variable {item.name}")
            if item.name not in table:
                raise RuleParseError(f"unresolved variable {item.name}")
            inner = expand_variables(table[item.name], table, _stack + (item.name,))
            items.append(Group((inner,), optional=False))
        elif isinstance(item, Group):
            items.append(
                Group(
                    tuple(expand_variables(a, table, _stack) for a in item.alternatives),
                    optional=item.optional,
                )
            )
        else:
            items.append(item)
    return PatternSeq(tuple(items), seq.joins)


# ---------------------------------------------------------------------------
# variable definition / semantic map / rule file parsing


@contextmanager
def _at_line(lineno: int) -> Iterator[None]:
    """Prefix a ``RuleParseError`` raised in the block with ``line N: ``."""
    try:
        yield
    except RuleParseError as exc:
        raise RuleParseError(f"line {lineno}: {exc}") from None


def parse_variable_defs(text: str) -> dict[str, PatternSeq]:
    """Parse ``::name = expression`` lines into fully expanded patterns."""
    raw: dict[str, PatternSeq] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        with _at_line(lineno):
            m = re.match(r"::(\S+)\s*=\s*(.+)$", line)
            if not m:
                raise RuleParseError(f"bad variable definition: {line!r}")
            name, expr = m.group(1), m.group(2)
            if name in raw:
                raise RuleParseError(f"duplicate variable {name}")
            raw[name] = parse_pattern(expr)
            lines[name] = lineno
    expanded: dict[str, PatternSeq] = {}
    for name, lineno in lines.items():
        with _at_line(lineno):
            expanded[name] = expand_variables(raw[name], raw)
            _check_expansion_limit(expanded[name])
    return expanded


def parse_semantic_map(text: str) -> list[str]:
    """The category names of an indentation outline (2 spaces per nesting
    level); the nesting is checked, not kept."""
    names: list[str] = []
    depth = 0  # the deepest level the next line may take: one below the last
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        name = stripped.strip()
        with _at_line(lineno):
            if indent % 2 != 0 or indent // 2 > depth:
                raise RuleParseError("inconsistent indentation")
            if name in names:
                raise RuleParseError(f"duplicate category {name}")
        names.append(name)
        depth = indent // 2 + 1
    return names


_RULE_ID_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_-]*):\s+")
_DIRECTIVES_RE = re.compile(r"\[([^\]]*)\]\s*$")
_FIELD_RE = re.compile(r"@(\d+)\s*$")
#: each directive's allowed values; None allows any non-empty text
_DIRECTIVES: dict[str, tuple[str, ...] | None] = {
    "morph": ("qad", "siin"),
    "extract": ("from-marker-to-end",),
    "class": None,
}


def parse_rules(
    text: str,
    variables: Mapping[str, PatternSeq],
    semantic_map: list[str] | None = None,
) -> list[LinguisticRule]:
    """Parse a rule file; one rule per non-empty, non-comment line.

    Patterns are expanded against ``variables`` immediately, so returned
    rules are ready to match.  When a semantic map is given, rule
    categories are checked against it.  A line without an ``id:`` gets the
    id ``rule<N>``, N counting the rules so far; an id seen twice is refused.
    """
    rules: list[LinguisticRule] = []
    ids: set[str] = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        with _at_line(lineno):
            rule_id = f"rule{len(rules) + 1}"
            m = _RULE_ID_RE.match(line)
            if m:
                rule_id = m.group(1)
                line = line[m.end():]
            if rule_id in ids:
                raise RuleParseError(f"duplicate rule id {rule_id}")
            directives: dict[str, str] = {}
            m = _DIRECTIVES_RE.search(line)
            if m:
                line = line[: m.start()].strip()
                for part in m.group(1).split(","):
                    part = part.strip()
                    if not part:
                        continue
                    if "=" not in part:
                        raise RuleParseError(f"bad directive {part!r}")
                    key, value = (s.strip() for s in part.split("=", 1))
                    if key not in _DIRECTIVES:
                        raise RuleParseError(f"unknown directive {key!r}")
                    if key in directives:
                        raise RuleParseError(f"repeated directive {key!r}")
                    allowed = _DIRECTIVES[key]
                    if allowed is not None and value not in allowed:
                        raise RuleParseError(
                            f"{key} must be {' or '.join(allowed)}, not {value!r}"
                        )
                    if not value:
                        raise RuleParseError(f"empty {key} directive")
                    directives[key] = value
            arrow = "->" if "->" in line else "<-" if "<-" in line else None
            if arrow is None:
                raise RuleParseError("missing category arrow")
            lhs, _, category = line.rpartition(arrow)
            category = category.strip()
            if not category:
                raise RuleParseError("missing category")
            if semantic_map is not None and category not in semantic_map:
                raise RuleParseError(f"category not in semantic map: {category}")
            forms: list[LinguisticForm] = []
            for chunk in lhs.split(">"):
                chunk = chunk.strip()
                if not chunk:
                    raise RuleParseError("empty linguistic form")
                polarity = Polarity.POSITIVE
                if chunk.startswith("-"):
                    polarity = Polarity.NEGATIVE
                    chunk = chunk[1:].strip()
                field_words = 0
                fm = _FIELD_RE.search(chunk)
                if fm:
                    field_words = int(fm.group(1))
                    chunk = chunk[: fm.start()].strip()
                pattern = expand_variables(parse_pattern(chunk), variables)
                forms.append(LinguisticForm(polarity, pattern, field_words))
            if not any(f.polarity is Polarity.POSITIVE for f in forms):
                raise RuleParseError("rule has no positive marker")
        ids.add(rule_id)
        rules.append(
            LinguisticRule(
                id=rule_id,
                forms=tuple(forms),
                category=category,
                class_label=directives.get("class", rule_id),
                morph=directives.get("morph"),
                extract=directives.get("extract"),
            )
        )
    return rules


# ---------------------------------------------------------------------------
# pretty printing (parse/format round-trips)


def format_pattern(seq: PatternSeq) -> str:
    parts: list[str] = []
    for idx, item in enumerate(seq.items):
        if idx:
            parts.append(" " if seq.joins[idx - 1] is Adjacency.SPACED else "")
        if isinstance(item, Literal):
            parts.append(item.text)
        elif isinstance(item, VariableRef):
            parts.append(f"::{item.name}")
        else:
            body = "|".join(format_pattern(a) for a in item.alternatives)
            parts.append(f"({body})" + ("؟" if item.optional else ""))
    return "".join(parts)


def format_rule(rule: LinguisticRule) -> str:
    chunks = []
    for form in rule.forms:
        s = format_pattern(form.pattern)
        if form.polarity is Polarity.NEGATIVE:
            s = "-" + s
        if form.search_field_words:
            s += f"@{form.search_field_words}"
        chunks.append(s)
    line = f"{rule.id}: " + " > ".join(chunks) + f" -> {rule.category}"
    directives = []
    if rule.morph:
        directives.append(f"morph={rule.morph}")
    if rule.class_label != rule.id:
        directives.append(f"class={rule.class_label}")
    if rule.extract:
        directives.append(f"extract={rule.extract}")
    if directives:
        line += " [" + ", ".join(directives) + "]"
    return line


# ---------------------------------------------------------------------------
# expansion and matching

#: the most surface forms one pattern may take, counted as parse paths (a
#: duplicate spelling counts again); a larger pattern is refused when its
#: file is parsed, so every compiled index stays small
MAX_EXPANSIONS = 10_000


def expansions(seq: PatternSeq) -> set[tuple[str, ...]]:
    """Enumerate every surface form a variable-free pattern can take.

    Each expansion is a tuple of written words (glued runs merged, spaced
    gaps separating tuple entries).  A pattern with more than
    ``MAX_EXPANSIONS`` parse paths raises ``RuleParseError`` before any
    form is enumerated.
    """
    _check_expansion_limit(seq)
    return {t for t in _seq_expansions(seq) if t}


def _check_expansion_limit(seq: PatternSeq) -> None:
    if _path_count(seq) > MAX_EXPANSIONS:
        raise RuleParseError(
            f"pattern expands to more than {MAX_EXPANSIONS:,} surface forms"
        )


def _path_count(seq: PatternSeq) -> int:
    """Parse paths through a pattern; an upper bound on its surface forms."""
    total = 1
    for item in seq.items:
        if isinstance(item, Group):
            total *= sum(_path_count(a) for a in item.alternatives) + item.optional
    return total


def _seq_expansions(seq: PatternSeq) -> set[tuple[str, ...]]:
    acc: set[tuple[str, ...]] = {()}
    for idx, item in enumerate(seq.items):
        join = seq.joins[idx - 1] if idx else None
        opts = _item_expansions(item)
        acc = {_combine(a, join, b) for a in acc for b in opts}
    return acc


def _item_expansions(item: PatternElement) -> set[tuple[str, ...]]:
    if isinstance(item, Literal):
        return {(item.text,)}
    if isinstance(item, Group):
        out: set[tuple[str, ...]] = set()
        for alt in item.alternatives:
            out |= _seq_expansions(alt)
        if item.optional:
            out.add(())
        return out
    raise ValueError("cannot expand an unexpanded variable reference")


def _combine(
    a: tuple[str, ...], join: Adjacency | None, b: tuple[str, ...]
) -> tuple[str, ...]:
    if not a:
        return b
    if not b:
        return a
    if join is Adjacency.SPACED:
        return a + b
    return a[:-1] + (a[-1] + b[0],) + b[1:]


class FormIndex:
    """A variable-free pattern compiled to its surface forms.

    ``tails`` maps the first written word of every form to the words that
    follow it, longest tail first.  A match is anchored at a start token
    whose shadow is a key; each further word must equal the shadow of the
    next Word token (with ``punct_transparent``, Punct tokens in between
    are skipped; anything else breaks the gap).  In prefix mode the last
    word need only begin its token, and ``prefix_lengths`` lists the
    lengths of the one-word forms that may begin a longer start token.
    The longest match wins: the one ending at the furthest token.
    ``match_at`` gives the token of each matched written word, in order
    (the first is the start token, the last ends the match), or None.
    """

    __slots__ = ("tails", "prefix_lengths")

    def __init__(self, pattern: PatternSeq):
        tails: dict[str, list[tuple[str, ...]]] = {}
        for words in sorted(expansions(pattern), key=lambda w: (-len(w), w)):
            tails.setdefault(words[0], []).append(words[1:])
        self.tails = {first: tuple(rest) for first, rest in tails.items()}
        self.prefix_lengths = tuple(
            sorted({len(first) for first, rest in tails.items() if () in rest})
        )

    def match_at(
        self,
        tokens: Tokens,
        start: int,
        *,
        prefix: bool = False,
        punct_transparent: bool = True,
    ) -> tuple[int, ...] | None:
        shadows = tokens.shadows
        shadow = shadows[start]
        for tail in self.tails.get(shadow, ()):
            if not tail:  # a one-word form: the start token alone
                return (start,)
            covered = _follow(shadows, tokens.kinds, start, tail, prefix, punct_transparent)
            if covered is not None:
                return covered
        if prefix:
            for n in self.prefix_lengths:
                if () in self.tails.get(shadow[:n], ()):
                    return (start,)
        return None


def _follow(
    shadows: list[str],
    kinds: list[TokenKind],
    start: int,
    tail: tuple[str, ...],
    prefix: bool,
    punct_transparent: bool,
) -> tuple[int, ...] | None:
    """Tokens covered by ``tail`` after the first word at ``start``, or None."""
    covered = [start]
    ti = start
    n = len(kinds)
    last = len(tail) - 1
    for k, word in enumerate(tail):
        ti += 1
        if punct_transparent:
            while ti < n and kinds[ti] is PUNCT:
                ti += 1
        if ti >= n or kinds[ti] is not WORD:
            return None
        shadow = shadows[ti]
        if not (shadow.startswith(word) if prefix and k == last else shadow == word):
            return None
        covered.append(ti)
    return tuple(covered)
