"""Reference page reader: the WHATWG HTML tokenizer, one character at a time.

Each state of HTML Living Standard section 13.2.5 that a page's text
depends on is written out as the spec words it, with the spec's names, and
the tokens are put together as ``arfuture.corpus`` reads a page: each tag
is a newline, comments and doctypes are nothing, the content of script and
style elements is dropped and that of the other RCDATA, RAWTEXT and
PLAINTEXT elements is text, and the first title element's content is the
title (none once a ``</title>`` came first).  Of tree construction only
the switch into those content states and the dropping of a NUL in text
are kept.  Character references are unescaped per run of text, which is
what the character reference state amounts to, since no reference holds
"<" or a NUL.  It is slow, and meant only to be held against the scan.
"""

from __future__ import annotations

from html import unescape

_WS = "\t\n\f\r "
_RCDATA = {"title", "textarea"}
_RAWTEXT = {"style", "xmp", "iframe", "noembed", "noframes"}
_DROPPED = {"script", "style"}


def _is_alpha(c: str) -> bool:
    return c.isascii() and c.isalpha()


class _Reader:
    def __init__(self):
        self.parts: list[str] = []
        self.run: list[str] = []  # characters of the current run of text
        self.run_kind = "data"  # "data", "rcdata", "raw" or "dropped"
        self.title: str | None = None
        self.in_title = False

    def char(self, c: str, kind: str):
        if kind != self.run_kind:
            self.flush()
            self.run_kind = kind
        if kind == "data" and c == "\0":  # the "in body" mode drops it
            self.flush()
        else:
            self.run.append(c)

    def flush(self):
        text = "".join(self.run)
        self.run = []
        if self.run_kind in ("data", "rcdata"):
            text = unescape(text)
        if self.run_kind == "dropped":
            return
        if self.in_title:
            self.title = (self.title or "") + text
        else:
            self.parts.append(text)

    def tag(self, name: str, end: bool):
        self.flush()
        self.in_title = False
        if name == "title" and self.title is None:
            self.title = ""
            self.in_title = not end
        self.parts.append("\n")


def read_page(html: str) -> tuple[str, str]:
    """The (title, text) the WHATWG tokenizer gives for ``html``."""
    out = _Reader()
    state = "data"
    content = "data"  # what the data-like states emit: the run kind
    end_name = ""  # the appropriate end tag name
    buffer = ""  # the temporary buffer
    name = ""  # the current tag's name
    is_end = False
    i = 0
    n = len(html)

    def emit_tag():
        nonlocal state, content, end_name
        out.tag(name, is_end)
        state = "data"
        if not is_end:
            if name in _RCDATA:
                state = "rcdata"
            elif name in _RAWTEXT:
                state = "rawtext"
            elif name == "script":
                state = "script data"
            elif name == "plaintext":
                state = "plaintext"
            end_name = name
            if name in _DROPPED:
                content = "dropped"
            elif name in _RCDATA:
                content = "rcdata"
            elif state != "data":
                content = "raw"
        else:
            content = "data"

    def text(s: str):
        for ch in s:
            if ch == "\0" and content != "data":
                ch = "\ufffd"
            out.char(ch, content)

    while True:
        c = html[i] if i < n else None  # None is the end of the page
        i += 1
        reconsume = False
        if state == "data":
            if c == "<":
                state = "tag open"
            elif c is None:
                break
            else:
                text(c)
        elif state in ("rcdata", "rawtext", "script data", "plaintext"):
            if c == "<" and state != "plaintext":
                state = {"rcdata": "rcdata less-than sign", "rawtext": "rawtext less-than sign",
                         "script data": "script data less-than sign"}[state]
            elif c is None:
                break
            else:
                text(c)
        elif state == "tag open":
            if c == "!":
                state = "markup declaration open"
            elif c == "/":
                state = "end tag open"
            elif c is not None and _is_alpha(c):
                name, is_end, state, reconsume = "", False, "tag name", True
            elif c == "?":
                out.flush()
                state, reconsume = "bogus comment", True
            else:
                text("<")
                state, reconsume = "data", True
        elif state == "end tag open":
            if c is not None and _is_alpha(c):
                name, is_end, state, reconsume = "", True, "tag name", True
            elif c == ">":
                out.flush()
                state = "data"
            elif c is None:
                text("</")
                break
            else:
                out.flush()
                state, reconsume = "bogus comment", True
        elif state == "tag name":
            if c is None:
                break  # eof-in-tag: the tag is dropped
            if c in _WS:
                state = "before attribute name"
            elif c == "/":
                state = "self-closing start tag"
            elif c == ">":
                emit_tag()
            else:
                name += "\ufffd" if c == "\0" else c.lower() if _is_alpha(c) else c
        elif state == "before attribute name":
            if c is not None and c in _WS:
                pass
            elif c in ("/", ">", None):
                state, reconsume = "after attribute name", True
            elif c == "=":
                state = "attribute name"
            else:
                state, reconsume = "attribute name", True
        elif state == "attribute name":
            if c is None or c in _WS or c in "/>":
                state, reconsume = "after attribute name", True
            elif c == "=":
                state = "before attribute value"
        elif state == "after attribute name":
            if c is None:
                break
            if c in _WS:
                pass
            elif c == "/":
                state = "self-closing start tag"
            elif c == "=":
                state = "before attribute value"
            elif c == ">":
                emit_tag()
            else:
                state, reconsume = "attribute name", True
        elif state == "before attribute value":
            if c is not None and c in _WS:
                pass
            elif c == '"':
                state = "attribute value (double-quoted)"
            elif c == "'":
                state = "attribute value (single-quoted)"
            elif c == ">":
                emit_tag()
            else:
                state, reconsume = "attribute value (unquoted)", True
        elif state in ("attribute value (double-quoted)", "attribute value (single-quoted)"):
            if c is None:
                break
            if c == ('"' if "double" in state else "'"):
                state = "after attribute value (quoted)"
        elif state == "attribute value (unquoted)":
            if c is None:
                break
            if c in _WS:
                state = "before attribute name"
            elif c == ">":
                emit_tag()
        elif state == "after attribute value (quoted)":
            if c is None:
                break
            if c in _WS:
                state = "before attribute name"
            elif c == "/":
                state = "self-closing start tag"
            elif c == ">":
                emit_tag()
            else:
                state, reconsume = "before attribute name", True
        elif state == "self-closing start tag":
            if c is None:
                break
            if c == ">":
                emit_tag()
            else:
                state, reconsume = "before attribute name", True
        elif state == "markup declaration open":
            out.flush()
            i -= 1  # look at the characters without consuming them
            if html.startswith("--", i):
                i += 2
                state = "comment start"
            else:
                # DOCTYPE ends at the first ">" in every one of its states,
                # as "[CDATA[" and anything else do as bogus comments
                state = "bogus comment"
            continue
        elif state == "bogus comment":
            if c is None:
                break
            if c == ">":
                state = "data"
        elif state == "comment start":
            if c == "-":
                state = "comment start dash"
            elif c == ">":
                state = "data"
            else:
                state, reconsume = "comment", True
        elif state == "comment start dash":
            if c == "-":
                state = "comment end"
            elif c == ">":
                state = "data"
            elif c is None:
                break
            else:
                state, reconsume = "comment", True
        elif state == "comment":
            if c == "<":
                state = "comment less-than sign"
            elif c == "-":
                state = "comment end dash"
            elif c is None:
                break
        elif state == "comment less-than sign":
            if c == "!":
                state = "comment less-than sign bang"
            elif c != "<":
                state, reconsume = "comment", True
        elif state == "comment less-than sign bang":
            if c == "-":
                state = "comment less-than sign bang dash"
            else:
                state, reconsume = "comment", True
        elif state == "comment less-than sign bang dash":
            if c == "-":
                state = "comment less-than sign bang dash dash"
            else:
                state, reconsume = "comment end dash", True
        elif state == "comment less-than sign bang dash dash":
            state, reconsume = "comment end", True
        elif state == "comment end dash":
            if c == "-":
                state = "comment end"
            elif c is None:
                break
            else:
                state, reconsume = "comment", True
        elif state == "comment end":
            if c == ">":
                state = "data"
            elif c == "!":
                state = "comment end bang"
            elif c == "-":
                pass
            elif c is None:
                break
            else:
                state, reconsume = "comment", True
        elif state == "comment end bang":
            if c == "-":
                state = "comment end dash"
            elif c == ">":
                state = "data"
            elif c is None:
                break
            else:
                state, reconsume = "comment", True
        # RCDATA, RAWTEXT, script data and escaped script data: "<" and the
        # appropriate end tag
        elif state in ("rcdata less-than sign", "rawtext less-than sign",
                       "script data less-than sign"):
            kind = state[: -len(" less-than sign")]
            if c == "/":
                buffer, state = "", kind + " end tag open"
            elif c == "!" and kind == "script data":
                state = "script data escape start"
            else:
                text("<")
                state, reconsume = kind, True
        elif state.endswith(" end tag open"):
            kind = state[: -len(" end tag open")]
            if c is not None and _is_alpha(c):
                name, is_end, state, reconsume = "", True, kind + " end tag name", True
            else:
                text("</")
                state, reconsume = kind, True
        elif state.endswith(" end tag name"):
            kind = state[: -len(" end tag name")]
            appropriate = name == end_name
            if c is not None and c in _WS and appropriate:
                out.flush()
                state = "before attribute name"
            elif c == "/" and appropriate:
                out.flush()
                state = "self-closing start tag"
            elif c == ">" and appropriate:
                out.flush()
                emit_tag()
            elif c is not None and _is_alpha(c):
                name += c.lower()
                buffer += c
            else:
                text("</" + buffer)
                state, reconsume = kind, True
        # script data's escape states, whose text is dropped
        elif state == "script data escape start":
            state = "script data escape start dash" if c == "-" else "script data"
            reconsume = c != "-"
        elif state == "script data escape start dash":
            state = "script data escaped dash dash" if c == "-" else "script data"
            reconsume = c != "-"
        elif state in ("script data escaped", "script data double escaped"):
            if c == "-":
                state += " dash"
            elif c == "<":
                state += " less-than sign"
            elif c is None:
                break
        elif state in ("script data escaped dash", "script data double escaped dash"):
            base = state[: -len(" dash")]
            if c == "-":
                state = base + " dash dash"
            elif c == "<":
                state = base + " less-than sign"
            elif c is None:
                break
            else:
                state = base
        elif state in ("script data escaped dash dash", "script data double escaped dash dash"):
            base = state[: -len(" dash dash")]
            if c == "<":
                state = base + " less-than sign"
            elif c == ">":
                state = "script data"
            elif c is None:
                break
            elif c != "-":
                state = base
        elif state == "script data escaped less-than sign":
            if c == "/":
                buffer, state = "", "script data escaped end tag open"
            elif c is not None and _is_alpha(c):
                buffer, state, reconsume = "", "script data double escape start", True
            else:
                state, reconsume = "script data escaped", True
        elif state == "script data double escaped less-than sign":
            if c == "/":
                buffer, state = "", "script data double escape end"
            else:
                state, reconsume = "script data double escaped", True
        elif state in ("script data double escape start", "script data double escape end"):
            start = state.endswith("start")
            if c is not None and (c in _WS or c in "/>"):
                if (buffer == "script") == start:
                    state = "script data double escaped"
                else:
                    state = "script data escaped"
            elif c is not None and _is_alpha(c):
                buffer += c.lower()
            else:
                state = "script data escaped" if start else "script data double escaped"
                reconsume = True
        else:  # pragma: no cover - every state above is handled
            raise AssertionError(state)
        if reconsume:
            i -= 1
    out.flush()
    return out.title or "", "".join(out.parts)
