"""Corpus ingestion: HTML pages in, three-part corpus documents out.

A corpus document is the page URL, its title and the main-article text.
Main-article extraction keeps every maximal run of letters, digits and
common punctuation whose length reaches a threshold (130 characters by
default); shorter runs are navigation chrome and get dropped.  Pages can
come from local files or from an explicit URL list; there is deliberately
no search-engine automation.
"""

from __future__ import annotations

import codecs
import re
import time
from html import unescape
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple
from urllib.parse import quote, urlparse, urlsplit, urlunsplit

DEFAULT_MIN_RUN_CHARS = 130
USER_AGENT = "arfuture-corpus/0.1 (+research corpus builder)"

# characters allowed inside a main-article run, besides letters/digits/space
_RUN_PUNCT = set(".,،؛؟!\"'()%:–-")


class CorpusError(ValueError):
    """Malformed input at the ingestion stage."""


class RawPage(NamedTuple):
    source_url: str
    html: str


class Document(NamedTuple):
    id: str
    url: str
    title: str
    body: str


# SHA-256 from CPython's own module (_sha2 from 3.12, _sha256 before), not
# from hashlib, which imports the OpenSSL binding _hashlib: that maps
# libcrypto, some 3.5 MB of resident memory and 2-3 ms a process, for 12
# hex digits a URL.  Only an interpreter built without the module falls
# back to hashlib, imported on first use so that importing this module
# never loads it.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        def _sha256(data: bytes):
            import hashlib

            return hashlib.sha256(data)


def doc_id_for_url(url: str) -> str:
    return _sha256(url.encode("utf-8")).hexdigest()[:12]


def make_document(url: str, title: str, body: str) -> Document:
    return Document(id=doc_id_for_url(url), url=url, title=title, body=body)


# ---------------------------------------------------------------------------
# main-article extraction


# Every pattern that searches a whole page or text starts with a literal,
# a class, or branches that each start with a literal.  Only then does re
# skip in C over the characters that cannot start a match; otherwise it
# tries a whole match at each one, which cost 19-28 ns per character of
# news text against 7-9 (Python 3.11, 2 vCPUs).  A repetition hides the
# class it repeats, and a group at the head of a branch what it holds, so
# a run is written "[...][...]*", not "[...]+", and a branch "-(->)", not
# "(-->)".  tests/test_scanners.py holds each such pattern to this.

# A page is read in one pass, each piece of markup as the WHATWG HTML
# tokenizer reads it (HTML Living Standard, section 13.2.5), as far as the
# text needs it:
# - a tag ends at its first ">" outside a quoted attribute value; a tag
#   still open at the end of the page is dropped;
# - a comment ends at "-->" or "--!>", or at once as "<!-->" or "<!--->";
#   a doctype, "<![CDATA[", "<?", any other "<!" and "</" before anything
#   but a letter are bogus comments that end at the first ">";
# - the content of title and textarea (RCDATA), of style, xmp, iframe,
#   noembed and noframes (RAWTEXT) and of script (script data, with its
#   escape states) ends at "</" + the element's name before whitespace,
#   "/" or ">"; after "<plaintext>" all is text;
# - "<" before anything else is text.
# Whatever is left open runs to the end of the page.  Each construct ends
# at its first terminator, and no pattern can fail once past its first few
# characters, so no construct is read again from a later "<" and the time
# is linear in the page.  A tag's attribute is the one group that repeats,
# and re keeps a few hundred bytes per repetition until the match ends, so
# one match reads at most _MAX_ATTRS attributes and _tag_end reads on from
# there; the content of an element is searched apart, by _content_end.  Of
# tree construction only what its "in body" mode does with a NUL in text
# is kept: it drops it.  noscript is an ordinary element, as with scripting
# disabled.
_WS = "\t\n\f\r "  # whitespace in markup, where the tokenizer reads "\r" as "\n"
# a tag's attributes, up to its ">" or the end of the page, or up to its
# _MAX_ATTRS-th; a quote starts a value only after "="
_MAX_ATTRS = 64
_ATTRS = (
    f"(?:[{_WS}/]*[^{_WS}/>][^{_WS}/>=]*"
    f"""(?:[{_WS}]*=[{_WS}]*(?:"[^"]*"?|'[^']*'?|[^{_WS}>"'][^{_WS}>]*)?)?){{0,{_MAX_ATTRS}}}"""
    f"[{_WS}/]*"
)
# after them, a tag's ">", or an empty group when it has more attributes;
# neither at the end of the page
_TAG_END = "(?:(>)|(?=[^>])())?"
# elements whose content is text to the tokenizer: RCDATA unescapes its
# character references, RAWTEXT does not; script and style content is dropped
_RCDATA = ("title", "textarea")
_DROPPED = ("script", "style")
# One piece of markup per match, its kind told by the last group matched;
# whatever no match covers is text.  Compiled on first use (by the re
# module's cache), so commands that read no HTML do not pay for it.
_MARKUP = (
    "<(?:!--(?:-?>|[^-]*(?s:.*?)(?:--!?>|\\Z))"  # a comment
    "|[!?][^>]*>?"  # a doctype or a bogus comment
    "|/(?=[^a-zA-Z])[^>]*>?"  # a bogus comment, or "</>", which is nothing
    f"|/(?ai:title)(?=[{_WS}/>]){_ATTRS}{_TAG_END}"  # 1, 2: a title end tag
    # 3, 4, 5: a start tag of an element with text content; the lookahead on
    # the names' first letters spares most tags trying each name
    "|(?=[iInNpPsStTxX])((?ai:title|textarea|style|xmp|iframe|noembed|noframes|script|plaintext))"
    f"(?=[{_WS}/>]){_ATTRS}{_TAG_END}"
    f"|/?[a-zA-Z][^{_WS}/>]*{_ATTRS}{_TAG_END}"  # 6, 7: any other tag
    ")"
)
_END_TITLE, _TEXT_NAME, _TEXT_ELEMENT, _TAG = 1, 3, 4, 6
# the kind of a tag that goes on past its _MAX_ATTRS-th attribute
_CUT = {2: _END_TITLE, 5: _TEXT_ELEMENT, 7: _TAG}
# the end tag of an element with text content other than script, by name
_END_TAG = f"</(?ai:{{}})[{_WS}/>]"
# Script data and its escape states: per state, the pattern of what ends
# it, and the state that follows when no group matched, then when each
# group did (None: the end tag).  From "<!--" on, script data is escaped,
# and there "<script" starts a part that "</script" only ends; "-->" ends
# either.  Each pattern's branches start with a literal "<" or "-".
_SCRIPT = f"(?ai:script)[{_WS}/>]"
_SCRIPT_STATES = {
    "data": (f"<(?:(!)(?=--)|/{_SCRIPT})", (None, "escaped")),
    "escaped": (f"-(->)|<(?:/{_SCRIPT}|({_SCRIPT}))", (None, "data", "double")),
    "double": (f"-(->)|</{_SCRIPT}", ("escaped", "data")),
}
# stands for removed markup until the text is unescaped, so that the text
# on its two sides is unescaped apart, as the tokenizer does
_GAP = "\x00"


def _tag_end(html: str, pos: int) -> int | None:
    """Where a tag whose attributes go on from ``pos`` ends: just past its
    ">", or None when it is left open at the end of the page."""
    while True:
        m = re.compile(_ATTRS + _TAG_END).match(html, pos)
        if m.lastindex == 1:  # the ">"
            return m.end()
        if m.lastindex is None:
            return None
        pos = m.end()


def _content_end(html: str, pos: int, name: str) -> int:
    """Where the content of a ``name`` element that starts at ``pos`` ends:
    at the start of its end tag, or at the end of the page."""
    if name == "plaintext":
        return len(html)
    if name != "script":
        m = re.compile(_END_TAG.format(name)).search(html, pos)
        return m.start() if m else len(html)
    state = "data"
    while state:
        pattern, leads_to = _SCRIPT_STATES[state]
        m = re.compile(pattern).search(html, pos)
        if m is None:
            return len(html)
        state, pos = leads_to[m.lastindex or 0], m.end()
    return m.start()


def _read_page(html: str) -> tuple[str, str]:
    """The title and the text of a page.

    Each tag becomes a newline, comments and doctypes nothing.  The content
    of script and style elements is dropped, that of other RCDATA and
    RAWTEXT elements is text.  The first title element's content is the
    title, with character references unescaped; a ``</title>`` before any
    title element leaves the page none.
    """
    parts: list[str] = []
    title = None
    pos = 0
    markup = re.compile(_MARKUP)
    while True:
        for m in markup.finditer(html, pos):
            start, end = m.span()
            parts.append(html[pos:start])
            pos = end
            kind = m.lastindex
            if kind == _TAG:
                parts.append("\n")
                continue
            if kind in _CUT:  # read on to the tag's end, then as the tag it is
                pos = _tag_end(html, end)
                if pos is None:
                    kind, pos = None, len(html)
                else:
                    kind, end = _CUT[kind], pos
            if kind is None or kind == _TEXT_NAME:
                # a comment, or markup left open at the end of the page
                parts.append(_GAP)
            elif kind == _TEXT_ELEMENT:
                parts.append("\n")
                name = m.group(_TEXT_NAME).lower()
                pos = _content_end(html, end, name)
                content = html[end:pos].replace("\0", "\ufffd")
                if name == "title" and title is None:
                    title = unescape(content)
                elif name in _RCDATA:
                    parts.append(content)
                elif name not in _DROPPED:  # RAWTEXT, kept from the unescaping below
                    parts.append(content.replace("&", "&amp;"))
            else:
                parts.append("\n")
                if kind == _END_TITLE and title is None:
                    title = ""
            if pos != m.end():
                break  # read on from the end of the tag, or of its element
        else:
            break
    parts.append(html[pos:])
    # every piece of text ends at a newline, a gap or the end, none of which
    # a character reference can span
    return title or "", unescape("".join(parts)).replace(_GAP, "")


def _is_run_char(ch: str) -> bool:
    return ch.isalpha() or ch.isdigit() or ch.isspace() or ch in _RUN_PUNCT


# Latin-1; Arabic and Arabic Supplement; General Punctuation, Superscripts
# and Subscripts and Currency Symbols: the blocks whose characters that end
# a run _RUN_SPLIT lists, as ranges found with _is_run_char when the module
# loads.  Both patterns are compiled on first use.
_RUN_BLOCKS = ((0x0000, 0x00FF), (0x0600, 0x077F), (0x2000, 0x20CF))
# a run of characters outside the blocks, as a class and its repetition
_OUTSIDE_RUN_BLOCKS = "[^{0}][^{0}]*".format(
    "".join(f"\\u{lo:04x}-\\u{hi:04x}" for lo, hi in _RUN_BLOCKS))


def _run_ends() -> str:
    """The characters inside _RUN_BLOCKS that end a run, as ranges."""
    ranges = []
    for lo, hi in _RUN_BLOCKS:
        for ends, group in groupby(range(lo, hi + 1), lambda cp: not _is_run_char(chr(cp))):
            if ends:
                cps = list(group)
                ranges.append(f"\\u{cps[0]:04x}-\\u{cps[-1]:04x}")
    return "".join(ranges)


# a run of characters that end a run, or a blank line: one class of both
# kinds of first character, then what follows each (a lone "\n" matches
# neither branch)
_RUN_SPLIT = "[{0}\n](?:(?<=[{0}])[{0}]*|(?<=\n)\n)".format(_run_ends())


def _nul_for_run_ends(m: re.Match[str]) -> str:
    piece = m[0]
    if piece.isalpha():  # most often a word of another script
        return piece
    return "".join([ch if _is_run_char(ch) else "\0" for ch in piece])


def _text_runs(text: str) -> list[str]:
    """Maximal runs of run characters, also ended by a blank line.

    One regex split finds them.  In a text holding characters outside
    _RUN_BLOCKS, each of those that is not a run character is first
    replaced by a NUL, which ends a run as it does.  Stripped, the runs
    are those of a loop that ends its run at each character that is not
    a run character and at the second newline of a blank line, but for
    empty ones: the split drops both newlines of a blank line, the loop
    keeps the first.
    """
    return re.split(_RUN_SPLIT, re.sub(_OUTSIDE_RUN_BLOCKS, _nul_for_run_ends, text))


def extract_main_article(
    page: RawPage, min_run_chars: int = DEFAULT_MIN_RUN_CHARS
) -> tuple[str, str]:
    """Pull (title, body) out of a raw HTML page.

    The body is every qualifying run, in page order, joined by newlines.
    Run length is measured in code points after trimming the ends, with
    internal whitespace included.  Raises when nothing qualifies, which is
    how boilerplate-only pages get rejected, and when ``min_run_chars`` is
    below 1.
    """
    if min_run_chars < 1:
        raise CorpusError(f"min_run_chars must be >= 1, got {min_run_chars}")
    title, text = _read_page(page.html)
    title = " ".join(title.split())
    # inline tags leave stray newlines inside a run; flatten them so
    # downstream sentence splitting only sees real line breaks.  A stripped
    # run has no space or tab at either end, so stripping each line drops
    # those around a newline only (a regex for them, with no literal to
    # skip to, tried a match at every character of every run).
    kept = [
        " ".join(line.strip(" \t") for line in run.split("\n"))
        for run in map(str.strip, _text_runs(text))
        if len(run) >= min_run_chars
    ]
    if not kept:
        raise CorpusError("no main content")
    return title, "\n".join(kept)


# a lone surrogate: a local file name that is not UTF-8 reads as one, and
# so can a page decoded by a codec such as raw_unicode_escape
_SURROGATE = re.compile("[\ud800-\udfff]")


def extract_document(
    page: RawPage, min_run_chars: int = DEFAULT_MIN_RUN_CHARS
) -> Document:
    """The document of ``page``; a page whose URL, title or body holds a
    code point that UTF-8 cannot encode (U+D800-U+DFFF) is refused, as one
    with no main content is."""
    title, body = extract_main_article(page, min_run_chars)
    for part, text in (("URL", page.source_url), ("title", title), ("body", body)):
        if _SURROGATE.search(text):
            raise CorpusError(f"{part} holds a lone surrogate, which UTF-8 cannot encode")
    return make_document(url=page.source_url, title=title, body=body)


def dedupe_documents(docs: list[Document]) -> list[Document]:
    """Drop later documents whose whitespace-normalized body already occurred.

    Two bodies are the same when their words joined by single spaces are
    equal.  The kept documents are bucketed by the ``hash`` of that text;
    a body whose bucket is not empty is compared with each document in it,
    normalized again, so no second copy of any body is kept."""
    buckets: dict[int, list[Document]] = {}
    unique: list[Document] = []
    for doc in docs:
        words = " ".join(doc.body.split())
        bucket = buckets.setdefault(hash(words), [])
        if any(" ".join(kept.body.split()) == words for kept in bucket):
            continue
        bucket.append(doc)
        unique.append(doc)
    return unique


# ---------------------------------------------------------------------------
# corpus file format

_URL_LINE = "URL: "
_TITLE_LINE = "TITLE: "
_ESCAPE_RE = re.compile(r"^( *)URL: ")


def compile_corpus_file(doc: Document) -> str:
    """Serialize a document to the line-oriented corpus format.

    Body lines that look like the URL header line get one protective
    leading space, removed again on parse, so any body round-trips.
    """
    body_lines = [
        " " + line if _ESCAPE_RE.match(line) else line
        for line in doc.body.split("\n")
    ]
    return f"{_URL_LINE}{doc.url}\n{_TITLE_LINE}{doc.title}\n\n" + "\n".join(body_lines) + "\n"


def _malformed(lineno: int, expected: str) -> CorpusError:
    return CorpusError(f"line {lineno}: malformed corpus file: expected {expected}")


def parse_corpus_file(text: str) -> Document:
    """Inverse of :func:`compile_corpus_file`; a bad or missing header line,
    or an empty body, fails naming the first line at fault."""
    lines = text.split("\n")
    if not lines[0].startswith(_URL_LINE):
        raise _malformed(1, f'a "{_URL_LINE}" line')
    if len(lines) < 2 or not lines[1].startswith(_TITLE_LINE):
        raise _malformed(2, f'a "{_TITLE_LINE}" line')
    if len(lines) < 3 or lines[2] != "":
        raise _malformed(3, "a blank line")
    url = lines[0][len(_URL_LINE):]
    title = lines[1][len(_TITLE_LINE):]
    body_lines = lines[3:]
    if body_lines and body_lines[-1] == "":
        body_lines = body_lines[:-1]  # the trailing serializer newline
    body_lines = [
        line[1:] if _ESCAPE_RE.match(line) and line.startswith(" ") else line
        for line in body_lines
    ]
    body = "\n".join(body_lines)
    if not body:
        raise _malformed(4, "a non-empty body")
    return make_document(url=url, title=title, body=body)


# ---------------------------------------------------------------------------
# page loading


# byte order marks and their encodings, as the WHATWG Encoding Standard's
# decode sniffs them
_BOMS = ((codecs.BOM_UTF8, "utf-8"), (codecs.BOM_UTF16_LE, "utf-16-le"),
         (codecs.BOM_UTF16_BE, "utf-16-be"))


def _decode_html(raw: bytes) -> str:
    """Decode page bytes: by their byte order mark, which is dropped, else
    as UTF-8, else by a declared charset.

    Bytes that their byte order mark's encoding cannot decode are read as
    if they had none.
    """
    for bom, encoding in _BOMS:
        if raw.startswith(bom):
            try:
                return raw[len(bom):].decode(encoding)
            except UnicodeDecodeError:
                break
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        pass
    head = raw[:4096].decode("latin-1", errors="replace")
    m = re.search(r"charset=[\"']?([A-Za-z0-9_-]+)", head)
    if m:
        try:
            return raw.decode(m.group(1))
        except (LookupError, UnicodeDecodeError):
            pass
    raise CorpusError("page is not valid UTF-8 and declares no usable charset")


def read_local_page(path: str | Path) -> RawPage:
    p = Path(path)
    return RawPage(source_url=str(p), html=_decode_html(p.read_bytes()))


# what a request line carries as it is: the reserved characters, "%" (an
# escape already in the URL stays) and "~"
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


def _request_url(url: str) -> str:
    """``url`` with every character of its path and query that a request
    line does not carry as it is, such as a space or an Arabic letter,
    percent-encoded as UTF-8; an empty path becomes "/"."""
    parts = urlsplit(url)
    return urlunsplit(parts._replace(path=quote(parts.path or "/", safe=_URL_SAFE),
                                     query=quote(parts.query, safe=_URL_SAFE)))


class FetchFailure(NamedTuple):
    url: str
    reason: str


def fetch_pages(
    sources: Iterable[str | Path],
    politeness_delay: float = 1.0,
    timeout: float = 20.0,
) -> Iterator[RawPage | FetchFailure]:
    """Read each source in turn and yield its page, or its failure, before
    reading the next, so only one page's HTML is held at a time.

    A ``Path``, such as a directory entry, is always read locally.  A
    string is a URL-list line: a plain path or a ``file://`` URL is read
    locally without touching the network, and any other URL is fetched.  A
    remote fetch starts at least ``politeness_delay`` seconds after the
    last one from its host ended.  Each carries an identifying user agent
    and a percent-encoded path and query, and follows redirects; a status
    of 400 or above fails the URL.
    """
    last_hit: dict[str, float] = {}
    for source in sources:
        parsed = urlparse(source) if isinstance(source, str) else None
        if parsed is None or parsed.scheme in ("", "file"):
            path = source
            if parsed and parsed.scheme == "file":
                # imported here: urllib.request pulls in http.client and ssl
                from urllib.request import url2pathname

                path = url2pathname(parsed.path)
            try:
                page = read_local_page(path)
            except (OSError, ValueError) as exc:  # CorpusError, or a path with a NUL
                page = FetchFailure(url=str(source), reason=str(exc))
            yield page
            continue
        from urllib.request import Request, urlopen

        host = parsed.netloc
        wait = last_hit.get(host, 0.0) + politeness_delay - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        try:
            request = Request(_request_url(source), headers={"User-Agent": USER_AGENT})
            # raises HTTPError unless the final status, after redirects, is 2xx
            with urlopen(request, timeout=timeout) as response:
                page = RawPage(source_url=source, html=_decode_html(response.read()))
        except Exception as exc:  # noqa: BLE001 - per-URL failures are data
            page = FetchFailure(url=source, reason=str(exc))
        last_hit[host] = time.monotonic()
        yield page
