"""Corpus ingestion: HTML pages in, three-part corpus documents out.

A corpus document is the page URL, its title and the main-article text.
Main-article extraction keeps every maximal run of letters, digits and
common punctuation whose length reaches a threshold (130 characters by
default); shorter runs are navigation chrome and get dropped.  Pages can
come from local files or from an explicit URL list; there is deliberately
no search-engine automation.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser
from pathlib import Path
from urllib.parse import urlparse

DEFAULT_MIN_RUN_CHARS = 130
USER_AGENT = "arfuture-corpus/0.1 (+research corpus builder)"
QUERY_ANCHOR = "لبنان"  # لبنان

# characters allowed inside a main-article run, besides letters/digits/space
_RUN_PUNCT = set(".,،؛؟!\"'()%:–-")


class CorpusError(ValueError):
    """Malformed input at the ingestion stage."""


@dataclass(frozen=True)
class RawPage:
    source_url: str
    html: str


@dataclass(frozen=True)
class Document:
    id: str
    url: str
    title: str
    body: str


@dataclass(frozen=True)
class QuerySeed:
    keyword_ar: str
    keyword_en: str = ""
    anchor: str = QUERY_ANCHOR


def doc_id_for_url(url: str) -> str:
    return hashlib.sha256(url.encode("utf-8")).hexdigest()[:12]


def make_document(url: str, title: str, body: str) -> Document:
    return Document(id=doc_id_for_url(url), url=url, title=title, body=body)


# ---------------------------------------------------------------------------
# query generation


def build_query_list(seeds: list[QuerySeed]) -> list[str]:
    """One search query per seed: the keyword plus the anchor word.

    Multi-word keywords are quoted so engines treat them as phrases.
    Duplicate queries collapse to the first occurrence.
    """
    if not seeds:
        raise CorpusError("no seeds")
    queries: list[str] = []
    seen: set[str] = set()
    for seed in seeds:
        keyword = seed.keyword_ar.strip()
        if not keyword:
            raise CorpusError("empty keyword in seed list")
        if len(keyword.split()) > 1:
            keyword = f'"{keyword}"'
        query = f"{keyword} {seed.anchor}"
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


def load_query_seeds(text: str) -> list[QuerySeed]:
    """Parse the keyword TSV (``keyword_ar<TAB>keyword_en`` per line)."""
    seeds = []
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        seeds.append(QuerySeed(keyword_ar=parts[0].strip(),
                               keyword_en=parts[1].strip() if len(parts) > 1 else ""))
    return seeds


# ---------------------------------------------------------------------------
# main-article extraction


class _TextExtractor(HTMLParser):
    """Collects text content, replacing each tag with a newline.

    Adjacent tags therefore leave a blank line (a run boundary), while a
    lone inline tag only injects a single newline, which a run survives.
    Script and style contents are skipped entirely.  ``title_done`` makes
    it read no title, for the rest of a page whose start held one.
    """

    _SKIP = {"script", "style"}

    def __init__(self, title_done: bool = False):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self.title_parts: list[str] = []
        self._skip_depth = 0
        self._in_title = False
        self._title_done = title_done

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1
        if tag == "title" and not self._title_done:
            self._in_title = True
        self.parts.append("\n")

    def handle_endtag(self, tag):
        if tag in self._SKIP and self._skip_depth > 0:
            self._skip_depth -= 1
        if tag == "title":
            self._in_title = False
            self._title_done = True
        self.parts.append("\n")

    def handle_startendtag(self, tag, attrs):
        self.parts.append("\n")

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._in_title:
            self.title_parts.append(data)
            return
        self.parts.append(data)


# A page is read by one regex scan up to its first markup outside the
# subset below, with the result _TextExtractor gives for that part;
# _TextExtractor reads the page on from there, in the state it would have
# reached there itself.  So a page outside the subset costs at most two
# scans of its start and html.parser on the rest.  The subset leaves out
# every construct that html.parser releases are known to read differently
# (comment ends such as "--!>", "</script" variants, "<![CDATA[", "<?",
# "<!x" declarations, markup inside raw-text and RCDATA elements,
# self-closing script, style, title and raw-text elements):
# - start, end and self-closing tags with plain attributes; no value holds
#   "<" or ">", so a tag ends at its first ">";
# - "<!DOCTYPE ...>", and "<!-- -->" comments without "--" inside that
#   neither start with ">" or "->" nor end with "-";
# - script and style elements whose body holds no "</" or "<!", title
#   elements whose content holds no "<", and textarea, xmp, iframe,
#   noembed and noframes elements whose content holds no "<" or "&", each
#   closed by "</" + its name + ">" with no space (in any letter case);
#   noscript is an ordinary element, as html.parser reads it unless made
#   with scripting=True;
# - a bare "<" not followed by a letter, "/", "!" or "?" (it is text);
# - text.
# A page holding a NUL is read by _TextExtractor from its start.  The two
# paths were checked to agree on CPython 3.10.13, 3.11.2, 3.11.7, 3.12.1,
# 3.13.0 and 3.13.13, and tests/test_corpus.py holds them to each other on
# the release that runs it; a release that changed how html.parser reads
# markup inside the subset would not change the scan.
_TAG_WS = "[ \t\n\r\f]"
_ATTRS = (
    f"(?:{_TAG_WS}+[a-zA-Z_:][-a-zA-Z0-9_:.]*"
    f"""(?:{_TAG_WS}*={_TAG_WS}*(?:"[^"<>]*"|'[^'<>]*'|[^ \t\n\r\f"'=<>`/]+))?)*"""
    f"{_TAG_WS}*"
)
# elements some release reads as raw text or RCDATA
_CONTENT_TAGS = "(?i:script|style|title|textarea|xmp|iframe|noembed|noframes|plaintext)"
# One token per match, its kind told by the last group that matched.
# Comment and script bodies are matched lazily up to their end and checked
# apart, so no token keeps regex state per character.  Compiled on first
# use (by the re module's cache), so commands that read no HTML do not pay
# for it.
_TOKEN = (
    "<(?:"
    f"(/(?i:title){_TAG_WS}*>)"  # 1: </title>
    f"|(/[a-zA-Z][-a-zA-Z0-9]*{_TAG_WS}*>"  # 2: any other tag
    f"|(?!{_CONTENT_TAGS}[ \t\n\r\f/>])[a-zA-Z][-a-zA-Z0-9]*{_ATTRS}/?>)"
    f"|(!(?i:doctype)(?:{_TAG_WS}[^<>]*)?>)"  # 3: a declaration
    "|!--((?s:.*?))-->"  # 4: a comment's content
    f"|((?i:script|style)){_ATTRS}>((?s:.*?))</(?i:\\5)>"  # 5, 6: a script or style element
    f"|(?i:title){_ATTRS}>([^<]*)</(?i:title)>"  # 7: a title element's content
    f"|((?i:textarea|xmp|iframe|noembed|noframes)){_ATTRS}>([^<&]*)</(?i:\\8)>"  # 8, 9: a text element
    "|(?![a-zA-Z/!?])"  # a bare "<"
    "|())"  # 10: markup outside the subset
)
# stands for a removed comment or declaration until the text is unescaped,
# so that the text on its two sides is unescaped apart, as html.parser does
_GAP = "\x00"


class _OutsideSubset(Exception):
    """Raised by the page scan at the first markup outside the subset; its
    argument is where that markup starts."""


def _scan(html: str) -> tuple[str | None, str]:
    """The title and text :class:`_TextExtractor` gives for ``html``, a page
    with no NUL; raises _OutsideSubset at its first markup outside the subset.

    Each tag becomes a newline, script and style elements two, comments and
    declarations nothing.  The first title element's content is the title;
    it is None when neither a title element nor a ``</title>`` was read.
    """
    title = None

    def token(m: re.Match) -> str:
        nonlocal title
        kind = m.lastindex
        if kind == 2:
            return "\n"
        if kind is None:
            return "<"
        if kind == 3:
            return _GAP
        if kind == 4:
            content = m.group(4)
            if not ("--" in content or content.startswith((">", "->")) or content.endswith("-")):
                return _GAP
        elif kind == 6:
            if not ("</" in m.group(6) or "<!" in m.group(6)):
                return "\n\n"
        elif kind == 7:
            if title is None:
                title = unescape(m.group(7))
                return "\n\n"
            return "\n" + m.group(7) + "\n"
        elif kind == 9:
            return "\n" + m.group(9) + "\n"
        elif kind == 1:  # a </title> before any title leaves the page none
            if title is None:
                title = ""
            return "\n"
        raise _OutsideSubset(m.start())

    text = re.sub(_TOKEN, token, html)
    # every chunk of text between two tokens ends at a newline, a "<", a gap
    # or the end, none of which a character reference can span
    return title, unescape(text).replace(_GAP, "")


def _read_page(html: str) -> tuple[str, str]:
    """The title and text :class:`_TextExtractor` gives for ``html``: by the
    scan up to the first markup outside the subset, by _TextExtractor from
    there on."""
    title, text, cut = None, "", 0
    if _GAP not in html:
        try:
            title, text = _scan(html)
            return title or "", text
        except _OutsideSubset as outside:
            cut = outside.args[0]
            # the part before the cut holds the same tokens, all in the subset
            title, text = _scan(html[:cut])
    parser = _TextExtractor(title_done=title is not None)
    parser.feed(html[cut:])
    parser.close()
    if title is None:
        title = "".join(parser.title_parts)
    return title, text + "".join(parser.parts)


def _is_run_char(ch: str) -> bool:
    return ch.isalpha() or ch.isdigit() or ch.isspace() or ch in _RUN_PUNCT


def _text_runs_by_char(text: str) -> list[str]:
    """Maximal allowed-character runs; a blank line also ends a run."""
    runs: list[str] = []
    current: list[str] = []
    for ch in text:
        if not _is_run_char(ch):
            if current:
                runs.append("".join(current))
                current = []
            continue
        if ch == "\n" and current and current[-1] == "\n":
            runs.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        runs.append("".join(current))
    return runs


# Latin-1; Arabic and Arabic Supplement; General Punctuation, Superscripts
# and Subscripts and Currency Symbols: the blocks whose run characters
# _RUN_SPLIT lists, found with _is_run_char when the module loads.
# _RUN_SPLIT splits on no character outside them: a piece holding one is
# split by the char loop.  Both patterns are compiled on first use.
_RUN_BLOCKS = ((0x0000, 0x00FF), (0x0600, 0x077F), (0x2000, 0x20CF))
_OUTSIDE_RANGES = "".join(
    f"\\U{hi + 1:08x}-\\U{lo - 1:08x}"
    for (_, hi), (lo, _) in zip(_RUN_BLOCKS, _RUN_BLOCKS[1:] + ((0x110000, None),))
)
_OUTSIDE_RUN_BLOCKS = f"[{_OUTSIDE_RANGES}]"
_RUN_SPLIT = "[^" + "".join(
    f"\\u{cp:04x}"
    for lo, hi in _RUN_BLOCKS
    for cp in range(lo, hi + 1)
    if _is_run_char(chr(cp))
) + _OUTSIDE_RANGES + "]+|\n\n"


def _text_runs(text: str) -> list[str]:
    """The runs of :func:`_text_runs_by_char`, by one regex split, and by
    the char loop inside the pieces holding a character outside _RUN_BLOCKS.

    A piece ends at a character that is not a run character or at a blank
    line, where the char loop also ends its run, so only the pieces that
    hold such a character need it.  Stripped, the runs of the two are the
    same, but for empty ones: the split drops both newlines of a blank line,
    the char loop keeps the first at the end of its run.
    """
    pieces = re.split(_RUN_SPLIT, text)
    if not re.search(_OUTSIDE_RUN_BLOCKS, text):
        return pieces
    outside = map(re.compile(_OUTSIDE_RUN_BLOCKS).search, pieces)
    return [
        run
        for piece, found in zip(pieces, outside)
        for run in (_text_runs_by_char(piece) if found else (piece,))
    ]


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
    title = re.sub(r"\s+", " ", title).strip()
    # inline tags leave stray newlines inside a run; flatten them so
    # downstream sentence splitting only sees real line breaks
    kept = [
        re.sub(r"[ \t]*\n[ \t]*", " ", run)
        for run in map(str.strip, _text_runs(text))
        if len(run) >= min_run_chars
    ]
    if not kept:
        raise CorpusError("no main content")
    return title, "\n".join(kept)


def extract_document(
    page: RawPage, min_run_chars: int = DEFAULT_MIN_RUN_CHARS
) -> Document:
    title, body = extract_main_article(page, min_run_chars)
    return make_document(url=page.source_url, title=title, body=body)


def dedupe_documents(docs: list[Document]) -> list[Document]:
    """Drop later documents whose whitespace-normalized body already occurred.

    A body is keyed by the sha256 digest of its words joined by single
    spaces, so no second copy of it is kept."""
    seen: set[bytes] = set()
    unique: list[Document] = []
    for doc in docs:
        words = " ".join(doc.body.split())
        key = hashlib.sha256(words.encode("utf-8", "surrogatepass")).digest()
        if key in seen:
            continue
        seen.add(key)
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


def _decode_html(raw: bytes) -> str:
    """Decode page bytes, honouring a declared charset, normalizing to str."""
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


@dataclass
class FetchFailure:
    url: str
    reason: str


@dataclass
class FetchResult:
    pages: list[RawPage] = field(default_factory=list)
    failures: list[FetchFailure] = field(default_factory=list)


def fetch_pages(
    urls: list[str],
    politeness_delay: float = 1.0,
    timeout: float = 20.0,
) -> FetchResult:
    """Fetch pages for an explicit URL list.

    Plain paths and ``file://`` URLs are read locally without touching the
    network.  Remote requests are spaced by ``politeness_delay`` seconds per
    host and carry an identifying user agent.  Failures are collected per
    URL instead of aborting the batch.
    """
    result = FetchResult()
    last_hit: dict[str, float] = {}
    session = None
    for url in urls:
        parsed = urlparse(url)
        if parsed.scheme in ("", "file"):
            path = url
            if parsed.scheme == "file":
                # imported here: urllib.request pulls in http.client and ssl
                from urllib.request import url2pathname

                path = url2pathname(parsed.path)
            try:
                result.pages.append(read_local_page(path))
            except (OSError, ValueError) as exc:  # CorpusError, or a path with a NUL
                result.failures.append(FetchFailure(url=url, reason=str(exc)))
            continue
        if session is None:
            import requests

            session = requests.Session()
            session.headers["User-Agent"] = USER_AGENT
        host = parsed.netloc
        wait = last_hit.get(host, 0.0) + politeness_delay - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        last_hit[host] = time.monotonic()
        try:
            resp = session.get(url, timeout=timeout)
            resp.raise_for_status()
            result.pages.append(RawPage(source_url=url, html=_decode_html(resp.content)))
        except Exception as exc:  # noqa: BLE001 - per-URL failures are data
            result.failures.append(FetchFailure(url=url, reason=str(exc)))
    return result
