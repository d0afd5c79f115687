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
    Script and style contents are skipped entirely.
    """

    _SKIP = {"script", "style"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self.title_parts: list[str] = []
        self._skip_depth = 0
        self._in_title = False
        self._title_done = False

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


def _is_run_char(ch: str) -> bool:
    return ch.isalpha() or ch.isdigit() or ch.isspace() or ch in _RUN_PUNCT


def _text_runs(text: str) -> list[str]:
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


def extract_main_article(
    page: RawPage, min_run_chars: int = DEFAULT_MIN_RUN_CHARS
) -> tuple[str, str]:
    """Pull (title, body) out of a raw HTML page.

    The body is every qualifying run, in page order, joined by newlines.
    Run length is measured in code points after trimming the ends, with
    internal whitespace included.  Raises when nothing qualifies, which is
    how boilerplate-only pages get rejected.
    """
    parser = _TextExtractor()
    parser.feed(page.html)
    parser.close()
    title = re.sub(r"\s+", " ", "".join(parser.title_parts)).strip()
    text = "".join(parser.parts)
    kept: list[str] = []
    for run in _text_runs(text):
        run = run.strip()
        if len(run) >= min_run_chars:
            # inline tags leave stray newlines inside a run; flatten them so
            # downstream sentence splitting only sees real line breaks
            kept.append(re.sub(r"[ \t]*\n[ \t]*", " ", run))
    if not kept:
        raise CorpusError("no main content")
    return title, "\n".join(kept)


def extract_document(
    page: RawPage, min_run_chars: int = DEFAULT_MIN_RUN_CHARS
) -> Document:
    title, body = extract_main_article(page, min_run_chars)
    return make_document(url=page.source_url, title=title, body=body)


def dedupe_documents(docs: list[Document]) -> list[Document]:
    """Drop later documents whose whitespace-normalized body already occurred."""
    seen: set[str] = set()
    unique: list[Document] = []
    for doc in docs:
        key = re.sub(r"\s+", " ", doc.body).strip()
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
