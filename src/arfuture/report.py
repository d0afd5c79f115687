"""Self-contained HTML result pages.

Conventions: positive markers are highlighted yellow; the search field of
a triggered negative marker is shaded red and names the marker in its
hover text; chosen excerpts are underlined; sentences are grouped by
semantic category under a header that links back to the source page.
Styling is inline so a report is a single portable file.

A sentence is cut at every span edge and each slice is wrapped on its
own, so stripping the markup gives back the sentence.  It is rendered on
one of two paths, chosen from what it carries.  A rule with no negative
form and no ``extract`` directive, as every bundled rule is, highlights
markers alone, so most annotated sentences carry marks and nothing else;
their spans are token spans, equal or disjoint, and ``_render_marks``
writes such a sentence in one pass over its sorted spans, with no record
per span and no test of each slice against each span.  A sentence with an
excerpt, a shaded negative field or overlapping marks goes to
``_render_decorated``, which walks the sorted span edges once, keeping
running counts of the open marks and excerpts and the open fields.  Both
take time linear in the sentence and its spans (up to sorting them).
Marks get their own path because the edge walk, for all its linearity, is
no faster on short sentences than testing every span for every slice:
building and rendering the 200 seed-88 news-dense benchmark reports took
112 ms with the walk alone, 117 ms with the per-slice test and 78 ms with
the marks path (best of 21, 2 vCPUs, Python 3.11.7).
"""

from __future__ import annotations

import html
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import Document
from .engine import Annotation, DocumentAnalysis, RejectionTrace
from .evaluate import CLASS_LABELS
from .resources import write_file
from .segment import Sentence


class RenderError(ValueError):
    """An annotation span does not fit its sentence (upstream bug)."""


_PAGE_CSS = """
body { font-family: "Segoe UI", Tahoma, sans-serif; margin: 2em auto; max-width: 60em; }
header h1 { font-size: 1.3em; }
header .meta { color: #666; font-size: 0.85em; }
section.category > h2 { border-bottom: 1px solid #ccc; padding-bottom: 0.2em; }
ol.sentences li { margin: 0.8em 0; }
p.sentence { line-height: 1.9; }
p.labels { color: #666; font-size: 0.8em; margin-top: -0.6em; }
mark.pos { background: yellow; }
span.neg-field { background: #ffb0b0; }
span.excerpt { text-decoration: underline; }
p.empty { color: #666; font-style: italic; }
table.index { border-collapse: collapse; }
table.index th, table.index td { border: 1px solid #ccc; padding: 0.3em 0.7em; }
footer { margin-top: 2em; color: #999; font-size: 0.8em; }
"""


class _Decoration(NamedTuple):
    span: tuple[int, int]
    kind: str  # "mark" | "field" | "excerpt"
    title: str = ""


class ReportPage(NamedTuple):
    """One document's report; its dicts take no default, so pages share none."""

    doc: Document
    groups: dict[str, list[str]]
    class_counts: dict[str, int]
    generated_at: str = ""

    @property
    def total_annotations(self) -> int:
        return sum(self.class_counts.values())


def _escape_bytes(data: bytes) -> bytes:
    """``html.escape(..., quote=True)`` on UTF-8 bytes: no byte of a
    multi-byte character is ASCII, so no character is cut."""
    return (data.replace(b"&", b"&amp;").replace(b"<", b"&lt;").replace(b">", b"&gt;")
            .replace(b'"', b"&quot;").replace(b"'", b"&#x27;"))


_NEEDS_ESCAPE = re.compile(rb"[&<>\"']").search


def _render_marks(text: str, spans: list[tuple[int, int]]) -> str:
    """Highlight the byte ``spans`` of ``text`` as positive markers.

    ``_render_decorated`` of the spans as marks, without a record per span.
    Marker spans are token spans, which are equal or disjoint, so the
    sentence is written in one pass over its sorted, distinct, non-empty
    spans: the gap before each, then the span in a ``<mark>``.  Spans
    that overlap are cut at every edge by ``_render_decorated``, which
    also names the first span, in list order, outside the sentence.
    """
    data = text.encode("utf-8")
    size = len(data)
    escape = _NEEDS_ESCAPE(data) is not None
    out: list[bytes] = []
    end = 0
    for a, b in sorted(set(spans)):
        if a < end or b < a or b > size:
            # an overlap, or a span outside the sentence, for the first of
            # which, in list order, _render_decorated raises
            return _render_decorated(text, [_Decoration(span, "mark") for span in spans])
        if a == b:  # it cuts no mark, and a cut between gap bytes changes nothing
            continue
        gap, marker = data[end:a], data[a:b]
        if escape:
            gap, marker = _escape_bytes(gap), _escape_bytes(marker)
        out.append(b'%s<mark class="pos">%s</mark>' % (gap, marker))
        end = b
    tail = data[end:]
    out.append(_escape_bytes(tail) if escape else tail)
    return b"".join(out).decode("utf-8")


def _render_decorated(text: str, decorations: list[_Decoration]) -> str:
    """Wrap byte-span regions of ``text`` in highlight elements.

    Regions may overlap arbitrarily; the text is cut at every span edge and
    each slice is wrapped independently, so stripping the markup always
    gives back the sentence verbatim.  Each decoration opens at its start
    edge and closes at its end edge.  One walk over the sorted edges keeps
    the number of open marks and excerpts and the titles of the open
    fields, at most one per rule; they give each slice's wrapping, with the
    field titles in decoration order.  The slices are cut, escaped and wrapped as
    UTF-8 bytes, escaped only if the sentence holds a character that needs
    it, and the result is decoded once.
    """
    data = text.encode("utf-8")
    size = len(data)
    # edge: (list position, +1 or -1) of each decoration that opens or
    # closes there, in list order, so a zero-width one opens, then closes
    events: dict[int, list[tuple[int, int]]] = {0: [], size: []}
    for i, deco in enumerate(decorations):
        a, b = deco.span
        if not (0 <= a <= b <= size):
            raise RenderError(f"span {deco.span} outside sentence of {size} bytes")
        events.setdefault(a, []).append((i, 1))
        events.setdefault(b, []).append((i, -1))
    points = sorted(events)
    escape = _NEEDS_ESCAPE(data) is not None
    out: list[bytes] = []
    depth = {"mark": 0, "excerpt": 0}
    fields: dict[int, str] = {}  # the open fields' titles by list position
    for a, b in zip(points, points[1:]):
        for i, step in events[a]:
            kind = decorations[i].kind
            if kind == "field":
                if step > 0:
                    fields[i] = decorations[i].title
                else:
                    del fields[i]
            else:
                depth[kind] += step
        piece = data[a:b]
        if escape:
            piece = _escape_bytes(piece)
        if depth["mark"]:
            piece = b'<mark class="pos">%s</mark>' % piece
        if depth["excerpt"]:
            piece = b'<span class="excerpt">%s</span>' % piece
        if fields:
            titles = "; ".join(fields[i] for i in sorted(fields) if fields[i])
            title = html.escape(titles, quote=True).encode("utf-8")
            piece = b'<span class="neg-field" title="%s">%s</span>' % (title, piece)
        out.append(piece)
    return b"".join(out).decode("utf-8")


def _sentence_block(
    sentence: Sentence,
    annotations: list[Annotation],
    fields: Sequence[RejectionTrace],
) -> str:
    """One sentence's list item: the sentence with its spans drawn, then
    its labels, each named once, escaped.  ``fields`` are the traces whose
    negative fields it shades, each with a span.

    One loop gathers the marker spans and labels; with no excerpt and no
    field, the spans go to ``_render_marks``.  A per-page table of label
    lines made the 200 seed-88 news-dense pages slower to build (32.2
    against 31.7 ms, best of 15, 2 vCPUs, Python 3.11.7): 85% of the
    label sequences on a page are distinct.
    """
    spans: list[tuple[int, int]] = []
    labels: list[str] = []
    excerpts = False
    for ann in annotations:
        spans += ann.positive_marker_spans
        labels.append(ann.class_label)
        if ann.excerpt_span:
            excerpts = True
    if fields or excerpts:
        decorations: list[_Decoration] = []
        for ann in annotations:
            decorations += [_Decoration(span, "mark") for span in ann.positive_marker_spans]
            if ann.excerpt_span:
                decorations.append(_Decoration(ann.excerpt_span, "excerpt"))
        for trace in fields:
            decorations.append(_Decoration(
                trace.negative_field_span, "field", f"negative marker: {trace.negative_marker}"
            ))
        body = _render_decorated(sentence.text, decorations)
    else:
        body = _render_marks(sentence.text, spans)
    label_line = html.escape(", ".join(dict.fromkeys(labels)))
    return (
        f'<li><p class="sentence" dir="rtl" lang="ar">{body}</p>'
        f'<p class="labels">{label_line}</p></li>'
    )


def _timestamp(when: datetime | None) -> str:
    """``when``, or the current time, as the footers give it in UTC; a
    naive time is taken as UTC already."""
    when = when or datetime.now(timezone.utc)
    if when.tzinfo is not None:
        when = when.astimezone(timezone.utc)
    return when.strftime("%Y-%m-%d %H:%M UTC")


def build_report_page(
    analysis: DocumentAnalysis,
    *,
    generated_at: datetime | None = None,
    show_all_negative_fields: bool = False,
) -> ReportPage:
    """Group one document's annotated sentences by category.

    A sentence shades the negative fields of the rules that annotated it,
    or, with ``show_all_negative_fields``, of every trace on it.
    """
    by_index = {s.index: s for s in analysis.sentences}
    page = ReportPage(analysis.doc, {}, {}, _timestamp(generated_at))

    per_category: dict[str, dict[int, list[Annotation]]] = {}
    for ann in analysis.annotations:
        page.class_counts[ann.class_label] = page.class_counts.get(ann.class_label, 0) + 1
        per_category.setdefault(ann.category, {}).setdefault(ann.sentence_index, []).append(ann)

    # the traces each sentence shades, those with no field left out
    field_traces: dict[int, list[RejectionTrace]] = {}
    if analysis.traces:
        annotated = {(ann.sentence_index, ann.rule_id) for ann in analysis.annotations}
        for t in analysis.traces:
            if t.negative_field_span and (
                show_all_negative_fields or (t.sentence_index, t.rule_id) in annotated
            ):
                field_traces.setdefault(t.sentence_index, []).append(t)

    for category, per_sentence in per_category.items():
        blocks: list[str] = []
        for idx in sorted(per_sentence):
            sentence = by_index.get(idx)
            if sentence is None:
                raise RenderError(f"annotation references unknown sentence {idx}")
            blocks.append(
                _sentence_block(sentence, per_sentence[idx], field_traces.get(idx, ()))
            )
        page.groups[category] = blocks
    return page


def _html_page(html_attrs: str, title: str, body: list[str], generated_at: str) -> str:
    """A whole page: doctype, head with ``title`` (escaped already) and the
    style sheet, then ``body``'s lines and the footer."""
    return "\n".join([
        "<!DOCTYPE html>",
        f"<html {html_attrs}>",
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{title}</title>",
        f"<style>{_PAGE_CSS}</style>",
        "</head>",
        "<body>",
        *body,
        f"<footer>generated {html.escape(generated_at)}</footer>",
        "</body>",
        "</html>",
    ]) + "\n"


def render_page(page: ReportPage) -> str:
    doc = page.doc
    title = html.escape(doc.title or doc.url)
    body = [
        "<header>",
        f'<h1><a href="{html.escape(doc.url, quote=True)}">{title}</a></h1>',
        f'<p class="meta">document {html.escape(doc.id)}</p>',
        "</header>",
    ]
    if not page.groups:
        body.append('<p class="empty">no matches</p>')
    for category, blocks in page.groups.items():
        body += ['<section class="category">', f"<h2>{html.escape(category)}</h2>",
                 '<ol class="sentences">', *blocks, "</ol>", "</section>"]
    return _html_page('lang="ar" dir="rtl"', title, body, page.generated_at)


def render_index(pages: list[ReportPage], *, generated_at: datetime | None = None) -> str:
    """Overview page linking every per-document report with class counts.

    The class columns are ``CLASS_LABELS``, in the order ``eval`` reports
    them, then any other label in the order it is first seen.  The footer
    gives ``generated_at``; without it, the first page's time, or the
    current time if there is no page.
    """
    labels = dict.fromkeys([*CLASS_LABELS, *(l for p in pages for l in p.class_counts)])
    head_cells = "".join(f"<th>{html.escape(l)}</th>" for l in labels)
    rows = []
    for page in sorted(pages, key=lambda p: p.doc.id):
        cells = "".join(
            f"<td>{page.class_counts.get(label, 0)}</td>" for label in labels
        )
        link = f'<a href="{html.escape(page.doc.id, quote=True)}.html">{html.escape(page.doc.id)}</a>'
        title = html.escape(page.doc.title or page.doc.url)
        rows.append(
            f"<tr><td>{link}</td><td>{title}</td>{cells}<td>{page.total_annotations}</td></tr>"
        )
    body = [
        "<h1>Analyzed documents</h1>",
        '<table class="index">',
        f"<tr><th>document</th><th>title</th>{head_cells}<th>total</th></tr>",
        *rows,
        "</table>",
    ]
    stamp = pages[0].generated_at if pages and generated_at is None else _timestamp(generated_at)
    return _html_page('lang="en"', "analysis index", body, stamp)


#: characters of rendered pages ``write_reports`` holds before it writes
#: them together.  With each page written as soon as it is rendered, the
#: benchmark's ``analyze_mb_per_s`` was 2.0% lower on ingest-html (lower in
#: 10 of 10 pairs) and 1.8% lower on news-dense (7 of 10), for about 1%
#: less peak memory (seeds 6101-6110, 2 vCPUs, Python 3.11.7).
_WRITE_BATCH_CHARS = 1 << 18


def _write_texts(files: list[tuple[Path, str]]) -> None:
    """Write each ``(path, text)`` as UTF-8 with "\\n" line ends."""
    for path, text in files:
        write_file(path, text)


def write_reports(
    out_dir: str | Path,
    analyses: Iterable[DocumentAnalysis],
    *,
    generated_at: datetime | None = None,
    show_all_negative_fields: bool = False,
) -> None:
    """Write ``<doc_id>.html`` per document plus ``index.html``.

    ``analyses`` is read one at a time.  Rendered pages are written once
    they hold ``_WRITE_BATCH_CHARS`` characters, and only what
    ``render_index`` reads of a page is kept after that.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    when = generated_at or datetime.now(timezone.utc)
    pages = []
    held: list[tuple[Path, str]] = []
    held_chars = 0
    for analysis in analyses:
        page = build_report_page(
            analysis, generated_at=when, show_all_negative_fields=show_all_negative_fields
        )
        text = render_page(page)
        held.append((out_dir / f"{analysis.doc.id}.html", text))
        held_chars += len(text)
        if held_chars >= _WRITE_BATCH_CHARS:
            _write_texts(held)
            held, held_chars = [], 0
        pages.append(page._replace(groups={}))
    held.append((out_dir / "index.html", render_index(pages, generated_at=when)))
    _write_texts(held)
