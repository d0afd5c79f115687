"""Self-contained HTML result pages.

Conventions: positive markers are highlighted yellow; the search field of
a triggered negative marker is shaded red and names the marker in its
hover text; chosen excerpts are underlined; sentences are grouped by
semantic category under a header that links back to the source page.
Styling is inline so a report is a single portable file.
"""

from __future__ import annotations

import html
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, NamedTuple

from .corpus import Document
from .engine import Annotation, DocumentAnalysis, RejectionTrace
from .evaluate import CLASS_LABELS
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


def _render_decorated(text: str, decorations: list[_Decoration]) -> str:
    """Wrap byte-span regions of ``text`` in highlight elements.

    Regions may overlap arbitrarily; the text is cut at every span edge and
    each slice is wrapped independently, so stripping the markup always
    gives back the sentence verbatim.  One loop over the decorations per
    slice sets its mark, excerpt and field flags and collects the non-empty
    field titles in decoration order.  The slices are cut, escaped and
    wrapped as UTF-8 bytes, escaped only if the sentence holds a character
    that needs it, and the result is decoded once.
    """
    data = text.encode("utf-8")
    size = len(data)
    edges = {0, size}
    for deco in decorations:
        a, b = deco.span
        if not (0 <= a <= b <= size):
            raise RenderError(f"span {deco.span} outside sentence of {size} bytes")
        edges.update(deco.span)
    points = sorted(edges)
    escape = _NEEDS_ESCAPE(data) is not None
    out: list[bytes] = []
    for a, b in zip(points, points[1:]):
        mark = excerpt = shaded = False
        titles: list[str] = []
        for (start, end), kind, title in decorations:
            if start <= a and b <= end:
                if kind == "mark":
                    mark = True
                elif kind == "excerpt":
                    excerpt = True
                elif kind == "field":
                    shaded = True
                    if title:
                        titles.append(title)
        piece = data[a:b]
        if escape:
            piece = _escape_bytes(piece)
        if mark:
            piece = b'<mark class="pos">%s</mark>' % piece
        if excerpt:
            piece = b'<span class="excerpt">%s</span>' % piece
        if shaded:
            title = html.escape("; ".join(titles), quote=True).encode("utf-8")
            piece = b'<span class="neg-field" title="%s">%s</span>' % (title, piece)
        out.append(piece)
    return b"".join(out).decode("utf-8")


def _sentence_block(
    sentence: Sentence,
    annotations: list[Annotation],
    field_traces: list[RejectionTrace],
) -> str:
    decorations: list[_Decoration] = []
    seen_spans: set[tuple[int, int]] = set()
    labels: list[str] = []
    for ann in annotations:
        if ann.class_label not in labels:
            labels.append(ann.class_label)
        for span in ann.positive_marker_spans:
            if span not in seen_spans:
                seen_spans.add(span)
                decorations.append(_Decoration(span, "mark"))
        if ann.excerpt_span:
            decorations.append(_Decoration(ann.excerpt_span, "excerpt"))
    for trace in field_traces:
        if trace.negative_field_span:
            decorations.append(
                _Decoration(
                    trace.negative_field_span,
                    "field",
                    f"negative marker: {trace.negative_marker}",
                )
            )
    body = _render_decorated(sentence.text, decorations)
    label_line = html.escape(", ".join(labels))
    return (
        f'<li><p class="sentence" dir="rtl" lang="ar">{body}</p>'
        f'<p class="labels">{label_line}</p></li>'
    )


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
    when = generated_at or datetime.now(timezone.utc)
    if when.tzinfo is not None:  # a naive time is taken as UTC already
        when = when.astimezone(timezone.utc)
    page = ReportPage(analysis.doc, {}, {}, when.strftime("%Y-%m-%d %H:%M UTC"))

    annotated_rules: dict[int, set[str]] = {}
    per_category: dict[str, dict[int, list[Annotation]]] = {}
    for ann in analysis.annotations:
        annotated_rules.setdefault(ann.sentence_index, set()).add(ann.rule_id)
        page.class_counts[ann.class_label] = page.class_counts.get(ann.class_label, 0) + 1
        per_category.setdefault(ann.category, {}).setdefault(ann.sentence_index, []).append(ann)

    field_traces: dict[int, list[RejectionTrace]] = {}
    for t in analysis.traces:
        if show_all_negative_fields or t.rule_id in annotated_rules.get(t.sentence_index, ()):
            field_traces.setdefault(t.sentence_index, []).append(t)

    for category, per_sentence in per_category.items():
        blocks: list[str] = []
        for idx in sorted(per_sentence):
            sentence = by_index.get(idx)
            if sentence is None:
                raise RenderError(f"annotation references unknown sentence {idx}")
            blocks.append(
                _sentence_block(sentence, per_sentence[idx], field_traces.get(idx, []))
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


def render_index(pages: list[ReportPage]) -> str:
    """Overview page linking every per-document report with class counts.

    The class columns are ``CLASS_LABELS``, in the order ``eval`` reports
    them, then any other label in the order it is first seen.
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
    return _html_page('lang="en"', "analysis index", body,
                      pages[0].generated_at if pages else "")


#: characters of rendered pages ``write_reports`` holds before it writes
#: them together.  A report rewritten in place is truncated, and ext4
#: flushes a file truncated to zero when it is closed (``auto_da_alloc``);
#: one such flush after every analysis made ``analyze`` into an existing
#: ``--out`` 10-20% slower; a batch of them at a time did not.
_WRITE_BATCH_CHARS = 1 << 18


def _write_texts(files: list[tuple[Path, str]]) -> None:
    """Write each ``(path, text)`` as UTF-8 with "\\n" line ends."""
    for path, text in files:
        path.write_text(text, encoding="utf-8", newline="\n")


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
    held.append((out_dir / "index.html", render_index(pages)))
    _write_texts(held)
