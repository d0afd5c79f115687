"""Reference page reader on Python's ``html.parser``.

``arfuture.corpus`` reads a page with one scan that follows the WHATWG
HTML tokenizer.  That scan once covered only a strict subset of markup,
and ``html.parser`` read each page on from its first markup outside it.
This module keeps that ``html.parser`` reader, so tests can hold the scan
to it on pages inside the subset, where the two agree.  Outside it,
``html.parser`` releases read markup differently, and hand-written cases
pin the scan instead.
"""

from __future__ import annotations

from html.parser import HTMLParser


class TextExtractor(HTMLParser):
    """Collects text content, replacing each tag with a newline.

    Adjacent tags therefore leave a blank line (a run boundary), while a
    lone inline tag only injects a single newline, which a run survives.
    Script and style contents are skipped entirely.  The first title
    element's content is the title; after a ``</title>`` no title is read.
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


def read_page(html: str) -> tuple[str, str]:
    """The (title, text) ``html.parser`` gives for ``html``."""
    parser = TextExtractor()
    parser.feed(html)
    parser.close()
    return "".join(parser.title_parts), "".join(parser.parts)
