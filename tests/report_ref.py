"""Reference renderer: the earlier ``_render_decorated`` of ``arfuture.report``.

The report module sets each slice's mark, excerpt and field flags in one
loop over the decorations.  This module keeps the earlier version, which
collects the active decorations of every slice into a list and then asks
three questions of it, so tests can hold the two to the same HTML and the
same errors.
"""

from __future__ import annotations

import html

from arfuture.report import RenderError


def render_decorated(text: str, decorations) -> str:
    data = text.encode("utf-8")
    size = len(data)
    for deco in decorations:
        a, b = deco.span
        if not (0 <= a <= b <= size):
            raise RenderError(f"span {deco.span} outside sentence of {size} bytes")
    edges = {0, size}
    for deco in decorations:
        edges.update(deco.span)
    points = sorted(edges)
    out: list[str] = []
    for a, b in zip(points, points[1:]):
        piece = html.escape(data[a:b].decode("utf-8"))
        if not piece:
            continue
        active = [d for d in decorations if d.span[0] <= a and b <= d.span[1]]
        if any(d.kind == "mark" for d in active):
            piece = f'<mark class="pos">{piece}</mark>'
        if any(d.kind == "excerpt" for d in active):
            piece = f'<span class="excerpt">{piece}</span>'
        fields = [d for d in active if d.kind == "field"]
        if fields:
            title = html.escape("; ".join(d.title for d in fields if d.title), quote=True)
            piece = f'<span class="neg-field" title="{title}">{piece}</span>'
        out.append(piece)
    return "".join(out)
