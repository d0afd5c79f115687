"""Corpus construction in miniature: write two HTML pages to disk, run the
main-article extractor over them, and show the resulting corpus files."""

import tempfile
from pathlib import Path

from arfuture.corpus import compile_corpus_file, extract_document, read_local_page

filler = "النمو الاقتصادي في لبنان سوف يتحسن خلال العام المقبل باذن الله " * 3

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    (tmp / "article.html").write_text(
        "<html><head><title>اقتصاد لبنان</title></head><body>"
        "<nav>الرئيسية | اقتصاد | سياسة</nav>"
        f"<p>{filler}</p>"
        "<footer>جميع الحقوق محفوظة</footer>"
        "</body></html>",
        encoding="utf-8",
    )
    page = read_local_page(tmp / "article.html")
    doc = extract_document(page)
    print("extracted document", doc.id)
    print("title:", doc.title)
    print("body starts:", doc.body[:60], "...")
    print()
    print("serialized corpus file:")
    print(compile_corpus_file(doc)[:160], "...")
