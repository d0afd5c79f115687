"""Allocation bounds for the commands that read a whole corpus, dump or page set.

``analyze`` and ``eval --corpus`` hold the parsed corpus and one
document's analysis at a time (``analyze`` also a batch of rendered
pages), so their traced allocation peak grows with the parsed corpus, not
with its analyses.  The corpus is the
criterion-8 one: 200 documents of 25 template sentences (seed 88), about
0.55 MB of text.  Holding every analysis until the end peaks at about
17 MB for ``analyze`` and 7 MB for ``eval --corpus`` on it.

``eval --annotations`` holds one line of the dump and the
(document, sentence, class) triples, with one copy of each doc id and
label.  On the dump ``analyze`` writes for that corpus (about 2.3 MB of
UTF-8, 4.2 times the corpus) it peaks at about 2 MB, mostly the 10,000
triples; decoding the whole dump into one string first, with a copy of
the names for each triple, peaks at about 9 MB.

``ingest`` holds one page's HTML at a time and the extracted documents,
whether it reads a directory or a URL list of the same pages.  Its pages
here are 200 chrome-heavy ones of about 31,000 characters (40 KB) each;
holding every page's HTML until the corpus files are written peaks at
about 13 MB on them, one page at a time at under 1 MB.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from arfuture.cli import main
from arfuture.corpus import compile_corpus_file, make_document

from oracle import generate_sentence

PEAK_LIMIT_MB = 5.0
INGEST_PEAK_LIMIT_MB = 2.0
WORDS = ["لبنان", "اقتصاد", "تقرير", "نمو", "العام", "الموازنة", "الدين", "المصارف"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    corpus = root / "corpus"
    corpus.mkdir()
    rng = random.Random(88)
    for i in range(200):
        body = " ".join(generate_sentence(rng) + "." for _ in range(25))
        doc = make_document(url=f"http://bench/{i}", title=f"doc {i}", body=body)
        (corpus / f"{doc.id}.corpus.txt").write_text(
            compile_corpus_file(doc), encoding="utf-8", newline="\n"
        )
    # every document carries a gold triple, so eval scores a full corpus
    (root / "gold.tsv").write_text(
        "".join(f"{p.name.split('.')[0]}\t0\tsawfa\n" for p in sorted(corpus.iterdir())),
        encoding="utf-8",
    )
    return root


def _peak_mb(argv: list[str]) -> float:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_analyze_peak_stays_below_limit(corpus_dir, tmp_path, capsys):
    peak = _peak_mb(["analyze", "--corpus", str(corpus_dir / "corpus"),
                     "--out", str(tmp_path / "o"), "--clock", "2020-01-01T00:00"])
    assert "sentences=5000" in capsys.readouterr().out
    assert peak < PEAK_LIMIT_MB, f"analyze peaked at {peak:.1f} MB"


def test_eval_corpus_peak_stays_below_limit(corpus_dir, capsys):
    peak = _peak_mb(["eval", "--corpus", str(corpus_dir / "corpus"),
                     "--gold", str(corpus_dir / "gold.tsv")])
    assert "Overall" in capsys.readouterr().out
    assert peak < PEAK_LIMIT_MB, f"eval --corpus peaked at {peak:.1f} MB"


def test_eval_annotations_peak_stays_below_limit(corpus_dir, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["analyze", "--corpus", str(corpus_dir / "corpus"), "--out", str(out),
                 "--clock", "2020-01-01T00:00"]) == 0
    dump = out / "annotations.jsonl"
    assert dump.stat().st_size > 2e6
    capsys.readouterr()
    peak = _peak_mb(["eval", "--annotations", str(dump), "--gold", str(corpus_dir / "gold.tsv")])
    assert "Overall" in capsys.readouterr().out
    assert peak < PEAK_LIMIT_MB, f"eval --annotations peaked at {peak:.1f} MB"


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    pages = tmp_path_factory.mktemp("pages")
    rng = random.Random(88)
    menu = "".join(f'<li><a href="/section/{n}">قسم الاخبار {n}</a></li>\n' for n in range(600))
    for i in range(200):
        article = f"تقرير رقم {i} " + " ".join(rng.choice(WORDS) for _ in range(60))
        (pages / f"p{i:03d}.html").write_text(
            f"<html><head><title>صفحة {i}</title></head><body><ul>\n{menu}</ul>"
            f"<p>{article}</p></body></html>",
            encoding="utf-8",
        )
    return pages


def test_ingest_peak_stays_below_limit(pages_dir, tmp_path, capsys):
    peak = _peak_mb(["ingest", "--input", str(pages_dir), "--out", str(tmp_path / "c")])
    assert "pages=200 documents=200 rejected=0" in capsys.readouterr().out
    assert peak < INGEST_PEAK_LIMIT_MB, f"ingest peaked at {peak:.1f} MB"


def test_ingest_url_list_peak_stays_below_limit(pages_dir, tmp_path, capsys):
    url_list = tmp_path / "urls.txt"
    url_list.write_text("".join(f"{p}\n" for p in sorted(pages_dir.iterdir())), encoding="utf-8")
    peak = _peak_mb(["ingest", "--input", str(url_list), "--out", str(tmp_path / "c"),
                     "--delay", "0"])
    assert "pages=200 documents=200 rejected=0" in capsys.readouterr().out
    assert peak < INGEST_PEAK_LIMIT_MB, f"ingest of a URL list peaked at {peak:.1f} MB"
