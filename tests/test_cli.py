from __future__ import annotations

import hashlib
import http.server
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

from arfuture import cli, corpus
from arfuture.cli import _merge_config, _url_list, build_parser, main
from arfuture.config import Config, load_config, parse_config
from arfuture.corpus import compile_corpus_file, make_document
from arfuture.engine import Annotation, annotation_to_json, dump_annotations, load_annotations
from arfuture.evaluate import load_gold
from arfuture.resources import _word_list
from arfuture.rules import parse_rules, parse_semantic_map, parse_variable_defs
from arfuture.segment import DEFAULT_BOUNDARIES

#: sha256 of each file ``analyze --clock 2020-01-01T00:00`` writes on mini_gold
MINI_GOLD_DIGESTS = Path(__file__).parent / "golden" / "analyze_mini_gold.sha256"
#: rules with negative clues before and after their indicator, and with ``@N`` fields
CE_RULES = Path(__file__).parent / "ce_rules.txt"
LONG_PARA = ("النمو الاقتصادي في لبنان سوف يتحسن " * 4).strip()  # 139 chars


def page(body_paragraph: str, title: str = "عنوان") -> str:
    return f"<html><head><title>{title}</title></head><body><p>{body_paragraph}</p></body></html>"


@pytest.fixture()
def html_dir(tmp_path):
    src = tmp_path / "html"
    src.mkdir()
    (src / "a.html").write_text(page(LONG_PARA + " الاول"), encoding="utf-8")
    (src / "b.html").write_text(page(LONG_PARA + " الثاني"), encoding="utf-8")
    (src / "c.html").write_text(page("قصير جدا"), encoding="utf-8")  # below threshold
    return src


class TestIngest:
    def test_threshold_behavior(self, html_dir, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main(["ingest", "--input", str(html_dir), "--out", str(out)])
        assert code == 0
        assert len(list(out.glob("*.corpus.txt"))) == 2
        assert "pages=3 documents=2 rejected=1" in capsys.readouterr().out

    def test_unreadable_page_is_skipped_and_counted(self, html_dir, tmp_path, capsys):
        bad = html_dir / "d.html"
        bad.write_bytes(b"<p>\xff\xfe</p>")
        (html_dir / "e.html").write_text(page(LONG_PARA + " الاول"), encoding="utf-8")  # = a
        code = main(["ingest", "--input", str(html_dir), "--out", str(tmp_path / "c")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"skipping {html_dir / 'c.html'}: no main content\n"
            f"skipping {bad}: page is not valid UTF-8 and declares no usable charset\n"
        )
        assert captured.out == "pages=5 documents=2 rejected=3\n"

    def test_empty_dir_exits_1(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.mkdir()
        code = main(["ingest", "--input", str(src), "--out", str(tmp_path / "c")])
        assert code == 1

    def test_unreadable_input_exits_2(self, tmp_path):
        code = main(["ingest", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "c")])
        assert code == 2

    def test_min_run_chars_flag(self, html_dir, tmp_path):
        out = tmp_path / "corpus"
        code = main(
            ["ingest", "--input", str(html_dir), "--out", str(out), "--min-run-chars", "5"]
        )
        assert code == 0
        assert len(list(out.glob("*.corpus.txt"))) == 3

    def test_url_list_mode_against_local_server(self, html_dir, tmp_path, capsys):
        handler = lambda *a, **kw: http.server.SimpleHTTPRequestHandler(
            *a, directory=str(html_dir), **kw
        )
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            url_list = tmp_path / "urls.txt"
            url_list.write_text(
                f"http://127.0.0.1:{port}/a.html\n"
                f"http://127.0.0.1:{port}/b.html\n"
                f"http://127.0.0.1:{port}/missing.html\n",
                encoding="utf-8",
            )
            out = tmp_path / "corpus"
            code = main(
                ["ingest", "--input", str(url_list), "--out", str(out), "--delay", "0"]
            )
            assert code == 0
            assert len(list(out.glob("*.corpus.txt"))) == 2
            assert "pages=3 documents=2 rejected=1" in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()

    def test_plain_path_list_does_not_import_urllib_request(self, html_dir, tmp_path):
        url_list = tmp_path / "urls.txt"
        url_list.write_text(f"{html_dir / 'a.html'}\n", encoding="utf-8")
        script = (
            "import sys\n"
            "from arfuture.cli import main\n"
            f"code = main(['ingest', '--input', {str(url_list)!r},"
            f" '--out', {str(tmp_path / 'corpus')!r}, '--delay', '0'])\n"
            "print(code, 'urllib.request' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert done.stdout.endswith("documents=1 rejected=0\n0 False\n"), done.stderr

    def test_bad_url_line_is_one_failure(self, html_dir, tmp_path, capsys):
        url_list = tmp_path / "urls.txt"
        url_list.write_text(f"{html_dir / 'a.html'}\nbad\x00name.html\n", encoding="utf-8")
        out = tmp_path / "corpus"
        code = main(["ingest", "--input", str(url_list), "--out", str(out), "--delay", "0"])
        assert code == 0
        assert len(list(out.glob("*.corpus.txt"))) == 1
        captured = capsys.readouterr()
        assert captured.err == "skipping bad\x00name.html: embedded null byte\n"
        assert "pages=2 documents=1 rejected=1" in captured.out

    def test_url_list_page_is_extracted_before_the_next_is_read(self, html_dir, tmp_path):
        url_list = tmp_path / "urls.txt"
        url_list.write_text(f"{html_dir / 'a.html'}\n{html_dir / 'b.html'}\n", encoding="utf-8")
        calls = []
        read, extract = corpus.read_local_page, corpus.extract_document

        def read_local_page(path):
            calls.append(("read", Path(path).name))
            return read(path)

        def extract_document(page, *args):
            calls.append(("extract", Path(page.source_url).name))
            return extract(page, *args)

        with mock.patch.object(corpus, "read_local_page", read_local_page), \
                mock.patch.object(corpus, "extract_document", extract_document):
            assert main(["ingest", "--input", str(url_list), "--out", str(tmp_path / "c"),
                         "--delay", "0"]) == 0
        assert calls == [("read", "a.html"), ("extract", "a.html"),
                         ("read", "b.html"), ("extract", "b.html")]

    def test_directory_entry_named_like_a_url_is_read_locally(self, tmp_path, monkeypatch,
                                                               capsys):
        src = tmp_path / "html"
        src.mkdir()
        (src / "http:x.html").write_text(page(LONG_PARA), encoding="utf-8")
        monkeypatch.chdir(src)
        with mock.patch("urllib.request.urlopen", side_effect=AssertionError("fetched")):
            code = main(["ingest", "--input", ".", "--out", str(tmp_path / "c"),
                         "--delay", "0"])
        assert code == 0
        assert capsys.readouterr().out == "pages=1 documents=1 rejected=0\n"
        [written] = (tmp_path / "c").iterdir()
        assert written.read_text(encoding="utf-8").startswith("URL: http:x.html\n")

    def test_directory_listing_reads_the_pages_path_suffix_picks(self, tmp_path, capsys):
        """The pages are the entries whose ``Path.suffix``, lowered, is
        .html or .htm, in sorted order, as ``Path`` objects: not a file named
        ".html", and a directory of such a name, which fails as a page."""
        src = tmp_path / "html"
        src.mkdir()
        for name in ["a.html", "B.HTM", "c.Html", ".html", ".htm", "..html", "d.htmlx",
                     "e.txt", "f.", "g.html.txt", "html", "h.xhtml"]:
            (src / name).write_text(page(f"{LONG_PARA} {name}"), encoding="utf-8")
        (src / "dir.html").mkdir()
        read = []
        real = corpus.read_local_page

        def read_local_page(path):
            read.append(path)
            return real(path)

        with mock.patch.object(corpus, "read_local_page", read_local_page):
            code = main(["ingest", "--input", str(src), "--out", str(tmp_path / "c"),
                         "--delay", "0"])
        assert code == 0
        assert read == sorted(p for p in src.iterdir() if p.suffix.lower() in (".html", ".htm"))
        assert [p.name for p in read] == ["..html", "B.HTM", "a.html", "c.Html", "dir.html"]
        with pytest.raises(OSError) as refused:
            (src / "dir.html").read_bytes()
        assert capsys.readouterr().err == f"skipping {src / 'dir.html'}: {refused.value}\n"

    def test_rerun_removes_the_corpus_files_it_did_not_write(self, html_dir, tmp_path,
                                                              capsys):
        """After a page is deleted, a rerun into the same ``--out`` leaves
        only the corpus file it wrote, and ``analyze`` reads that one; files
        of other names are left alone."""
        out = tmp_path / "corpus"
        assert main(["ingest", "--input", str(html_dir), "--out", str(out)]) == 0
        kept = ["notes.txt", "0123.corpus.txt", "0123456789AB.corpus.txt"]
        for name in kept:
            (out / name).write_text("x", encoding="utf-8")
        stale = out / f"{make_document(str(html_dir / 'b.html'), '', '').id}.corpus.txt"
        assert stale.exists()
        (html_dir / "b.html").unlink()
        capsys.readouterr()
        assert main(["ingest", "--input", str(html_dir), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "pages=2 documents=1 rejected=1\n"
        assert captured.err == (f"skipping {html_dir / 'c.html'}: no main content\n"
                                f"removing {stale}: not written by this run\n")
        written = f"{make_document(str(html_dir / 'a.html'), '', '').id}.corpus.txt"
        assert sorted(p.name for p in out.iterdir()) == sorted([written, *kept])
        for name in kept:
            (out / name).unlink()
        assert main(["analyze", "--corpus", str(out), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out == "sentences=1 future=1\n"

    @staticmethod
    def _ingest_beside_a_good_page(src, out, capsys, refused):
        """Ingest ``src``, which holds one bad page, after adding a good
        page ``b.html``: the bad page is rejected, with ``refused`` as its
        stderr line, and the good one written."""
        good = src / "b.html"
        good.write_text(page(LONG_PARA), encoding="utf-8")
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "pages=2 documents=1 rejected=1\n"
        assert captured.err == refused + "\n"
        written = sorted(out.iterdir())
        assert [p.name for p in written] == [f"{make_document(str(good), '', '').id}.corpus.txt"]
        assert written[0].stat().st_size > 0

    def test_file_name_that_is_not_utf8_is_one_rejected_page(self, tmp_path, capsys):
        """The name reads as a lone surrogate (``\\udcff``), which the
        document id's hash and the corpus file cannot encode."""
        src = tmp_path / "html"
        src.mkdir()
        name = os.fsdecode(b"\xff.html")
        if name != "\udcff.html":
            pytest.skip("file names are not decoded as UTF-8 with surrogate escapes")
        (src / name).write_text(page(LONG_PARA + " الاول"), encoding="utf-8")
        self._ingest_beside_a_good_page(
            src, tmp_path / "corpus", capsys,
            f"skipping {src}/\\udcff.html: URL holds a lone surrogate, which UTF-8 cannot encode")

    def test_title_with_a_lone_surrogate_is_one_rejected_page(self, tmp_path, capsys):
        """A page that is not UTF-8 and names a charset whose decoder turns
        ``\\ud800`` into a lone surrogate."""
        src = tmp_path / "html"
        src.mkdir()
        body = "the economy will grow next year " * 6
        (src / "a.html").write_bytes(
            b"<html><head><meta charset=raw_unicode_escape><title>\\ud800 title</title>"
            b"</head><body><!-- \xff --><p>" + body.encode("ascii") + b"</p></body></html>"
        )
        self._ingest_beside_a_good_page(
            src, tmp_path / "corpus", capsys,
            f"skipping {src / 'a.html'}: title holds a lone surrogate, which UTF-8 cannot encode")

    def test_rerun_into_the_same_out_replaces_every_file(self, html_dir, tmp_path):
        """A rerun into the same ``--out`` after one page's text got shorter
        and another's longer writes the files a fresh run writes: no tail of
        the longer old file is left behind."""
        def run(out):
            assert main(["ingest", "--input", str(html_dir), "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        first = run(tmp_path / "same")
        (html_dir / "a.html").write_text(page(LONG_PARA), encoding="utf-8")
        (html_dir / "b.html").write_text(page(LONG_PARA + " الثاني" * 40), encoding="utf-8")
        fresh = run(tmp_path / "fresh")
        assert first.keys() == fresh.keys()
        assert [len(first[name]) > len(fresh[name]) for name in sorted(first)] in (
            [True, False], [False, True])
        assert run(tmp_path / "same") == fresh


def test_cli_imports_neither_html_parser_nor_requests():
    # pages are read by the corpus module's own scan and fetched by urllib
    script = "import sys, arfuture.cli\nprint(sorted({'html.parser', 'requests'} & set(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.stdout == "[]\n", done.stderr


class TestAnalyze:
    def test_mini_gold_summary(self, mini_gold_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["analyze", "--corpus", str(mini_gold_dir), "--out", str(out),
             "--clock", "2026-01-01T00:00:00+00:00"]
        )
        assert code == 0
        assert "sentences=8 future=12" in capsys.readouterr().out
        assert (out / "annotations.jsonl").exists()
        assert (out / "reports" / "index.html").exists()

    def test_mini_gold_outputs_match_the_digest_table(self, mini_gold_dir, tmp_path):
        """Every file ``analyze`` writes on mini_gold, byte for byte: the
        table lists one ``<sha256>  <path>`` line per file, as sha256sum
        prints them."""
        out = tmp_path / "out"
        assert main(["analyze", "--corpus", str(mini_gold_dir), "--out", str(out),
                     "--clock", "2020-01-01T00:00"]) == 0
        got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
        lines = MINI_GOLD_DIGESTS.read_text(encoding="utf-8").splitlines()
        assert got == {name: digest for digest, name in (line.split("  ") for line in lines)}

    def test_reruns_are_byte_identical(self, mini_gold_dir, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            code = main(
                ["analyze", "--corpus", str(mini_gold_dir), "--out", str(out),
                 "--clock", "2026-01-01T00:00:00+00:00"]
            )
            assert code == 0
            blob = {
                p.name: p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
            outs.append(blob)
        assert outs[0] == outs[1]

    def test_rerun_into_the_same_out_replaces_every_file(self, mini_gold_dir, tmp_path):
        """A rerun into the same ``--out`` at another time rewrites every
        file: nothing of the first run is left behind."""
        def run(out, clock):
            argv = ["analyze", "--corpus", str(mini_gold_dir), "--out", str(out),
                    "--clock", clock]
            assert main(argv) == 0
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        first = run(tmp_path / "same", "2019-12-31T23:59")
        fresh = run(tmp_path / "fresh", "2020-01-01T00:00")
        assert first.keys() == fresh.keys() and first != fresh
        assert run(tmp_path / "same", "2020-01-01T00:00") == fresh

    def test_rerun_removes_the_report_pages_it_did_not_write(self, mini_gold_dir, tmp_path,
                                                              capsys):
        """A rerun on a corpus that lost a document removes that document's
        page, and no other file: not the index, nor a file of another name."""
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(mini_gold_dir, corpus_dir)
        out = tmp_path / "o"

        def run(out):
            return main(["analyze", "--corpus", str(corpus_dir), "--out", str(out),
                         "--clock", "2020-01-01T00:00"])

        assert run(out) == 0
        kept = ["notes.html", "0123456789AB.html", "0123456789ab.htm"]
        for name in kept:
            (out / "reports" / name).write_text("x", encoding="utf-8")
        gone = sorted(corpus_dir.glob("*.corpus.txt"))[0]
        gone.unlink()
        stale = out / "reports" / f"{gone.name[:12]}.html"
        assert stale.exists()
        capsys.readouterr()
        assert run(out) == 0
        assert capsys.readouterr().err == f"removing {stale}: not written by this run\n"
        fresh = tmp_path / "fresh"
        assert run(fresh) == 0
        names = sorted(p.name for p in (out / "reports").iterdir())
        assert names == sorted([*kept, *(p.name for p in (fresh / "reports").iterdir())])
        assert "index.html" in names

    def test_clock_with_offset_is_written_in_utc(self, mini_gold_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--corpus", str(mini_gold_dir), "--out", str(out),
                     "--clock", "2020-01-01T05:00:00+05:00"])
        assert code == 0
        reports = sorted((out / "reports").glob("*.html"))
        assert len(reports) > 1
        for report in reports:
            footer = re.search(r"<footer>generated (.*?)</footer>", report.read_text("utf-8"))
            assert footer.group(1) == "2020-01-01 00:00 UTC", report.name

    def test_bad_clock_names_the_flag(self, mini_gold_dir, tmp_path, capsys):
        code = main(["analyze", "--corpus", str(mini_gold_dir), "--out", str(tmp_path / "o"),
                     "--clock", "nonsense"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --clock: Invalid isoformat string: 'nonsense'\n"
        )

    def test_empty_corpus_docs(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        code = main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                     "--clock", "2026-01-01T00:00"])
        assert code == 0
        assert "sentences=0 future=0" in capsys.readouterr().out
        # the index, with no page to take it from, gives the run's time
        index = (tmp_path / "o" / "reports" / "index.html").read_text(encoding="utf-8")
        assert "<footer>generated 2026-01-01 00:00 UTC</footer>" in index

    def test_missing_corpus_dir_exits_2(self, tmp_path, capsys):
        code = main(["analyze", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "corpus directory not found" in capsys.readouterr().err

    def test_malformed_corpus_file_is_named(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.corpus.txt").write_text(
            "URL: http://x\nTITLE: t\n\nسوف يرتفع.\n", encoding="utf-8"
        )
        (corpus / "bad.corpus.txt").write_text("no header here\n", encoding="utf-8")
        code = main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.corpus.txt" in err and "malformed corpus file" in err

    def test_malformed_last_corpus_file_fails_before_any_output(self, tmp_path, capsys):
        """Every corpus file is read and checked before the first document is
        analyzed, so the file that sorts last still stops the run."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.corpus.txt").write_text(
            "URL: http://x\nTITLE: t\n\nسوف يرتفع.\n", encoding="utf-8"
        )
        (corpus / "zzz.corpus.txt").write_text("no header here\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main(["analyze", "--corpus", str(corpus), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "zzz.corpus.txt" in err and "malformed corpus file" in err
        assert not out.exists()

    def test_outputs_follow_document_id_order_not_file_order(self, engine, tmp_path):
        docs = [make_document(f"http://x/{i}", f"t{i}", f"سوف يرتفع {i}. قد يتحسن الوضع.")
                for i in range(4)]
        by_id = sorted(docs, key=lambda d: d.id)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for rank, doc in enumerate(reversed(by_id)):  # file names sort against the ids
            (corpus / f"{rank}.corpus.txt").write_text(compile_corpus_file(doc), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 0
        expected = [ann for doc in by_id for ann in engine.analyze(doc).annotations]
        assert len({ann.doc_id for ann in expected}) == len(docs)
        jsonl = (out / "annotations.jsonl").read_text(encoding="utf-8")
        assert jsonl == dump_annotations(expected)
        index = (out / "reports" / "index.html").read_text(encoding="utf-8")
        assert re.findall(r'<a href="([0-9a-f]+)\.html">', index) == [d.id for d in by_id]

    def test_future_counts_distinct_triples_across_documents(self, tmp_path, capsys):
        # 11 annotations: a rule firing twice in one sentence gives one
        # triple, and so does the same sentence in two documents twice
        bodies = [
            "سوف يرتفع الدين وسوف يتحسن النمو. قد يتحسن الوضع. لن يتغير شيء ولن يتراجع.",
            "سيرتفع الدين. قد يتحسن الوضع قد يتراجع النمو.",
            "الوضع مستقر اليوم.",
            "سوف يرتفع الدين وسوف يتحسن النمو. من المتوقع أن يتحسن الوضع.",
        ]
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, body in enumerate(bodies):
            doc = make_document(f"http://x/{i}", f"t{i}", body)
            (corpus / f"{i}.corpus.txt").write_text(compile_corpus_file(doc), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert "sentences=8 future=7" in capsys.readouterr().out
        assert len((out / "annotations.jsonl").read_text(encoding="utf-8").splitlines()) == 11

    def test_corpus_file_not_utf8_is_named(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        bad = corpus / "bad.corpus.txt"
        bad.write_bytes("URL: http://x\nTITLE: t\n\nسوف يرتفع.\n".encode("utf-8") + b"\xff\n")
        code = main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {bad}: line 5: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_directory_listing_reads_the_files_path_glob_picks(self, tmp_path, capsys):
        """The corpus files are those ``Path.glob("*.corpus.txt")`` gives, in
        sorted order: dot files too, names in no other case, and a
        directory of such a name, which fails as reading it fails."""
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for i, name in enumerate([".corpus.txt", ".h.corpus.txt", "b.corpus.txt", "A.corpus.txt",
                                  "a.CORPUS.TXT", "c.corpus.txt.bak", "corpus.txt", "e.corpustxt"]):
            doc = make_document(f"http://x/{i}", "t", "سوف يرتفع.")
            (corpus_dir / name).write_text(compile_corpus_file(doc), encoding="utf-8")
        read = []
        real = cli.parse_file

        def parse_file(path, parse):
            read.append(path)
            return real(path, parse)

        def analyze():
            read.clear()
            with mock.patch.object(cli, "parse_file", parse_file):
                return main(["analyze", "--corpus", str(corpus_dir), "--out", str(tmp_path / "o")])

        assert analyze() == 0
        assert read == sorted(corpus_dir.glob("*.corpus.txt"))
        assert [p.name for p in read] == [".corpus.txt", ".h.corpus.txt", "A.corpus.txt",
                                          "b.corpus.txt"]
        (corpus_dir / "d.corpus.txt").mkdir()
        capsys.readouterr()
        assert analyze() == 2
        assert read == sorted(corpus_dir.glob("*.corpus.txt"))
        with pytest.raises(OSError) as refused:
            (corpus_dir / "d.corpus.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().err == f"error: {refused.value}\n"

    @pytest.mark.parametrize("command", ["analyze", "eval"])
    def test_same_url_in_two_files_refused(self, mini_gold_dir, tmp_path, capsys, command):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a", "b"):
            (corpus / f"{name}.corpus.txt").write_text(
                f"URL: http://x\nTITLE: {name}\n\nسوف يرتفع.\n", encoding="utf-8"
            )
        argv = {
            "analyze": ["analyze", "--out", str(tmp_path / "o")],
            "eval": ["eval", "--gold", str(mini_gold_dir / "gold.tsv")],
        }[command]
        code = main([*argv, "--corpus", str(corpus)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {corpus / 'b.corpus.txt'}: same URL as {corpus / 'a.corpus.txt'}" in err
        assert not (tmp_path / "o").exists()

    def test_config_typo_exits_2(self, mini_gold_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("paralellism = 4\n", encoding="utf-8")
        code = main(
            ["analyze", "--corpus", str(mini_gold_dir), "--out", str(tmp_path / "o"),
             "--config", str(cfg)]
        )
        assert code == 2
        assert "run.cfg: line 1: unknown config key 'paralellism'" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, mini_gold_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--corpus", str(mini_gold_dir), "--out", str(tmp_path / "o"),
                  "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_boundaries_flag_changes_segmentation(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d.corpus.txt").write_text(
            "URL: http://x\nTITLE: t\n\nهل يرتفع النمو؟ سوف يرتفع.\n",
            encoding="utf-8",
        )
        main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "a")])
        default_out = capsys.readouterr().out
        assert "sentences=2" in default_out
        main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "b"),
              "--boundaries", "dot-space"])
        assert "sentences=1" in capsys.readouterr().out

    def test_strict_adjacency_flag_blocks_punct_gaps(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d.corpus.txt").write_text(
            'URL: http://x\nTITLE: t\n\nمن "المتوقع" حدوث ذلك.\n',
            encoding="utf-8",
        )
        main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "a")])
        assert "future=1" in capsys.readouterr().out
        main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "b"),
              "--strict-adjacency"])
        assert "future=0" in capsys.readouterr().out

    def test_show_all_negative_fields_flag(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text(
            "sawfa: سوف > -قبل@2 -> مستقبل\nlan: لن > -بعد@2 -> مستقبل\n", encoding="utf-8"
        )
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d.corpus.txt").write_text(
            "URL: http://x\nTITLE: t\n\n"
            "سوف يتحسن الوضع ثم سوف يجتمعون قبل المساء لكنه لن يتغير بعد ذلك\n",
            encoding="utf-8",
        )
        shaded = {}
        for flags in ((), ("--show-all-negative-fields",)):
            out = tmp_path / f"out{len(flags)}"
            code = main(["analyze", "--corpus", str(corpus), "--out", str(out),
                         "--rules", str(rules), *flags])
            assert code == 0
            [report] = [p for p in (out / "reports").iterdir() if p.name != "index.html"]
            shaded[bool(flags)] = re.findall(
                r'class="neg-field" title="negative marker: ([^"]*)"',
                report.read_text(encoding="utf-8"),
            )
        # only the annotating rule's field, unless the flag asks for all
        assert shaded == {False: ["قبل"], True: ["قبل", "بعد"]}

    def test_contextual_exploration_rules_shade_negative_fields(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d.corpus.txt").write_text(
            "URL: http://x\nTITLE: t\n\n"
            "لن يتغير الوضع الآن لكنه لن يدوم اذا استمر الضغط. ربما لن يتغير شيء. "
            "سوف يصل الوفد غدا. لن يتغير ما حدث امس.\n",
            encoding="utf-8",
        )
        shaded = {}
        for flags in ((), ("--show-all-negative-fields",)):
            out = tmp_path / f"out{len(flags)}"
            code = main(["analyze", "--corpus", str(corpus), "--out", str(out),
                         "--rules", str(CE_RULES), *flags])
            assert code == 0
            assert capsys.readouterr().out == "sentences=4 future=8\n"
            [report] = [p for p in (out / "reports").iterdir() if p.name != "index.html"]
            # a field is shaded piece by piece, between the marks in it
            shaded[bool(flags)] = list(dict.fromkeys(re.findall(
                r'class="neg-field" title="negative marker: ([^"]*)"',
                report.read_text(encoding="utf-8"),
            )))
        # lan_unconditional fires on the first لن and finds اذا after the
        # second; lan_stated finds ربما before لن, and lan_change finds امس
        # after لن يتغير, in sentences neither annotates
        assert shaded == {
            False: ["(اذا|إذا|لو)"], True: ["(اذا|إذا|لو)", "(ربما|هل)", "(امس|سابقا)"],
        }

    def test_bad_rules_file_exits_2(self, mini_gold_dir, tmp_path, capsys):
        bad = tmp_path / "rules.txt"
        bad.write_text("::مجهول -> مستقبل\n", encoding="utf-8")
        code = main(
            ["analyze", "--corpus", str(mini_gold_dir), "--out", str(tmp_path / "o"),
             "--rules", str(bad)]
        )
        assert code == 2
        assert f"error: {bad}: line 1: unresolved variable مجهول\n" in capsys.readouterr().err

    def test_bad_directive_value_exits_2(self, mini_gold_dir, tmp_path, capsys):
        bad = tmp_path / "rules.txt"
        bad.write_text("سوف -> مستقبل\nsin: س -> مستقبل [morph=sin]\n", encoding="utf-8")
        code = main(
            ["analyze", "--corpus", str(mini_gold_dir), "--out", str(tmp_path / "o"),
             "--rules", str(bad)]
        )
        assert code == 2
        assert f"error: {bad}: line 2: morph must be qad or siin, not 'sin'\n" in (
            capsys.readouterr().err
        )

    def test_config_file_paths_validated(self, mini_gold_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rules_path = /nonexistent/rules.txt\n", encoding="utf-8")
        code = main(
            ["analyze", "--corpus", str(mini_gold_dir), "--out", str(tmp_path / "o"),
             "--config", str(cfg)]
        )
        assert code == 2


class TestEval:
    def test_out_flag_is_gone(self, mini_gold_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--corpus", str(mini_gold_dir),
                  "--gold", str(mini_gold_dir / "gold.tsv"), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --out {tmp_path / 'o'}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mini_gold_end_to_end(self, mini_gold_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["eval", "--corpus", str(mini_gold_dir),
             "--gold", str(mini_gold_dir / "gold.tsv"),
             "--report", str(report_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Overall" in out
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(data) == {"per_class", "overall", "totals"}
        for cs in data["per_class"].values():
            if cs["tp"] + cs["fn"] > 0:
                assert cs["recall"] == "100.00"
        assert data["overall"]["recall"] == "100.00"
        assert data["totals"]["sentences"] == 8

    def test_unmatched_gold_row_lowers_recall(self, mini_gold_dir, tmp_path, capsys):
        gold = (mini_gold_dir / "gold.tsv").read_text(encoding="utf-8")
        extra = gold + "deadbeef0000\t0\tqad\n"
        gold_path = tmp_path / "gold.tsv"
        gold_path.write_text(extra, encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = main(
            ["eval", "--corpus", str(mini_gold_dir), "--gold", str(gold_path),
             "--report", str(report_path)]
        )
        assert code == 0
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["per_class"]["qad"]["recall"] == "50.00"

    def test_byte_order_mark_of_the_gold_file_is_dropped(self, tmp_path, capsys):
        # the mark once stuck to the first doc id, so its row never matched
        dump = tmp_path / "ann.jsonl"
        dump.write_text(dump_annotations([
            Annotation("d1", 0, "qad", "مستقبل", "qad", ((0, 4),)),
            Annotation("d1", 1, "sin", "مستقبل", "sin", ((0, 4),)),
        ]), encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_bytes("\ufeffd1\t0\tqad\nd1\t1\tsin\n".encode("utf-8"))
        assert main(["eval", "--annotations", str(dump), "--gold", str(gold)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^qad +100\.00 +100\.00$", out, re.M)
        assert re.search(r"^Overall +100\.00 +100\.00$", out, re.M)

    def test_annotations_input_mode(self, mini_gold_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--corpus", str(mini_gold_dir), "--out", str(out)]) == 0
        report_path = tmp_path / "report.json"
        code = main(
            ["eval", "--annotations", str(out / "annotations.jsonl"),
             "--gold", str(mini_gold_dir / "gold.tsv"), "--report", str(report_path)]
        )
        assert code == 0
        # an annotation dump does not say how many sentences were analyzed
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["totals"]["sentences"] is None

    def test_lone_carriage_return_in_a_dump_file_ends_a_line(self, mini_gold_dir, tmp_path):
        # a file's line ends are read as Path.read_text reads them; a text
        # given to load_annotations is split at "\n" only
        out = tmp_path / "out"
        assert main(["analyze", "--corpus", str(mini_gold_dir), "--out", str(out)]) == 0
        lines = (out / "annotations.jsonl").read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        second = next(line for line in lines
                      if json.loads(line)["class_label"] != first["class_label"])
        dump = tmp_path / "a.jsonl"
        dump.write_text(f"{lines[0]}\r{second}\n", encoding="utf-8", newline="")
        report_path = tmp_path / "report.json"
        code = main(["eval", "--annotations", str(dump),
                     "--gold", str(mini_gold_dir / "gold.tsv"), "--report", str(report_path)])
        assert code == 0
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert sum(cs["tp"] for cs in data["per_class"].values()) == 2
        with pytest.raises(ValueError, match="line 1: Extra data"):
            load_annotations(dump.read_bytes().decode("utf-8"))

    def test_gold_parse_error_exits_2(self, mini_gold_dir, tmp_path, capsys):
        bad = tmp_path / "gold.tsv"
        bad.write_text("d\t0\tnot-a-class\n", encoding="utf-8")
        code = main(["eval", "--corpus", str(mini_gold_dir), "--gold", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: line 1: unknown class label 'not-a-class'" in err

    def test_bad_config_integer_names_file_and_line(self, mini_gold_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# thresholds\nmin_run_chars = x\n", encoding="utf-8")
        code = main(["eval", "--config", str(cfg), "--corpus", str(mini_gold_dir),
                     "--gold", str(mini_gold_dir / "gold.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: line 2: bad integer for min_run_chars: 'x'" in err

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"doc_id": "x"}', "line 2: missing field 'sentence_index'"),
            ("{not json", "line 2: Expecting property name"),
            ("[1, 2]", "line 2: list indices must be integers"),
            (
                '{"doc_id": "x", "sentence_index": "0", "rule_id": "r", "category": "c", '
                '"class_label": "qad", "positive_marker_spans": [], "excerpt_span": null}',
                "line 2: doc_id and class_label must be strings, sentence_index an integer",
            ),
            (
                '{"doc_id": "x", "sentence_index": true, "rule_id": "r", "category": "c", '
                '"class_label": "qad", "positive_marker_spans": [], "excerpt_span": null}',
                "line 2: doc_id and class_label must be strings, sentence_index an integer",
            ),
            (
                '{"doc_id": "x", "sentence_index": 0, "rule_id": "r", "category": "c", '
                '"class_label": "qad", "positive_marker_spans": "ab", "excerpt_span": null}',
                "line 2: positive_marker_spans must be a list of spans, not 'ab'",
            ),
            (
                '{"doc_id": "x", "sentence_index": 0, "rule_id": "r", "category": "c", '
                '"class_label": "qad", "positive_marker_spans": [[0, 4, 8]], '
                '"excerpt_span": null}',
                "line 2: a span must be a list of two integers, not [0, 4, 8]",
            ),
            (
                '{"doc_id": "x", "sentence_index": 0, "rule_id": "r", "category": "c", '
                '"class_label": "qad", "positive_marker_spans": [[0, true]], '
                '"excerpt_span": null}',
                "line 2: a span must be a list of two integers, not [0, True]",
            ),
            (
                '{"doc_id": "x", "sentence_index": 0, "rule_id": "r", "category": "c", '
                '"class_label": "qad", "positive_marker_spans": [[0, 4]], '
                '"excerpt_span": "04"}',
                "line 2: a span must be a list of two integers, not '04'",
            ),
            (
                '{"doc_id": "x", "sentence_index": 0, "rule_id": "r", "category": "c", '
                '"class_label": "qad", "positive_marker_spans": [[0, 4]], '
                '"excerpt_span": [0, 4.5]}',
                "line 2: a span must be a list of two integers, not [0, 4.5]",
            ),
        ],
    )
    def test_bad_annotations_line_names_file_and_line(
        self, mini_gold_dir, tmp_path, capsys, record, message
    ):
        out = tmp_path / "out"
        assert main(["analyze", "--corpus", str(mini_gold_dir), "--out", str(out)]) == 0
        good = (out / "annotations.jsonl").read_text(encoding="utf-8").splitlines()[0]
        bad = tmp_path / "a.jsonl"
        bad.write_text(f"{good}\n{record}\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["eval", "--annotations", str(bad),
                     "--gold", str(mini_gold_dir / "gold.tsv")])
        assert code == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--annotations", "--gold"])
    def test_input_not_utf8_is_named(self, mini_gold_dir, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\n")
        good = str(mini_gold_dir / "gold.tsv")
        argv = ["eval", "--annotations", good, "--gold", good]
        argv[argv.index(flag) + 1] = str(bad)
        code = main(argv)
        assert code == 2
        assert f"error: {bad}: line 1: 'utf-8' codec can't decode byte 0xff in position 0" in (
            capsys.readouterr().err
        )

    def test_needs_some_input(self, mini_gold_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gold", str(mini_gold_dir / "gold.tsv")])
        assert exc.value.code == 2
        assert "one of the arguments --corpus --annotations is required" in (
            capsys.readouterr().err
        )

    def test_corpus_and_annotations_together_refused(self, mini_gold_dir, tmp_path, capsys):
        """Both inputs given is a usage error, not a silent choice of one."""
        out = tmp_path / "out"
        assert main(["analyze", "--corpus", str(mini_gold_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--corpus", str(mini_gold_dir),
                  "--annotations", str(out / "annotations.jsonl"),
                  "--gold", str(mini_gold_dir / "gold.tsv"), "--report", str(tmp_path / "r")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --annotations: not allowed with argument --corpus" in captured.err
        assert captured.out == "" and not (tmp_path / "r").exists()



#: one row per config key: the commands whose flag sets it, the flag's
#: words, and its config-file value ({a} and {b} are files, {d} a
#: directory); a second value, which the flag must beat, follows
SETTING_ROWS = [
    ("min_run_chars", ["ingest"], ["--min-run-chars", "80"], "80", "50"),
    ("boundaries", ["analyze"], ["--boundaries", "dot-space,newline"],
     "dot-space, newline", "exclam"),
    ("strict_adjacency", ["analyze"], ["--strict-adjacency"], "yes", "no"),
    ("show_all_negative_fields", ["analyze"], ["--show-all-negative-fields"], "true", "off"),
    ("rules_path", ["analyze", "eval"], ["--rules", "{a}"], "{a}", "{b}"),
    ("variables_path", ["analyze", "eval"], ["--variables", "{a}"], "{a}", "{b}"),
    ("semantic_map_path", ["analyze", "eval"], ["--semantic-map", "{a}"], "{a}", "{b}"),
    ("lexicon_dir", ["analyze", "eval"], ["--lexicon-dir", "{d}"], "{d}", "{d}/sub"),
]

#: the required flags of each command, which set no config key
COMMAND_ARGV = {
    "ingest": ["ingest", "--input", "pages"],
    "analyze": ["analyze", "--corpus", "corpus"],
    "eval": ["eval", "--corpus", "corpus", "--gold", "gold.tsv"],
}


def _config_of(argv: list[str]) -> Config:
    return _merge_config(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "key, commands, flag, value, other", SETTING_ROWS, ids=[row[0] for row in SETTING_ROWS]
)
def test_flag_and_config_line_set_the_same_field(tmp_path, key, commands, flag, value, other):
    """A flag alone gives the Config its config line alone gives, and a
    flag beats the file."""
    names = {"a": tmp_path / "a.txt", "b": tmp_path / "b.txt", "d": tmp_path / "d"}
    names["a"].write_text("", encoding="utf-8")
    names["b"].write_text("", encoding="utf-8")
    (names["d"] / "sub").mkdir(parents=True)
    flag = [word.format(**names) for word in flag]
    line_cfg, other_cfg = tmp_path / "line.cfg", tmp_path / "other.cfg"
    line_cfg.write_text(f"{key} = {value.format(**names)}\n", encoding="utf-8")
    other_cfg.write_text(f"{key} = {other.format(**names)}\n", encoding="utf-8")
    assert getattr(load_config(other_cfg), key) != getattr(load_config(line_cfg), key)
    for command in commands:
        argv = COMMAND_ARGV[command]
        from_flag = _config_of([*argv, *flag])
        assert from_flag != Config()
        assert from_flag == _config_of([*argv, "--config", str(line_cfg)])
        assert from_flag == _config_of([*argv, "--config", str(other_cfg), *flag])


def test_empty_boundaries_flag_keeps_the_default_triggers():
    cfg = _config_of([*COMMAND_ARGV["analyze"], "--boundaries", ""])
    assert cfg.boundaries == DEFAULT_BOUNDARIES


@pytest.mark.parametrize(
    "key, flag",
    [("rules_path", "--rules"), ("variables_path", "--variables"),
     ("semantic_map_path", "--semantic-map"), ("lexicon_dir", "--lexicon-dir")],
)
def test_empty_path_line_names_file_and_line(mini_gold_dir, tmp_path, capsys, key, flag):
    """``key =`` is refused, not read as the working directory; an empty
    flag still counts as not given."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# paths\n{key} =\n", encoding="utf-8")
    code = main(["analyze", "--corpus", str(mini_gold_dir), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 2: empty path for {key}\n"
    assert not (tmp_path / "o").exists()
    assert getattr(_config_of([*COMMAND_ARGV["analyze"], flag, ""]), key) is None


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ingest", "--input", "{pages}", "--min-run-chars", "0"],
         "min_run_chars must be >= 1"),
        (["analyze", "--corpus", "{corpus}", "--boundaries", "dot-space,bogus"],
         "unknown boundary trigger(s): bogus"),
    ],
    ids=["min-run-chars-0", "bad-boundaries"],
)
def test_bad_flag_value_exits_2(html_dir, mini_gold_dir, tmp_path, capsys, argv, message):
    argv = [word.format(pages=html_dir, corpus=mini_gold_dir) for word in argv]
    code = main([*argv, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


#: one row per kind of input file: its name, the command that reads it
#: ({file} is the file, {dir} its directory), a good first line, and a
#: malformed second line with the message it gives (None where the format
#: has no malformed line)
INPUT_KINDS = [
    ("config", "run.cfg", "analyze --corpus {mini} --config {file}",
     "min_run_chars = 80", ("min_run_chars", "expected key = value")),
    ("rules", "rules.txt", "analyze --corpus {mini} --rules {file}",
     "سوف -> مستقبل", ("لن مستقبل", "missing category arrow")),
    ("variables", "vars.txt", "analyze --corpus {mini} --variables {file}",
     "::a = ا", ("::b ب", "bad variable definition: '::b ب'")),
    ("semantic-map", "map.txt", "analyze --corpus {mini} --semantic-map {file}",
     "مستقبل", ("   فرعي", "inconsistent indentation")),
    ("lexicon", "proper_nouns.txt", "analyze --corpus {mini} --lexicon-dir {dir}",
     "سيدني", None),
    ("corpus", "d.corpus.txt", "analyze --corpus {dir}", "URL: http://x", None),
    ("gold", "gold.tsv", "eval --corpus {mini} --gold {file}",
     "d\t0\tqad", ("d\t0", "expected 3 tab-separated fields")),
    ("annotations", "a.jsonl", "eval --gold {gold} --annotations {file}",
     annotation_to_json(Annotation("d", 0, "qad", "مستقبل", "qad", ((0, 4),), None)),
     ("{not json", "Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)")),
    ("url-list", "urls.txt", "ingest --input {file}", "# pages", None),
]


@pytest.mark.parametrize(
    "name, command, line1, line2, message",
    [
        pytest.param(name, command, line1, b"\xff",
                     "'utf-8' codec can't decode byte 0xff in position "
                     f"{len(line1.encode()) + 1}: invalid start byte",
                     id=f"{kind}-not-utf8")
        for kind, name, command, line1, _ in INPUT_KINDS
    ] + [
        pytest.param(name, command, line1, malformed[0].encode(), malformed[1],
                     id=f"{kind}-malformed")
        for kind, name, command, line1, malformed in INPUT_KINDS
        if malformed
    ],
)
def test_bad_input_names_file_and_line(
    mini_gold_dir, tmp_path, capsys, name, command, line1, line2, message
):
    """Every input file, bad on line 2, fails as ``<path>: line 2: <what>``."""
    folder = tmp_path / "in"
    folder.mkdir()
    path = folder / name
    path.write_bytes(line1.encode() + b"\n" + line2 + b"\n")
    values = {"mini": mini_gold_dir, "gold": mini_gold_dir / "gold.tsv",
              "file": path, "dir": folder}
    argv = [word.format(**values) for word in command.split(" ")]
    if argv[0] != "eval":  # eval writes no output directory and has no --out
        argv += ["--out", str(tmp_path / "out")]
    code = main(argv)
    assert code == 2
    assert f"error: {path}: line 2: {message}\n" in capsys.readouterr().err


#: the characters besides "\n" and "\r" at which str.splitlines breaks a
#: line ("\r" ends a CRLF line, and every reader strips it)
SPLITLINES_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

#: a reader of lines with "#" comments, a bad line 2 and the message it gives
LINE_2_FAULTS = [
    ("config", parse_config, "min_run_chars = x", "bad integer for min_run_chars: 'x'"),
    ("rules", lambda text: parse_rules(text, {}, parse_semantic_map("مستقبل")),
     "r: لن -> مستقبل [morph=sin]", "morph must be qad or siin, not 'sin'"),
    ("variables", parse_variable_defs, "::b ب", "bad variable definition: '::b ب'"),
    ("semantic-map", parse_semantic_map, "   فرعي", "inconsistent indentation"),
    ("gold", load_gold, "d\t0\tfoo", "unknown class label 'foo'"),
]


@pytest.mark.parametrize("char", SPLITLINES_BREAKS, ids=ascii)
@pytest.mark.parametrize(
    "parse, line2, message",
    [pytest.param(*row[1:], id=row[0]) for row in LINE_2_FAULTS],
)
def test_comment_keeps_other_line_breaks(char, parse, line2, message):
    """Lines split at "\n" only: a comment holding another line break
    stays one line, and line 2 fails with its own message."""
    with pytest.raises(ValueError, match=f"^line 2: {re.escape(message)}$"):
        parse(f"# c{char}x\n{line2}\n")


@pytest.mark.parametrize("char", SPLITLINES_BREAKS, ids=ascii)
@pytest.mark.parametrize(
    "parse, line2, parsed",
    [
        pytest.param(_word_list, "سيدني", {"سيدني"}, id="lexicon"),
        pytest.param(_url_list, "page.html", ["page.html"], id="url-list"),
    ],
)
def test_comment_of_an_item_list_keeps_other_line_breaks(char, parse, line2, parsed):
    assert parse(f"# c{char}x\n{line2}\n") == parsed
