"""Gold files and annotation dumps read a line at a time.

``resources.parse_lines`` hands ``load_gold`` and ``load_annotations`` a
file opened in text mode, whose lines end at "\\n", "\\r\\n" or a lone
"\\r".  The readers also take the text ``parse_file`` reads whole.  Given
either, they must give the triples, gold rows and errors (type, line and
message) that the reference readers of ``codec_ref`` give on that text.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import codec_ref
from arfuture.engine import Annotation, annotation_to_json, load_annotations
from arfuture.evaluate import CLASS_LABELS, load_gold
from arfuture.resources import parse_file, parse_lines

_FIXTURE = [HealthCheck.function_scoped_fixture]


def _triples(records):
    return {(r.doc_id, r.sentence_index, r.class_label) for r in records}


def _outcome(call):
    """What ``call()`` gives, or the type and message of its error."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.fixture(params=[parse_lines, parse_file], ids=["lines", "text"])
def read(request):
    """How a reader gets the file: its lines, or its text read whole."""
    return request.param


def _dump_both(path, read):
    """The reader's outcome on a dump, and the reference's on the text
    read whole."""
    got = _outcome(lambda: read(path, load_annotations))
    want = _outcome(lambda: _triples(parse_file(path, codec_ref.load_annotations)))
    return got, want


def _gold_both(path, read):
    got = _outcome(lambda: read(path, load_gold))
    return got, _outcome(lambda: parse_file(path, codec_ref.load_gold))


def _record(i: int, label: str = "sin", doc: str = "مقال") -> str:
    return annotation_to_json(Annotation(f"{doc}{i}", i, "r", "مستقبل", label, ((0, 4),), None))


_LINE = st.one_of(
    st.builds(_record, st.integers(0, 30), st.sampled_from(CLASS_LABELS)),
    st.builds(lambda i: " " + _record(i), st.integers(0, 30)),  # off the pattern
    st.text(" \t\xa0", max_size=2),  # blank
)
_ROW = st.one_of(
    st.builds("{}\t{}\t{}".format, st.sampled_from(["d", "مقال"]), st.integers(0, 30),
              st.sampled_from(CLASS_LABELS)),
    st.sampled_from(["", " \t", "# note", "d\t1\tsin # c"]),
)
NEWLINES = ["\n", "\r\n", "\r"]
_ENDS = st.sampled_from(NEWLINES)


@settings(max_examples=300, deadline=None, suppress_health_check=_FIXTURE)
@given(st.text(st.sampled_from("ab\n\r \u2028")))
def test_lines_are_the_text_cut_after_line_ends(tmp_path, text):
    """U+2028, which ``str.splitlines`` would cut at, stays inside its line."""
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    lines = parse_lines(path, list)
    assert "".join(lines) == parse_file(path, str)
    assert all(lines)
    assert all(line.endswith("\n") for line in lines[:-1])
    assert all("\n" not in line[:-1] for line in lines)


@settings(max_examples=200, deadline=None, suppress_health_check=_FIXTURE)
@given(st.lists(st.tuples(_LINE, _ENDS).map("".join), max_size=12), st.booleans())
def test_dump_reads_like_reference(tmp_path, read, lines, last_end):
    text = "".join(lines)
    if not last_end:
        text = text.rstrip("\r\n")
    path = tmp_path / "a.jsonl"
    path.write_bytes(text.encode("utf-8"))
    got, want = _dump_both(path, read)
    assert got == want


@settings(max_examples=200, deadline=None, suppress_health_check=_FIXTURE)
@given(st.lists(st.tuples(_ROW, _ENDS).map("".join), max_size=12), st.booleans())
def test_gold_reads_like_reference(tmp_path, read, rows, last_end):
    text = "".join(rows)
    if not last_end:
        text = text.rstrip("\r\n")
    path = tmp_path / "gold.tsv"
    path.write_bytes(text.encode("utf-8"))
    got, want = _gold_both(path, read)
    assert got == want


@pytest.mark.parametrize("newline", NEWLINES[1:])
def test_carriage_returns_end_lines(tmp_path, read, newline):
    dump = tmp_path / "a.jsonl"
    dump.write_bytes("".join(_record(i) + newline for i in range(4)).encode("utf-8"))
    gold = tmp_path / "gold.tsv"
    gold.write_bytes("".join(f"d\t{i}\tqad{newline}" for i in range(4)).encode("utf-8"))
    got, want = _dump_both(dump, read)
    assert got == want and len(got) == 4
    got, want = _gold_both(gold, read)
    assert got == want and len(got) == 4


@pytest.mark.parametrize("newline", NEWLINES)
def test_bad_record_many_lines_in(tmp_path, read, newline):
    lines = [_record(i) for i in range(30)]
    lines[7] = " " + lines[7]
    lines[20] = ""
    lines[21] = _record(21).replace('"sentence_index": 21', '"sentence_index": "21"')
    path = tmp_path / "a.jsonl"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    got, want = _dump_both(path, read)
    assert got == want and got[1].startswith(f"{path}: line 22: ")


@pytest.mark.parametrize("newline", NEWLINES)
@pytest.mark.parametrize("cut", [1, 12, -1])
def test_cut_record_fails_as_reference(tmp_path, read, newline, cut):
    """The decoder's message names a column of the line as if it had no
    line end."""
    lines = [_record(i) for i in range(5)]
    lines[3] = lines[3][:cut]
    path = tmp_path / "a.jsonl"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    got, want = _dump_both(path, read)
    assert got == want and got[1].startswith(f"{path}: line 4: ")
    assert ": line 1 column " in got[1]


@pytest.mark.parametrize("newline", NEWLINES)
def test_bad_gold_row_many_lines_in(tmp_path, read, newline):
    rows = [f"d\t{i}\tqad" for i in range(30)]
    rows[20] = ""
    rows[21] = "d\t21\tfuture"
    path = tmp_path / "gold.tsv"
    path.write_bytes((newline.join(rows) + newline).encode("utf-8"))
    got, want = _gold_both(path, read)
    assert got == want and got[1] == f"{path}: line 22: unknown class label 'future'"


@pytest.mark.parametrize("bad_row", [None, 3])
def test_non_utf8_byte_on_a_later_line(tmp_path, read, bad_row):
    """The byte is named as ``parse_file`` names it, even after an earlier
    bad line: the whole text decodes before it is parsed."""
    lines = [_record(i).encode("utf-8") for i in range(20)]
    rows = [f"d\t{i}\tqad".encode() for i in range(20)]
    if bad_row is not None:
        lines[bad_row] = b"{not json"
        rows[bad_row] = b"d\tx\tqad"
    lines[15] = lines[15].replace(b"r", b"\xff", 1)
    rows[15] = rows[15] + b"\xff"
    for name, load, data in [("a.jsonl", load_annotations, lines),
                             ("gold.tsv", load_gold, rows)]:
        path = tmp_path / name
        path.write_bytes(b"\n".join(data) + b"\n")
        got = _outcome(lambda: read(path, load))
        assert got == _outcome(lambda: parse_file(path, str))
        assert got[1].startswith(f"{path}: line 16: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("data", [
    b"d\t0\tqad\rd\t1\tqad\rd\t2\tqad\xff\r",
    b"d\t0\tqad\r\nd\t1\tqad\nd\t2\tqad\xff\r\n",
    b"d\t0\tqad\r\r\nd\t2\tqad\xff\n",
], ids=["cr", "crlf-lf", "cr-crlf"])
def test_non_utf8_byte_after_each_kind_of_line_end(tmp_path, read, data):
    """"\\r\\n", a lone "\\r" and "\\n" each end one line before the byte."""
    path = tmp_path / "gold.tsv"
    path.write_bytes(data)
    got = _outcome(lambda: read(path, load_gold))
    assert got[1].startswith(f"{path}: line 3: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("text", ["", " \n\t\n\n", "\r\n \r\n", "\n\n\n", "\r \r"])
def test_empty_and_whitespace_only_files(tmp_path, read, text):
    dump, gold = tmp_path / "a.jsonl", tmp_path / "gold.tsv"
    dump.write_bytes(text.encode())
    gold.write_bytes(text.encode())
    assert _dump_both(dump, read) == (set(), set())
    assert _gold_both(gold, read) == ([], [])


@pytest.mark.parametrize("newline", NEWLINES)
def test_last_line_without_a_line_end(tmp_path, read, newline):
    dump, gold = tmp_path / "a.jsonl", tmp_path / "gold.tsv"
    dump.write_bytes(f"{newline} {newline}".join(_record(i) for i in range(3)).encode("utf-8"))
    gold.write_bytes(f"d\t0\tqad{newline}{newline}d\t1\tsin".encode("utf-8"))
    got, want = _dump_both(dump, read)
    assert got == want and len(got) == 3
    got, want = _gold_both(gold, read)
    assert got == want and len(got) == 2
