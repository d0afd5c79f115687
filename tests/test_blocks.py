"""Gold files and annotation dumps read a block of lines at a time.

``resources.parse_blocks`` hands ``load_gold`` and ``load_annotations``
the text of a file in blocks of whole lines.  With the block size cut to
a few characters, every record, row and ``"\\r\\n"`` falls across block
edges, and the readers must still give the triples, gold rows and errors
(type, line and message) that the reference readers of ``codec_ref`` give
on the text ``parse_file`` reads whole.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import codec_ref
from arfuture import resources
from arfuture.engine import Annotation, annotation_to_json, load_annotations
from arfuture.evaluate import CLASS_LABELS, load_gold
from arfuture.resources import parse_blocks, parse_file

_FIXTURE = [HealthCheck.function_scoped_fixture]
BLOCK_SIZES = [1, 2, 3, 5, 8, 13]


def _triples(records):
    return {(r.doc_id, r.sentence_index, r.class_label) for r in records}


def _outcome(read):
    """What ``read()`` gives, or the type and message of its error."""
    try:
        return read()
    except ValueError as exc:
        return type(exc), str(exc)


def _dump_both(path, block):
    """The block reader's outcome on a dump, and the reference's on the
    text read whole."""
    with mock.patch.object(resources, "_LINES_BLOCK", block):
        got = _outcome(lambda: parse_blocks(path, load_annotations))
    want = _outcome(lambda: _triples(parse_file(path, codec_ref.load_annotations)))
    return got, want


def _gold_both(path, block):
    with mock.patch.object(resources, "_LINES_BLOCK", block):
        got = _outcome(lambda: parse_blocks(path, load_gold))
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
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=300, deadline=None, suppress_health_check=_FIXTURE)
@given(st.text(st.sampled_from("ab\n\r ")), st.integers(1, 8))
def test_blocks_are_the_text_cut_after_line_ends(tmp_path, text, block):
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(resources, "_LINES_BLOCK", block):
        blocks = parse_blocks(path, list)
    assert "".join(blocks) == parse_file(path, str)
    assert all(blocks)
    for b in blocks[:-1]:
        assert b.endswith("\n") and "\n" not in b[block:-1]


@settings(max_examples=200, deadline=None, suppress_health_check=_FIXTURE)
@given(st.lists(st.tuples(_LINE, _ENDS).map("".join), max_size=12), st.booleans(),
       st.sampled_from(BLOCK_SIZES))
def test_dump_split_across_blocks_reads_like_reference(tmp_path, lines, last_end, block):
    text = "".join(lines)
    if not last_end:
        text = text.rstrip("\r\n")
    path = tmp_path / "a.jsonl"
    path.write_bytes(text.encode("utf-8"))
    got, want = _dump_both(path, block)
    assert got == want


@settings(max_examples=200, deadline=None, suppress_health_check=_FIXTURE)
@given(st.lists(st.tuples(_ROW, _ENDS).map("".join), max_size=12), st.booleans(),
       st.sampled_from(BLOCK_SIZES))
def test_gold_split_across_blocks_reads_like_reference(tmp_path, rows, last_end, block):
    text = "".join(rows)
    if not last_end:
        text = text.rstrip("\r\n")
    path = tmp_path / "gold.tsv"
    path.write_bytes(text.encode("utf-8"))
    got, want = _gold_both(path, block)
    assert got == want


def test_carriage_return_at_every_block_edge(tmp_path):
    dump = tmp_path / "a.jsonl"
    dump.write_bytes("".join(_record(i) + "\r\n" for i in range(4)).encode("utf-8"))
    gold = tmp_path / "gold.tsv"
    gold.write_bytes("".join(f"d\t{i}\tqad\r\n" for i in range(4)).encode("utf-8"))
    for block in range(1, 120):  # a block of every size ends at some "\r"
        got, want = _dump_both(dump, block)
        assert got == want and len(got) == 4
        got, want = _gold_both(gold, block)
        assert got == want and len(got) == 4


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_bad_record_several_blocks_in(tmp_path, block):
    lines = [_record(i) for i in range(30)]
    lines[7] = " " + lines[7]
    lines[20] = ""
    lines[21] = _record(21).replace('"sentence_index": 21', '"sentence_index": "21"')
    path = tmp_path / "a.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got, want = _dump_both(path, block)
    assert got == want and got[1].startswith(f"{path}: line 22: ")


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_bad_gold_row_several_blocks_in(tmp_path, block):
    rows = [f"d\t{i}\tqad" for i in range(30)]
    rows[20] = ""
    rows[21] = "d\t21\tfuture"
    path = tmp_path / "gold.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    got, want = _gold_both(path, block)
    assert got == want and got[1] == f"{path}: line 22: unknown class label 'future'"


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("bad_row", [None, 3])
def test_non_utf8_byte_in_a_later_block(tmp_path, block, bad_row):
    """The byte is named as ``parse_file`` names it, even after a bad line
    in an earlier block: the whole text decodes before it is parsed."""
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
        with mock.patch.object(resources, "_LINES_BLOCK", block):
            got = _outcome(lambda: parse_blocks(path, load))
        assert got == _outcome(lambda: parse_file(path, str))
        assert got[1].startswith(f"{path}: line 16: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("text", ["", " \n\t\n\n", "\r\n \r\n", "\n\n\n"])
def test_empty_and_whitespace_only_files(tmp_path, block, text):
    dump, gold = tmp_path / "a.jsonl", tmp_path / "gold.tsv"
    dump.write_bytes(text.encode())
    gold.write_bytes(text.encode())
    assert _dump_both(dump, block) == (set(), set())
    assert _gold_both(gold, block) == ([], [])


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_last_line_without_a_line_end(tmp_path, block):
    dump, gold = tmp_path / "a.jsonl", tmp_path / "gold.tsv"
    dump.write_text("\n \n".join(_record(i) for i in range(3)), encoding="utf-8")
    gold.write_text("d\t0\tqad\n\nd\t1\tsin", encoding="utf-8")
    got, want = _dump_both(dump, block)
    assert got == want and len(got) == 3
    got, want = _gold_both(gold, block)
    assert got == want and len(got) == 2
