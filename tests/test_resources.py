"""``resources.write_file``: every whole output file is written through it.

It rewrites an existing file in place and cuts it to the new length only
when the old one was longer, so it never truncates a file to zero (ext4
flushes such a file when it is closed).  What it leaves must still be
exactly the new text, as ``Path.write_text`` would leave it.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from arfuture import resources
from arfuture.resources import write_file

_TEXTS = ["", "a", "b", "سوف يتحسن\n", "line one\nline two\n" * 50, "x\r\ny\n"]


@pytest.mark.parametrize("old", _TEXTS)
@pytest.mark.parametrize("new", _TEXTS)
def test_rewrite_leaves_exactly_the_new_text(tmp_path, old, new):
    path = tmp_path / "out.txt"
    write_file(path, old)
    assert path.read_bytes() == old.encode("utf-8")
    write_file(path, new)
    assert path.read_bytes() == new.encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(old=st.text(st.characters(blacklist_categories=("Cs",))),
       new=st.text(st.characters(blacklist_categories=("Cs",))))
def test_rewrite_of_any_text(tmp_path_factory, old, new):
    """Shrinking, growing or keeping the length in bytes: no byte of the
    old text is left after the new one, and no line end is translated."""
    path = tmp_path_factory.mktemp("w") / "out.txt"
    path.write_bytes(old.encode("utf-8"))
    write_file(path, new)
    assert path.read_bytes() == new.encode("utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002])
def test_new_file_gets_the_mode_open_w_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "reference.txt", "w", encoding="utf-8"):
            pass
        write_file(tmp_path / "new.txt", "text\n")
    finally:
        os.umask(previous)
    assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "reference.txt").stat().st_mode


def test_rewrite_keeps_the_inode_and_the_mode(tmp_path):
    path = tmp_path / "out.txt"
    write_file(path, "old text, longer than the new one\n")
    path.chmod(0o640)
    before = path.stat()
    write_file(path, "new\n")
    after = path.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


def test_text_that_cannot_be_encoded_leaves_the_old_file(tmp_path):
    """``Path.write_text`` opens (and so empties) the file before it meets
    the lone surrogate; the writer encodes first and names the file."""
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError, match=r"out\.txt: 'utf-8' codec can't encode"):
        write_file(path, "title \ud800\n")
    assert path.read_bytes() == b"old\n"
    missing = tmp_path / "missing.txt"
    with pytest.raises(ValueError):
        write_file(missing, "\udcff")
    assert not missing.exists()


@pytest.mark.parametrize("existing", [False, True])
def test_never_opens_with_o_trunc(tmp_path, monkeypatch, existing):
    path = tmp_path / "out.txt"
    if existing:
        path.write_bytes(b"a longer old text\n")
    calls = []

    def recording_open(file, flags, *args, **kwargs):
        calls.append(flags)
        return real_open(file, flags, *args, **kwargs)

    real_open = os.open
    monkeypatch.setattr(resources.os, "open", recording_open)
    write_file(path, "new\n")
    assert calls and all(flags & os.O_TRUNC == 0 for flags in calls)
    assert all(flags & os.O_CREAT for flags in calls)
    assert path.read_bytes() == b"new\n"
