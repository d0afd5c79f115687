from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

from workloads import DIACRITIZED_SHARE, build  # noqa: E402
from worker import untraced_pass  # noqa: E402


def _run_pass(tmp_path_factory, workload: str, seed: int, diacritized_share: float = 0.0):
    work = tmp_path_factory.mktemp(workload)
    inputs = build(workload, seed, diacritized_share)
    inputs.write(work)
    previous = Path.cwd()
    os.chdir(work)
    try:
        measured = untraced_pass(Path("out"), {"ingest": 1, "analyze": 1, "eval": 1})
    finally:
        os.chdir(previous)
    return inputs, work, measured


@pytest.fixture(scope="session")
def html_run(tmp_path_factory):
    """ingest-html inputs and the outputs of one untraced pass over them."""
    return _run_pass(tmp_path_factory, "ingest-html", 7)


@pytest.fixture(scope="session")
def harakat_run(tmp_path_factory):
    """As ``html_run``, but a share of the pages keep their harakat."""
    return _run_pass(tmp_path_factory, "ingest-html", 7, DIACRITIZED_SHARE)


@pytest.fixture(scope="session")
def dense_run(tmp_path_factory):
    return _run_pass(tmp_path_factory, "news-dense", 88)


@pytest.fixture(scope="session")
def engine():
    from arfuture.resources import load_engine

    return load_engine()
