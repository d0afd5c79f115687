from __future__ import annotations

import json
import random

import pytest

import run
from workloads import DIACRITIZED_SHARE, WORKLOADS, build

from conftest import ROOT


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    assert build(workload, 5).files == build(workload, 5).files


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_other_seed_gives_other_inputs(workload):
    first, second = build(workload, 5).files, build(workload, 6).files
    assert first["gold.tsv"] != second["gold.tsv"]
    assert {n: b for n, b in first.items() if n.startswith("pages/")} != {
        n: b for n, b in second.items() if n.startswith("pages/")
    }


def test_news_dense_at_seed_88_is_the_criterion_8_corpus():
    from oracle import generate_sentence

    rng = random.Random(88)
    bodies = [". ".join(generate_sentence(rng) for _ in range(25)) + "." for _ in range(200)]
    assert [a.body for a in build("news-dense", 88).articles] == bodies


def test_ingest_html_has_every_page_kind():
    inputs = build("ingest-html", 5)
    assert inputs.pages == 400
    assert inputs.boilerplate > 0 and inputs.duplicates > 0
    assert not inputs.diacritized
    assert 0 < len(build("ingest-html", 5, DIACRITIZED_SHARE).diacritized) < inputs.pages
    assert any(b"windows-1256" in b for n, b in inputs.files.items() if n.startswith("pages/"))
    assert len(inputs.expected_ingest) == 400 - inputs.boilerplate - inputs.duplicates


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
