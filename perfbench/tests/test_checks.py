"""Every output check passes on real outputs and fails on corrupted ones."""

from __future__ import annotations

import json
import shutil

import pytest

import checks
from checks import CheckLog, check_analyze, check_eval, check_ingest, read_annotations
from workloads import doc_id_for_url


def _copy_outputs(run, tmp_path):
    inputs, work, measured = run
    out = tmp_path / "out"
    shutil.copytree(work / "out", out)
    return inputs, out, measured["ingest_stdout"]


def _ingest_failures(inputs, out, summary):
    log = CheckLog()
    check_ingest(log, inputs, out / "ingested", summary)
    return log.failures


def _analyze_failures(inputs, out, engine):
    log = CheckLog()
    records = read_annotations(out / "analyzed" / "annotations.jsonl")
    check_analyze(log, inputs, out / "analyzed", records, engine.ruleset, engine.lexicons)
    return log.failures


def _eval_failures(inputs, out):
    log = CheckLog()
    records = read_annotations(out / "analyzed" / "annotations.jsonl")
    check_eval(log, inputs, records, out / "eval.json")
    return log.failures


def test_real_outputs_pass_the_analyze_and_eval_checks(html_run, engine, tmp_path):
    inputs, out, _ = _copy_outputs(html_run, tmp_path)
    assert _analyze_failures(inputs, out, engine) == []
    assert _eval_failures(inputs, out) == []


def test_real_outputs_pass_the_ingest_check(html_run, tmp_path):
    inputs, out, summary = _copy_outputs(html_run, tmp_path)
    assert _ingest_failures(inputs, out, summary) == []


@pytest.mark.xfail(strict=True,
                   reason="extract_main_article ends a text run at every haraka "
                   "(_is_run_char in src/arfuture/corpus.py), so pages that keep "
                   "their harakat lose text")
def test_pages_that_keep_their_harakat_pass_the_ingest_check(harakat_run, tmp_path):
    inputs, out, summary = _copy_outputs(harakat_run, tmp_path)
    assert _ingest_failures(inputs, out, summary) == []


def test_ingest_check_fails_only_pages_that_keep_their_harakat(harakat_run, tmp_path):
    inputs, out, summary = _copy_outputs(harakat_run, tmp_path)
    prefix = "ingest output for "
    pages = {f[len(prefix):] for f in _ingest_failures(inputs, out, summary)
             if f.startswith(prefix)}
    assert pages <= inputs.diacritized


def test_ingest_check_catches_a_changed_body(html_run, tmp_path):
    inputs, out, summary = _copy_outputs(html_run, tmp_path)
    path = sorted((out / "ingested").iterdir())[0]
    path.write_text(path.read_text(encoding="utf-8").replace(" ", "  ", 1), encoding="utf-8")
    assert _ingest_failures(inputs, out, summary)


def test_ingest_check_catches_a_missing_and_an_extra_file(html_run, tmp_path):
    inputs, out, summary = _copy_outputs(html_run, tmp_path)
    dropped = next(p for p, name in inputs.page_outcomes.items() if name is None)
    victim = sorted((out / "ingested").iterdir())[0]
    victim.rename(out / "ingested" / f"{doc_id_for_url(dropped)}.corpus.txt")
    assert len(_ingest_failures(inputs, out, summary)) >= 3


def test_ingest_check_catches_wrong_counts(html_run, tmp_path):
    inputs, out, summary = _copy_outputs(html_run, tmp_path)
    assert _ingest_failures(inputs, out, summary.replace("rejected=", "rejected=1"))


def test_analyze_check_catches_shifted_marker_spans(html_run, engine, tmp_path):
    inputs, out, _ = _copy_outputs(html_run, tmp_path)
    path = out / "analyzed" / "annotations.jsonl"
    records = read_annotations(path)
    for r in records:
        r["positive_marker_spans"] = [[a + 1, b + 1] for a, b in r["positive_marker_spans"]]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert _analyze_failures(inputs, out, engine)


def test_analyze_check_catches_a_missing_report(html_run, engine, tmp_path):
    inputs, out, _ = _copy_outputs(html_run, tmp_path)
    (out / "analyzed" / "reports" / f"{inputs.articles[0].doc_id}.html").unlink()
    assert _analyze_failures(inputs, out, engine)


def test_analyze_check_catches_an_annotation_past_the_last_sentence(html_run, engine, tmp_path):
    inputs, out, _ = _copy_outputs(html_run, tmp_path)
    path = out / "analyzed" / "annotations.jsonl"
    records = read_annotations(path)
    records[0]["sentence_index"] = 10_000
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert _analyze_failures(inputs, out, engine)


@pytest.mark.parametrize("field", ["tp", "fp", "fn"])
def test_eval_check_catches_wrong_counts(html_run, tmp_path, field):
    inputs, out, _ = _copy_outputs(html_run, tmp_path)
    report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    report["per_class"]["sin"][field] += 1
    (out / "eval.json").write_text(json.dumps(report), encoding="utf-8")
    assert _eval_failures(inputs, out)


def test_eval_check_catches_a_missing_report(html_run, tmp_path):
    inputs, out, _ = _copy_outputs(html_run, tmp_path)
    (out / "eval.json").unlink()
    assert _eval_failures(inputs, out)


def test_news_dense_annotations_equal_the_oracle_on_every_sentence(
    dense_run, engine, tmp_path, monkeypatch
):
    """The full oracle pass; a run checks only a seeded sample."""
    inputs, out, _ = _copy_outputs(dense_run, tmp_path)
    monkeypatch.setattr(checks, "ORACLE_SAMPLE", 10**9)
    log = CheckLog()
    records = read_annotations(out / "analyzed" / "annotations.jsonl")
    check_analyze(log, inputs, out / "analyzed", records, engine.ruleset, engine.lexicons)
    assert log.failures == []
    assert log.attempted >= 5000
