from __future__ import annotations

import os
from pathlib import Path

from checks import digest
from run import OUTPUTS, PER_LAYER, stage_overheads
from tracing import Tracer, self_times, span_totals
from worker import instrumented, run_passes, stage_trees, traced_pass
from workloads import build


def test_self_times_of_a_nested_trace_sum_to_its_root():
    spans = [
        [0, None, "cli.analyze", 0, 100],
        [1, 0, "corpus.read", 5, 25],
        [2, 0, "engine.classify", 30, 90],
        [3, 2, "engine.rule.sin", 31, 50],
        [4, 2, "engine.rule.qad", 50, 80],
    ]
    assert self_times(spans) == {"cli": 20, "corpus": 20, "engine": 60}
    assert sum(self_times(spans).values()) == 100
    assert span_totals(spans)["engine.classify"] == 60


def _in(work: Path, fn, *args):
    previous = Path.cwd()
    os.chdir(work)
    try:
        return fn(*args)
    finally:
        os.chdir(previous)


def test_traced_pass_spans_every_layer_and_matches_the_untraced_outputs(html_run):
    inputs, work, measured = html_run
    tracer = Tracer("test")
    result = _in(work, traced_pass, Path("traced"), tracer)
    trees = stage_trees(result, tracer.spans)["stages"]

    bounds = [*result["roots"], result["last_span"]]
    for k, stage in enumerate(trees):
        tree = tracer.spans[bounds[k]:bounds[k + 1]]
        root = tree[0]
        assert root[1] is None and root[2] == f"cli.{stage}"
        assert all(span[1] is not None for span in tree[1:])
        assert sum(self_times(tree).values()) == root[4] - root[3]
        assert trees[stage]["seconds"] == (root[4] - root[3]) / 1e9
    # every wrapper was called through, so the CLI still calls each attribute
    names = {span[2] for span in tracer.spans}
    assert {name[:-2] for name in PER_LAYER
            if name.endswith("_s") and name.split(".")[0] not in ("self", "trace")} <= names

    assert result["exit_codes"] == [0, 0, 0]
    assert result["ingest_stdout"] == measured["ingest_stdout"]
    counts = result["counts"]
    assert counts["corpus.pages"] == inputs.pages
    assert counts["segment.sentences"] == sum(len(a.sentences()) for a in inputs.articles)
    lines = (work / "out" / "analyzed" / "annotations.jsonl").read_text(encoding="utf-8")
    assert counts["engine.annotations"] == len(lines.splitlines())
    for name in OUTPUTS:
        assert digest(work / "traced" / name) == digest(work / "out" / name)


def test_instrumented_puts_the_original_functions_back():
    from arfuture import cli, corpus, engine

    before = (corpus.extract_document, engine.iter_rule_results, engine.Engine.analyze,
              cli.write_reports)
    with instrumented(Tracer("test"), {}):
        assert corpus.extract_document is not before[0]
    assert (corpus.extract_document, engine.iter_rule_results, engine.Engine.analyze,
            cli.write_reports) == before


def test_tracing_overhead_is_not_negative_on_a_real_run(tmp_path):
    """On a quarter of news-dense, so that 20 seconds hold enough pairs of
    untraced and traced commands for their medians to settle."""
    inputs = build("news-dense", 11)
    inputs.write(tmp_path)
    for path in sorted(tmp_path.glob("corpus/*"))[50:] + sorted(tmp_path.glob("pages/*"))[50:]:
        path.unlink()
    overheads = stage_overheads(_in(tmp_path, run_passes, 20, True))
    assert overheads["analyze"] >= 0
    assert sum(overheads.values()) >= 0
