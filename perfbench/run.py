"""Benchmark of the arfuture batch pipeline: ingest, analyze and eval.

    python3 perfbench/run.py --workload news-dense --seed 88 --seconds 40 --trace 0

Run from the root of a checkout.  Each run writes the workload's seeded
inputs under ``.bench_runs/<workload>/``, times passes over them in a
child process (``worker.py``), times the program's set-up in fresh
processes (``setup_probe.py``), checks every output, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a separate traced run.  ``--workload all`` runs every
workload in turn.

Every time is the median of its samples (the commands of the run's
passes, or the fresh processes that measure set-up), each taken at a
nominal machine speed: multiplied by ``REF_NOMINAL_S`` over the mean time
of a fixed reference task run just before and just after it.  On a shared
2-vCPU virtual machine the speed drifted by 20-30% within seconds to
minutes; the reference tracks that drift.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    CheckLog, check_analyze, check_eval, check_ingest, digest, read_annotations,
)
from workloads import WORKLOADS, build  # noqa: E402

#: median seconds of ``reference.reference_task`` on the baseline machine
#: (Python 3.11.7, 2 vCPUs); times are reported as if the task took this long
REF_NOMINAL_S = 0.016
#: fresh processes that each measure import + load_engine
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 150
#: outputs of a pass, relative to its output directory; their sha256 digests
#: are printed and appended to .bench_runs/digests.tsv
OUTPUTS = ("ingested", "analyzed/annotations.jsonl", "analyzed/reports", "eval.json")

END_TO_END = {
    "setup_s": "s",
    "analyze_mb_per_s": "MB/s",
    "eval_s": "s",
    "ingest_mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
}

RULE_IDS = ("participle", "sin", "qad", "past_verb", "present_verb", "sawfa", "lan")
REJECT_REASONS = ("PositiveNotFound", "NegativeFound", "MorphRejected")
LAYERS = ("cli", "resources", "corpus", "segment", "engine", "report", "evaluate")
#: per-layer metric -> unit; ``*_s`` are summed span times of one pass,
#: ``self.<layer>_s`` the layer's span times minus those of its child spans
PER_LAYER = {
    "resources.load_engine_s": "s",
    "corpus.read_s": "s",
    "corpus.extract_s": "s",
    "corpus.dedupe_s": "s",
    "corpus.compile_s": "s",
    "corpus.parse_s": "s",
    "corpus.pages": "count",
    "corpus.rejected": "count",
    "corpus.duplicates": "count",
    "segment.segment_s": "s",
    "segment.tokenize_s": "s",
    "segment.sentences": "count",
    "segment.tokens": "count",
    "engine.classify_s": "s",
    **{f"engine.rule.{r}_s": "s" for r in RULE_IDS},
    **{f"engine.rule.{r}.fired": "count" for r in RULE_IDS},
    **{f"engine.rule.{r}.rejected.{why}": "count" for r in RULE_IDS for why in REJECT_REASONS},
    "engine.annotations": "count",
    "engine.traces": "count",
    "engine.dump_s": "s",
    "engine.load_annotations_s": "s",
    "evaluate.load_gold_s": "s",
    "evaluate.score_s": "s",
    "report.build_s": "s",
    "report.render_s": "s",
    "report.index_s": "s",
    "report.bytes": "bytes",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    pass


def _child(script: str, args: list[str], cwd: Path) -> dict:
    # measure this checkout's src/ with its bundled data, whatever the caller set
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SLCSAS_DATA_DIR")}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} {args} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} {args} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return statistics.median(values)


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool):
    src = root / "src"
    work = root / ".bench_runs" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = build(workload, seed)
    inputs.write(work)

    measured = _child("worker.py", ["--src", str(src), "--seconds", str(seconds),
                                    "--trace", str(int(trace))], work)
    setups = [] if trace else [_child("setup_probe.py", [str(src)], work)
                               for _ in range(SETUP_RUNS)]

    from arfuture.resources import load_engine

    engine = load_engine()
    log = CheckLog()
    out = work / "out"
    last = measured["untraced"][-1]
    codes = {c for p in measured["untraced"] for c in p["exit_codes"]}
    log.check(codes == {0}, f"exit codes {sorted(codes)}")
    check_ingest(log, inputs, out / "ingested", last["ingest_stdout"])
    records = read_annotations(out / "analyzed" / "annotations.jsonl")
    check_analyze(log, inputs, out / "analyzed", records, engine.ruleset, engine.lexicons)
    check_eval(log, inputs, records, out / "eval.json")
    digests = {name: digest(out / name) for name in OUTPUTS}
    if trace:
        for name in OUTPUTS:
            log.check(digest(work / "traced" / name) == digests[name], f"traced {name}")
        traced = measured["traced"][-1]
        log.check(set(traced["exit_codes"]) == {0}, f"traced exit codes {traced['exit_codes']}")
        # the wrappers' counts must agree with the command's own summary line
        counts = Counter(traced["counts"])
        dropped = counts["corpus.rejected"] + counts["corpus.duplicates"]
        summary = (f"pages={counts['corpus.pages']} "
                   f"documents={counts['corpus.pages'] - dropped} rejected={dropped}")
        log.check(traced["ingest_stdout"] == last["ingest_stdout"] == summary,
                  "traced ingest counts")
    with open(root / ".bench_runs" / "digests.tsv", "a", encoding="utf-8") as fh:
        fh.write("\t".join([workload, str(seed), *digests.values()]) + "\n")

    lines = [f"{workload} seed={seed} passes={len(measured['untraced'])} "
             f"repeats={measured['repeats']} "
             f"pages={inputs.pages} html_mb={inputs.html_bytes / 1e6:.3f} "
             f"docs={len(inputs.articles)} corpus_mb={inputs.corpus_body_bytes / 1e6:.3f}"]
    lines += [f"  sha256 {name} {value}" for name, value in digests.items()]
    lines += [f"  FAILED {what}" for what in log.failures[:20]]
    if trace:
        metrics = _per_layer_metrics(measured)
        lines.append("  trace.overhead by command: " + " ".join(
            f"{stage}={seconds:+.4f}s" for stage, seconds in stage_overheads(measured).items()))
    else:
        metrics = _end_to_end_metrics(measured, setups, inputs)
    failed_ratio = len(log.failures) / log.attempted
    lines += [f"  {name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  failed_ratio {failed_ratio:.6g} ({len(log.failures)}/{log.attempted})")
    result = {
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": metrics,
    }
    return result, lines


def _nominal(seconds: float, refs: list[float]) -> float:
    """``seconds`` at nominal speed, judged by the reference times around it."""
    return seconds * 2 * REF_NOMINAL_S / (refs[0] + refs[-1])


def _stage_median(measured: dict, stage: str) -> float:
    """Median nominal seconds of one command over the run's passes."""
    return _median([_nominal(seconds, p["refs"][k:k + 2])
                    for p in measured["untraced"]
                    for k, (name, seconds) in enumerate(p["samples"]) if name == stage])


def _end_to_end_metrics(measured: dict, setups: list[dict], inputs) -> dict:
    values = {
        "setup_s": _median([_nominal(s["setup_s"], s["refs"]) for s in setups]),
        "analyze_mb_per_s": inputs.corpus_body_bytes / 1e6 / _stage_median(measured, "analyze"),
        "eval_s": _stage_median(measured, "eval"),
        "ingest_mb_per_s": inputs.html_bytes / 1e6 / _stage_median(measured, "ingest"),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _per_layer_metrics(measured: dict) -> dict:
    """Medians over the traced passes; each command's span times are taken
    at nominal speed by the reference times around that command."""
    traced = measured["traced"]

    def median_of(key: str, name: str) -> float:
        return _median([sum(_nominal(tree[key].get(name, 0.0), tree["refs"])
                            for tree in t["stages"].values()) for t in traced])

    counts = traced[-1]["counts"]
    values = {}
    for name in PER_LAYER:
        if name.startswith("self."):
            values[name] = median_of("self_s", name[len("self."):-len("_s")])
        elif name.endswith("_s") and name != "trace.overhead_s":
            values[name] = median_of("span_s", name[:-len("_s")])
        else:
            values[name] = counts.get(name, 0)
    values["trace.overhead_s"] = sum(stage_overheads(measured).values())
    values["trace.spans"] = sum(tree["spans"] for tree in traced[-1]["stages"].values())
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def stage_overheads(measured: dict) -> dict[str, float]:
    """Per command, the median over the run's pairs of passes of its traced
    time minus its mean untraced time in the pass just before, all at
    nominal speed.  Pairing cancels drift in the machine's speed that is
    slower than a pass, which is larger than the overhead itself."""
    overheads = {}
    for stage in measured["traced"][0]["stages"]:
        differences = []
        for plain, traced in zip(measured["untraced"], measured["traced"]):
            untraced = [_nominal(seconds, plain["refs"][k:k + 2])
                        for k, (name, seconds) in enumerate(plain["samples"]) if name == stage]
            tree = traced["stages"][stage]
            differences.append(_nominal(tree["seconds"], tree["refs"])
                               - sum(untraced) / len(untraced))
        overheads[stage] = _median(differences)
    return overheads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=88)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    for needed in ("src/arfuture/__init__.py", "tests/oracle.py"):
        if not (root / needed).is_file():
            print(f"error: {root / needed} not found; run from a checkout of the "
                  "repository", file=sys.stderr)
            return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            result, lines = run_workload(root, workload, args.seed, args.seconds,
                                         bool(args.trace))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
