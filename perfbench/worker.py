"""Timed passes over one generated workload; the child process of run.py.

    python3 worker.py --src SRC --seconds S --trace 0|1   (cwd: workload dir)

A pass is the batch a user runs: ``ingest`` the pages, ``analyze`` the
corpus, ``eval`` the annotations against the gold file, each through
``arfuture.cli.main`` in-process, exactly as the command line does.  A
traced pass makes the same ``cli.main`` calls after replacing the module
attributes the program calls through with wrappers that put a span
around each call, so that the per-layer times need no change to the
program and describe the code the untraced passes run.  Before and after
each timed command the worker also times a fixed reference task, which
run.py uses to correct for drifts in the speed of a shared machine.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from reference import reference_task

CLOCK = "2026-01-01T00:00:00+00:00"
MIN_PASSES = 3
#: a stage shorter than this is repeated within a pass, up to 5 times, so
#: that short stages get as many samples as their noise needs
SHORT_STAGE_S = 0.6
STAGES = ("ingest", "analyze", "eval")


def peak_rss_mb() -> float:
    """This process's own resident-memory high-water mark.

    ``ru_maxrss`` would also count the parent's memory at the time of the
    spawn, which Linux carries across ``exec``; ``VmHWM`` belongs to the
    process image that ran the passes.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("VmHWM missing from /proc/self/status")


def check_program_location(src: str) -> None:
    """Refuse to measure an ``arfuture`` installed elsewhere than ``src``."""
    import arfuture

    if not Path(arfuture.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"arfuture was imported from {arfuture.__file__}, not {src}")


def _commands(out: Path) -> dict[str, list[str]]:
    return {
        "ingest": ["ingest", "--input", "pages", "--out", str(out / "ingested")],
        "analyze": ["analyze", "--corpus", "corpus", "--out", str(out / "analyzed"),
                    "--clock", CLOCK],
        "eval": ["eval", "--annotations", str(out / "analyzed" / "annotations.jsonl"),
                 "--gold", "gold.tsv", "--report", str(out / "eval.json")],
    }


def _cli(argv: list[str]) -> tuple[int, str]:
    from arfuture import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def untraced_pass(out: Path, repeats: dict[str, int]) -> dict:
    """Each command, run ``repeats[command]`` times on a collected heap.

    Outputs are overwritten in place: on a 2-vCPU virtual machine,
    creating a file took about 0.5 ms of kernel time, varying tenfold with
    the host's load, while overwriting one was cheap and steady.

    ``samples[k]`` is ``[command, seconds]``; ``refs[k]`` and ``refs[k + 1]``
    are the reference times taken just before and just after it.
    """
    result: dict = {"samples": [], "refs": [reference_task()], "exit_codes": []}
    for stage, argv in _commands(out).items():
        for _ in range(repeats[stage]):
            gc.collect()
            started = time.perf_counter()
            code, stdout = _cli(argv)
            result["samples"].append([stage, time.perf_counter() - started])
            result["refs"].append(reference_task())
            result["exit_codes"].append(code)
            if stage == "ingest":
                result["ingest_stdout"] = stdout.strip()
    return result


@contextlib.contextmanager
def instrumented(tracer, counts: Counter):
    """Put a span around each call the commands make into the public
    functions listed in ``patches``, by replacing the module attributes
    they call through; the originals are back in place on exit.

    ``counts`` receives the pages, rejections and duplicates of ingest,
    the sentences and tokens segmented, and each rule's matches and
    rejections by ``RejectReason``.
    """
    from arfuture import cli, corpus, engine, evaluate, report

    span = tracer.span

    def spanned(name):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return wrap

    def read_local_page(fn):
        def wrapper(path):
            counts["corpus.pages"] += 1
            with span("corpus.read"):
                return fn(path)
        return wrapper

    def extract_document(fn):
        def wrapper(*args, **kwargs):
            with span("corpus.extract"):
                try:
                    return fn(*args, **kwargs)
                except corpus.CorpusError:
                    counts["corpus.rejected"] += 1
                    raise
        return wrapper

    def dedupe_documents(fn):
        def wrapper(docs):
            with span("corpus.dedupe"):
                unique = fn(docs)
            counts["corpus.duplicates"] += len(docs) - len(unique)
            return unique
        return wrapper

    def counted(name, count):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                with span(name):
                    result = fn(*args, **kwargs)
                counts[count] += len(result)
                return result
            return wrapper
        return wrap

    def iter_rule_results(fn):
        annotation = engine.Annotation

        def wrapper(rule, *args, **kwargs):
            name = "engine.rule." + rule.id
            with span(name):
                results = list(fn(rule, *args, **kwargs))
            for result in results:
                if isinstance(result, annotation):
                    counts[name + ".fired"] += 1
                else:
                    counts[name + ".rejected." + result.reason.value] += 1
            return results
        return wrapper

    patches = [
        (corpus, "read_local_page", read_local_page),
        (corpus, "extract_document", extract_document),
        (corpus, "dedupe_documents", dedupe_documents),
        (corpus, "compile_corpus_file", spanned("corpus.compile")),
        (corpus, "parse_corpus_file", spanned("corpus.parse")),
        (cli, "load_engine", spanned("resources.load_engine")),
        (engine.Engine, "analyze", spanned("engine.analyze")),
        (engine, "segment", counted("segment.segment", "segment.sentences")),
        (engine, "tokenize", counted("segment.tokenize", "segment.tokens")),
        (engine, "classify_sentence_results", spanned("engine.classify")),
        (engine, "iter_rule_results", iter_rule_results),
        (cli, "dump_annotations", spanned("engine.dump")),
        (cli, "write_reports", spanned("report.write")),
        (report, "build_report_page", spanned("report.build")),
        (report, "render_page", spanned("report.render")),
        (report, "render_index", spanned("report.index")),
        (cli, "load_annotations", spanned("engine.load_annotations")),
        (evaluate, "load_gold", spanned("evaluate.load_gold")),
        (evaluate, "score", spanned("evaluate.score")),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for (owner, attr, wrap), (_, _, original) in zip(patches, originals):
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def traced_pass(out: Path, tracer) -> dict:
    """One run of each command under ``instrumented``, each inside a root
    span ``cli.<command>`` and between two reference times.

    ``roots[k]`` is the id of command k's root span; its tree is every span
    from there up to the next root.  ``refs[k]`` and ``refs[k + 1]`` are the
    reference times around command k.
    """
    counts: Counter = Counter()
    result: dict = {"roots": [], "refs": [reference_task()], "exit_codes": []}
    with instrumented(tracer, counts):
        for stage, argv in _commands(out).items():
            gc.collect()
            result["roots"].append(len(tracer.spans))
            with tracer.span(f"cli.{stage}"):
                code, stdout = _cli(argv)
            result["refs"].append(reference_task())
            result["exit_codes"].append(code)
            if stage == "ingest":
                result["ingest_stdout"] = stdout.strip()
    result["last_span"] = len(tracer.spans)
    counts["engine.annotations"] = sum(v for k, v in counts.items() if k.endswith(".fired"))
    counts["engine.traces"] = sum(v for k, v in counts.items() if ".rejected." in k)
    counts["report.bytes"] = sum(p.stat().st_size
                                 for p in (out / "analyzed" / "reports").iterdir())
    result["counts"] = counts
    return result


def run_passes(seconds: float, trace: bool) -> dict:
    """Passes until ``seconds`` have passed, after one untimed warm-up pass
    (imports, file cache, lazy set-up, first creation of the output files)
    that also sizes the repeats.  With ``trace``, each untraced pass is
    followed by a traced one, after one untimed traced warm-up pass."""
    out = Path("out")
    warmup = untraced_pass(out, {"ingest": 1, "analyze": 1, "eval": 1})
    repeats = {stage: max(1, min(5, round(SHORT_STAGE_S / seconds_)))
               for stage, seconds_ in warmup["samples"]}
    result: dict = {"untraced": [], "traced": [], "repeats": repeats}
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(run_id=f"{Path.cwd().name}:{os.getpid()}:{time.time_ns()}")
        traced_pass(Path("traced"), tracer)
        tracer.spans.clear()
    started = time.perf_counter()
    while (len(result["untraced"]) < MIN_PASSES
           or time.perf_counter() - started < seconds):
        result["untraced"].append(untraced_pass(out, repeats))
        if trace:
            result["traced"].append(traced_pass(Path("traced"), tracer))
    if trace:
        result["traced"] = [stage_trees(entry, tracer.spans) for entry in result["traced"]]
        tracer.write("trace.json")
    else:
        result["peak_rss_mb"] = peak_rss_mb()
    return result


def stage_trees(entry: dict, spans: list[list]) -> dict:
    """Per command of a traced pass: its root span's seconds, the reference
    times around it, and the summed and self seconds of its tree."""
    from tracing import self_times, span_totals

    bounds = [*entry["roots"], entry["last_span"]]
    stages = {}
    for k, stage in enumerate(STAGES):
        tree = spans[bounds[k]:bounds[k + 1]]
        stages[stage] = {
            "seconds": (tree[0][4] - tree[0][3]) / 1e9,
            "refs": entry["refs"][k:k + 2],
            "span_s": {name: ns / 1e9 for name, ns in span_totals(tree).items()},
            "self_s": {name: ns / 1e9 for name, ns in self_times(tree).items()},
            "spans": len(tree),
        }
    return {"stages": stages, "counts": entry["counts"], "exit_codes": entry["exit_codes"],
            "ingest_stdout": entry["ingest_stdout"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    check_program_location(args.src)
    print(json.dumps(run_passes(args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
