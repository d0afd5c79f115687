"""Command-line pipeline: ``ingest``, ``analyze`` and ``eval`` subcommands.

Exit codes are the process-level contract: 0 on success, 1 when a command
legitimately produced nothing (e.g. every page was rejected), 2 on usage
or parse errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from . import corpus as corpus_mod
from . import evaluate as eval_mod
from .config import SETTINGS, Config, load_config
from .engine import DocumentAnalysis, dump_annotations, load_annotations
from .report import write_reports
from .resources import load_engine, parse_file, parse_lines, write_file

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_ERROR = 2


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func)
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    return parser


def _resource_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rules", dest="rules_path", help="rule file override")
    parser.add_argument("--variables", dest="variables_path", help="variable file override")
    parser.add_argument("--semantic-map", dest="semantic_map_path",
                        help="semantic map override")
    parser.add_argument("--lexicon-dir", dest="lexicon_dir", help="extra lexicon directory")


def build_parser() -> argparse.ArgumentParser:
    """Each settings flag stores its text under its ``config.SETTINGS`` key."""
    parser = argparse.ArgumentParser(
        prog="arfuture",
        description="Detect Arabic future-event expressions in news text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = _command(sub, "ingest", cmd_ingest, "turn HTML pages into corpus files")
    p_ingest.add_argument("--out", type=Path, help="output directory")
    p_ingest.add_argument(
        "--input",
        required=True,
        type=Path,
        help="directory of HTML files, or a text file listing URLs/paths",
    )
    p_ingest.add_argument("--min-run-chars", dest="min_run_chars",
                          help="main-article run threshold")
    p_ingest.add_argument(
        "--delay", type=int, default=1000, help="politeness delay between fetches (ms)"
    )

    p_analyze = _command(sub, "analyze", cmd_analyze, "annotate a corpus and write reports")
    p_analyze.add_argument("--out", type=Path, help="output directory")
    p_analyze.add_argument("--corpus", required=True, type=Path, help="corpus directory")
    _resource_flags(p_analyze)
    p_analyze.add_argument(
        "--boundaries",
        help="comma-separated sentence boundary triggers "
        "(dot-space, arabic-qmark, exclam, newline)",
    )
    p_analyze.add_argument(
        "--strict-adjacency",
        action="store_const",
        const="true",
        help="punctuation blocks word-to-word pattern gaps",
    )
    p_analyze.add_argument(
        "--show-all-negative-fields",
        action="store_const",
        const="true",
        help="render every triggered negative search field, not only those of rules "
        "that also matched",
    )
    p_analyze.add_argument(
        "--clock",
        help="fixed ISO-8601 timestamp for reproducible report output",
    )

    p_eval = _command(sub, "eval", cmd_eval, "score predictions against gold annotations")
    _resource_flags(p_eval)
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", type=Path, help="corpus directory to analyze")
    source.add_argument("--annotations", type=Path, help="annotations.jsonl to score")
    p_eval.add_argument("--gold", required=True, type=Path, help="gold TSV file")
    p_eval.add_argument("--report", type=Path, help="also write the report as JSON")
    return parser


def _merge_config(args: argparse.Namespace) -> Config:
    """The ``--config`` file, then every settings flag given with a
    non-empty text, read by the parser of its key."""
    cfg = load_config(args.config) if args.config else Config()
    for key, parse in SETTINGS.items():
        text = getattr(args, key, None)
        if text:
            setattr(cfg, key, parse(text, key))
    return cfg.validate()


def _analyze_corpus(cfg: Config, corpus_dir: Path) -> Iterator[DocumentAnalysis]:
    """Load the engine, read and check every corpus file in ``corpus_dir``,
    then analyze the documents one at a time, in document-id order."""
    engine = load_engine(
        rules_path=cfg.rules_path,
        variables_path=cfg.variables_path,
        semantic_map_path=cfg.semantic_map_path,
        lexicon_dir=cfg.lexicon_dir,
        boundaries=cfg.boundaries,
        punct_transparent=not cfg.strict_adjacency,
    )
    return engine.analyze_corpus(_read_corpus_dir(corpus_dir))


class _Totals:
    """The counts of sentences and of distinct (doc, sentence, class)
    triples in the analyses added so far, all that ``analyze`` prints, and
    their document ids.  Document ids are unique within a corpus, so no
    triple is counted twice."""

    sentences: int = 0
    triples: int = 0

    def __init__(self):
        self.doc_ids: set[str] = set()

    def add(self, analysis: DocumentAnalysis) -> set[eval_mod.Triple]:
        """Count in one analysis; returns its distinct triples."""
        triples = eval_mod.predictions_to_triples(analysis.annotations)
        self.doc_ids.add(analysis.doc.id)
        self.sentences += len(analysis.sentences)
        self.triples += len(triples)
        return triples


def _dumped(analyses: Iterable[DocumentAnalysis], jsonl: TextIO, totals: _Totals):
    """Pass each analysis on once its annotation lines are written to
    ``jsonl`` and it is added to ``totals``."""
    for analysis in analyses:
        jsonl.write(dump_annotations(analysis.annotations))
        totals.add(analysis)
        yield analysis


def _url_list(text: str) -> list[str]:
    """One URL or local path per line; ``#`` opens a comment line."""
    return [url for url in map(str.strip, text.split("\n"))
            if url and not url.startswith("#")]


def _read_corpus_dir(corpus_dir: Path) -> list[corpus_mod.Document]:
    if not corpus_dir.is_dir():
        raise corpus_mod.CorpusError(f"corpus directory not found: {corpus_dir}")
    docs = []
    paths: dict[str, Path] = {}  # document id -> the file that gave it
    for path in sorted(corpus_dir.glob("*.corpus.txt")):
        doc = parse_file(path, corpus_mod.parse_corpus_file)
        if doc.id in paths:
            raise corpus_mod.CorpusError(
                f"{path}: same URL as {paths[doc.id]} (document id {doc.id})"
            )
        paths[doc.id] = path
        docs.append(doc)
    return docs


def _warn(line: str) -> None:
    """Print ``line`` on stderr.  A lone surrogate, as a file name that is
    not UTF-8 holds, is written as a backslash escape, as Python's own
    stderr writes it, so that no stream can refuse it."""
    print(line.encode("utf-8", "backslashreplace").decode("utf-8"), file=sys.stderr)


def _skip(source: object, reason: object) -> None:
    """Say on stderr that a page is skipped and why."""
    _warn(f"skipping {source}: {reason}")


def _remove_stale(directory: Path, suffix: str, written: set[str]) -> None:
    """Remove each ``<12 hex digits><suffix>`` file in ``directory`` whose
    document id is not in ``written``, naming it on stderr, so that a rerun
    leaves only what it wrote.  A file of any other name is left alone."""
    own_name = re.compile("[0-9a-f]{12}" + re.escape(suffix))
    # os.listdir, not Path.glob: over 200 corpus files glob took 0.9 ms of
    # an ingest of 50 ms, this a tenth of that
    for name in sorted(os.listdir(directory)):
        if name[:12] not in written and own_name.fullmatch(name):
            path = directory / name
            _warn(f"removing {path}: not written by this run")
            path.unlink()


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    out_dir = args.out or Path("corpus")
    source = args.input
    if not source.exists():
        print(f"error: input not readable: {source}", file=sys.stderr)
        return EXIT_ERROR

    if source.is_dir():
        sources = sorted(p for p in source.iterdir() if p.suffix.lower() in (".html", ".htm"))
    else:
        sources = parse_file(source, _url_list)
    documents = []
    # each page is extracted before the next is read, so only one page's
    # HTML is held at a time
    for page in corpus_mod.fetch_pages(sources, politeness_delay=args.delay / 1000.0):
        if isinstance(page, corpus_mod.FetchFailure):
            _skip(page.url, page.reason)
            continue
        try:
            documents.append(corpus_mod.extract_document(page, cfg.min_run_chars))
        except corpus_mod.CorpusError as exc:
            _skip(page.source_url, exc)
    documents = corpus_mod.dedupe_documents(documents)

    out_dir.mkdir(parents=True, exist_ok=True)
    for doc in documents:
        write_file(out_dir / f"{doc.id}.corpus.txt", corpus_mod.compile_corpus_file(doc))
    _remove_stale(out_dir, ".corpus.txt", {doc.id for doc in documents})
    # a page is unreadable, rejected, a duplicate or a document
    rejected = len(sources) - len(documents)
    print(f"pages={len(sources)} documents={len(documents)} rejected={rejected}")
    return EXIT_OK if documents else EXIT_EMPTY


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    out_dir = args.out or Path("out")
    clock = None
    if args.clock:
        try:
            clock = datetime.fromisoformat(args.clock)
        except ValueError as exc:
            raise ValueError(f"--clock: {exc}") from None
    analyses = _analyze_corpus(cfg, args.corpus)
    out_dir.mkdir(parents=True, exist_ok=True)
    totals = _Totals()
    with open(out_dir / "annotations.jsonl", "w", encoding="utf-8", newline="\n") as jsonl:
        write_reports(
            out_dir / "reports",
            _dumped(analyses, jsonl, totals),
            generated_at=clock,
            show_all_negative_fields=cfg.show_all_negative_fields,
        )
    _remove_stale(out_dir / "reports", ".html", totals.doc_ids)
    print(f"sentences={totals.sentences} future={totals.triples}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    gold = parse_lines(args.gold, eval_mod.load_gold)
    if args.annotations:
        predicted = parse_lines(args.annotations, load_annotations)
        total_sentences = None  # an annotation dump does not say how many sentences it covers
    else:
        totals = _Totals()
        predicted = set()
        for analysis in _analyze_corpus(cfg, args.corpus):
            predicted |= totals.add(analysis)
        total_sentences = totals.sentences

    report = eval_mod.score(predicted, gold, total_sentences=total_sentences)
    print(eval_mod.format_distribution(gold))
    print()
    print(eval_mod.format_results(report))
    if args.report:
        import json

        args.report.parent.mkdir(parents=True, exist_ok=True)
        write_file(
            args.report,
            json.dumps(eval_mod.report_to_json_dict(report), ensure_ascii=False, indent=2)
            + "\n",
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
