"""Output checks, run after the timed region.

Every check is one operation of the run; a failed check is a failed
operation.  Nothing here trusts the program's own readers: annotations,
eval reports and corpus files are read with ``json`` and plain string
comparison, and expected values come from the workload generator or, for
rule matches, from the brute-force oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Inputs, doc_id_for_url

CLASS_LABELS = ("qad", "sin", "lan", "sawfa", "participle", "past_verb", "present_verb")
#: sentences per run compared with the oracle; the benchmark's tests compare all
ORACLE_SAMPLE = 250


@dataclass
class CheckLog:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def digest(path: Path) -> str:
    """sha256 of a file, or over the relative path and content digest of
    every file in a directory."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f"{file.relative_to(path).as_posix()}\0".encode())
        h.update(hashlib.sha256(file.read_bytes()).digest())
    return h.hexdigest()


def check_ingest(log: CheckLog, inputs: Inputs, ingested: Path, summary: str) -> None:
    """Each page's corpus file is the planted article, or absent when the
    page is boilerplate or repeats an earlier article."""
    written = {p.name for p in ingested.glob("*")} if ingested.is_dir() else set()
    for page, expected_name in inputs.page_outcomes.items():
        if expected_name is None:
            log.check(f"{doc_id_for_url(page)}.corpus.txt" not in written,
                      f"ingest kept dropped page {page}")
            continue
        path = ingested / expected_name
        text = path.read_text(encoding="utf-8") if path.is_file() else None
        log.check(text == inputs.expected_ingest[expected_name], f"ingest output for {page}")
    log.check(written == set(inputs.expected_ingest), "ingest wrote unexpected files")
    rejected = inputs.boilerplate + inputs.duplicates
    want = f"pages={inputs.pages} documents={len(inputs.expected_ingest)} rejected={rejected}"
    log.check(summary == want, f"ingest summary {summary!r} != {want!r}")


_ANNOTATION_KEYS = ("doc_id", "sentence_index", "rule_id", "class_label", "positive_marker_spans")


def read_annotations(path: Path) -> list[dict] | None:
    """The records of ``annotations.jsonl``, or None if any is malformed."""
    try:
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
                   if line.strip()]
    except (OSError, ValueError):
        return None
    if all(isinstance(r, dict) and all(k in r for k in _ANNOTATION_KEYS) for r in records):
        return records
    return None


def check_analyze(log: CheckLog, inputs: Inputs, analyzed: Path,
                  records: list[dict] | None, ruleset, lexicons) -> None:
    """Reports exist per document, annotations point at real sentences, and
    a seeded sample of sentences carries exactly the oracle's matches."""
    from oracle import oracle_marker_spans
    from arfuture.segment import tokenize

    if not log.check(records is not None, "annotations.jsonl missing or malformed"):
        records = []
    spans: dict[tuple[str, int, str], set] = {}
    for r in records:
        key = (r["doc_id"], r["sentence_index"], r["rule_id"])
        spans.setdefault(key, set()).add(tuple(tuple(s) for s in r["positive_marker_spans"]))
    sizes = {a.doc_id: len(a.sentences()) for a in inputs.articles}
    reports = analyzed / "reports"
    for doc_id, n_sentences in sizes.items():
        in_range = all(idx < n_sentences for d, idx, _ in spans if d == doc_id)
        log.check(in_range and (reports / f"{doc_id}.html").is_file(),
                  f"document {doc_id}: report or sentence indices")
    log.check({d for d, _, _ in spans} <= set(sizes), "annotations name unknown documents")
    index = reports / "index.html"
    index_text = index.read_text(encoding="utf-8") if index.is_file() else ""
    log.check(all(f'href="{d}.html"' in index_text for d in sizes), "report index")

    rng = random.Random(f"oracle-sample:{inputs.workload}:{inputs.seed}")
    population = [(a, i) for a in inputs.articles for i in range(len(a.sentences()))]
    for article, index_ in rng.sample(population, min(ORACLE_SAMPLE, len(population))):
        tokens = tokenize(article.sentence_texts()[index_])
        agree = all(
            spans.get((article.doc_id, index_, rule.id), set())
            == set(oracle_marker_spans(rule, tokens, lexicons))
            for rule in ruleset
        )
        log.check(agree, f"oracle disagrees on {article.doc_id} sentence {index_}")


def check_eval(log: CheckLog, inputs: Inputs, records: list[dict] | None,
               eval_json: Path) -> None:
    """Per-class and overall TP/FP/FN equal set arithmetic done here."""
    try:
        report = json.loads(eval_json.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    if not log.check(report is not None and records is not None, "eval report missing"):
        return
    predicted = {(r["doc_id"], r["sentence_index"], r["class_label"]) for r in records}
    totals = [0, 0, 0]
    for label in CLASS_LABELS:
        pred = {t for t in predicted if t[2] == label}
        gold = {t for t in inputs.gold if t[2] == label}
        want = [len(pred & gold), len(pred - gold), len(gold - pred)]
        totals = [a + b for a, b in zip(totals, want)]
        got = report.get("per_class", {}).get(label, {})
        log.check([got.get("tp"), got.get("fp"), got.get("fn")] == want, f"eval counts for {label}")
    o = report.get("overall", {})
    log.check([o.get("tp"), o.get("fp"), o.get("fn")] == totals, "eval overall counts")
    t = report.get("totals", {})
    log.check([t.get("predicted_future"), t.get("gold_future")]
              == [len(predicted), len(inputs.gold)], "eval totals")
