"""Detection of Arabic future-event expressions in economic news text.

The pipeline: ingest HTML into a plain-text corpus, split documents into
sentences and tokens, match a small set of linguistic rules (with light
morphological checking for the particle/prefix cases), render the matches
as HTML reports, and score predictions against gold annotations.
"""

from .corpus import (
    Document,
    RawPage,
    compile_corpus_file,
    dedupe_documents,
    extract_main_article,
    fetch_pages,
    parse_corpus_file,
)
from .engine import (
    Annotation,
    DocumentAnalysis,
    Engine,
    RejectionTrace,
    RejectReason,
)
from .evaluate import (
    CLASS_LABELS,
    EvalReport,
    GoldAnnotation,
    distribution,
    load_gold,
    score,
)
from .morpho import (
    Lexicons,
    MorphVerdict,
    Verdict,
    analyze_token,
    is_future_verb_with_siin,
    strip_clitics,
)
from .report import render_index, write_reports
from .resources import data_dir, load_engine, load_lexicons
from .rules import (
    LinguisticForm,
    LinguisticRule,
    expansions,
    parse_pattern,
    parse_rules,
    parse_semantic_map,
    parse_variable_defs,
)
from .segment import Sentence, Token, TokenKind, Tokens, segment, tokenize

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "CLASS_LABELS",
    "Document",
    "DocumentAnalysis",
    "Engine",
    "EvalReport",
    "GoldAnnotation",
    "Lexicons",
    "LinguisticForm",
    "LinguisticRule",
    "MorphVerdict",
    "RawPage",
    "RejectReason",
    "RejectionTrace",
    "Sentence",
    "Token",
    "TokenKind",
    "Tokens",
    "Verdict",
    "analyze_token",
    "compile_corpus_file",
    "data_dir",
    "dedupe_documents",
    "distribution",
    "expansions",
    "extract_main_article",
    "fetch_pages",
    "is_future_verb_with_siin",
    "load_engine",
    "load_gold",
    "load_lexicons",
    "parse_corpus_file",
    "parse_pattern",
    "parse_rules",
    "parse_semantic_map",
    "parse_variable_defs",
    "render_index",
    "score",
    "segment",
    "strip_clitics",
    "tokenize",
    "write_reports",
]
