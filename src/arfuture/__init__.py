"""Detection of Arabic future-event expressions in economic news text.

The pipeline: ingest HTML into a plain-text corpus, split documents into
sentences and tokens, match a small set of linguistic rules (with light
morphological checking for the particle/prefix cases), render the matches
as HTML reports, and score predictions against gold annotations.

``import arfuture`` loads only what ``load_engine()`` needs: the
``engine``, ``morpho``, ``resources``, ``rules`` and ``segment`` modules.
The names re-exported from ``corpus``, ``evaluate`` and ``report``, and
those three modules themselves, are imported on first access and then
bound here.
"""

from .engine import (
    Annotation,
    DocumentAnalysis,
    Engine,
    RejectionTrace,
    RejectReason,
)
from .morpho import (
    Lexicons,
    MorphVerdict,
    Verdict,
    analyze_token,
    is_future_verb_with_siin,
    strip_clitics,
)
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

#: the names imported from each module on first access
_LAZY = {
    "corpus": (
        "Document",
        "RawPage",
        "compile_corpus_file",
        "dedupe_documents",
        "extract_main_article",
        "fetch_pages",
        "parse_corpus_file",
    ),
    "evaluate": ("CLASS_LABELS", "EvalReport", "GoldAnnotation", "distribution", "load_gold", "score"),
    "report": ("render_index", "write_reports"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """A lazy name, or one of its modules, imported on first access (PEP 562)."""
    module = _LAZY_NAMES.get(name)
    if module is None and name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if module is None:
        return import_module(f"{__name__}.{name}")  # which binds it here
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})


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
