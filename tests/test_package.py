"""The package's public names.

``import arfuture`` imports the modules ``load_engine`` needs and binds
their names; the names of ``corpus``, ``evaluate`` and ``report``, and
those three modules, resolve on first access.  The checks of a first
access run in a fresh interpreter, where no module has been imported yet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arfuture

#: each public name, by the module that defines it
PUBLIC = {
    "corpus": [
        "Document", "RawPage", "compile_corpus_file", "dedupe_documents",
        "extract_main_article", "fetch_pages", "parse_corpus_file",
    ],
    "engine": ["Annotation", "DocumentAnalysis", "Engine", "RejectReason", "RejectionTrace"],
    "evaluate": [
        "CLASS_LABELS", "EvalReport", "GoldAnnotation", "distribution", "load_gold", "score",
    ],
    "morpho": [
        "Lexicons", "MorphVerdict", "Verdict", "analyze_token", "is_future_verb_with_siin",
        "strip_clitics",
    ],
    "report": ["render_index", "write_reports"],
    "resources": ["data_dir", "load_engine", "load_lexicons"],
    "rules": [
        "LinguisticForm", "LinguisticRule", "expansions", "parse_pattern", "parse_rules",
        "parse_semantic_map", "parse_variable_defs",
    ],
    "segment": ["Sentence", "Token", "TokenKind", "Tokens", "segment", "tokenize"],
}
LAZY_MODULES = ["corpus", "evaluate", "report"]


def fresh(code: str):
    """What ``code``, run after a bare ``import arfuture`` in a fresh
    interpreter without ``site``, prints as JSON."""
    src = str(Path(arfuture.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import arfuture\n{code}"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_all_lists_every_public_name():
    assert sorted(arfuture.__all__) == sorted(name for names in PUBLIC.values() for name in names)


def test_each_name_is_the_object_its_module_defines():
    code = f"""
import importlib, json
wrong = []
for module, names in {PUBLIC!r}.items():
    for name in names:
        value = getattr(arfuture, name)
        home = importlib.import_module("arfuture." + module)
        if value is not getattr(home, name) or getattr(value, "__module__", home.__name__) != home.__name__:
            wrong.append(name)
print(json.dumps(wrong))
"""
    assert fresh(code) == []


def test_lazy_names_load_their_module_on_first_access_and_stay_bound():
    code = """
import json, sys
before = "arfuture.evaluate" in sys.modules, "score" in vars(arfuture)
arfuture.score
print(json.dumps([before, ["arfuture.evaluate" in sys.modules, "score" in vars(arfuture)]]))
"""
    assert fresh(code) == [[False, False], [True, True]]


def test_star_import_binds_every_name():
    code = """
import json
namespace = {}
exec("from arfuture import *", namespace)
print(json.dumps(sorted(set(arfuture.__all__) - namespace.keys())))
"""
    assert fresh(code) == []


def test_dir_lists_every_name_and_the_lazy_modules():
    code = "import json\nprint(json.dumps(sorted(set(arfuture.__all__) - set(dir(arfuture)))))"
    assert fresh(code) == []
    assert set(LAZY_MODULES) <= set(fresh("import json\nprint(json.dumps(dir(arfuture)))"))


def test_lazy_modules_resolve_as_attributes_and_by_from_import():
    code = f"""
import json
from arfuture import corpus
print(json.dumps([getattr(arfuture, m).__name__ for m in {LAZY_MODULES!r}] + [corpus.__name__]))
"""
    assert fresh(code) == [f"arfuture.{m}" for m in LAZY_MODULES] + ["arfuture.corpus"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'arfuture' has no attribute 'nope'"):
        arfuture.nope
    assert not hasattr(arfuture, "nope")
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from arfuture import nope  # noqa: F401
