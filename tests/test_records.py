"""Records are ``NamedTuple``s or plain classes, built without ``dataclasses``.

Each test pins a property the records kept from their frozen-dataclass
form, or one that a bare ``NamedTuple`` would lose: equality by type as
well as by value, derived fields rebuilt by ``_replace``, no dict shared
between instances, and the checks a constructor makes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arfuture
from arfuture.config import Config
from arfuture.corpus import make_document
from arfuture.engine import DocumentAnalysis
from arfuture.evaluate import ClassScore, EvalReport, report_to_json_dict, score
from arfuture.morpho import Lexicons
from arfuture.report import ReportPage, build_report_page
from arfuture.rules import (
    Group,
    LinguisticForm,
    LinguisticRule,
    Literal,
    PatternSeq,
    Polarity,
    VariableRef,
    parse_pattern,
)


def test_import_and_load_engine_load_no_dataclasses_inspect_hashlib_or_resources():
    """A fresh interpreter (without ``site``, whose path hooks may import
    anything) that imports the package, loads the engine and imports the
    command line has not loaded ``dataclasses``, ``inspect``, the OpenSSL
    binding ``_hashlib`` or ``importlib.resources``."""
    unloaded = {"dataclasses", "inspect", "_hashlib", "importlib.resources"}
    code = (
        "import sys\n"
        "import arfuture\n"
        "from arfuture.resources import load_engine\n"
        "load_engine()\n"
        "import arfuture.cli\n"
        f"print(sorted({unloaded!r} & sys.modules.keys()))\n"
    )
    src = str(Path(arfuture.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


class TestPatternElements:
    def test_equal_fields_of_another_type_are_not_equal(self):
        assert Literal("x") != VariableRef("x")
        assert not Literal("x") == VariableRef("x")
        assert Literal("x") != ("x",) and ("x",) != Literal("x")
        seq = PatternSeq((Literal("x"),))
        assert Group((seq,)) != ((seq,), False) and seq != ((Literal("x"),), ())

    def test_colliding_hashes_do_not_make_them_equal(self):
        assert len({Literal("x"), VariableRef("x")}) == 2
        assert {Literal("x"): 1}.get(VariableRef("x")) is None

    def test_nested_elements_compare_by_type(self):
        assert parse_pattern("::x") != parse_pattern("x")
        assert parse_pattern("(a|::b) c") != parse_pattern("(a|b) c")
        assert parse_pattern("(a|::b) c") == parse_pattern("(a|::b) c")

    @pytest.mark.parametrize("build", [
        lambda: PatternSeq((Literal("a"), Literal("b"))),
        lambda: PatternSeq((Literal("a"),))._replace(joins=(None,)),
    ], ids=["new", "replace"])
    def test_joins_must_fit_the_items(self, build):
        with pytest.raises(ValueError, match="joins must have"):
            build()


class TestRulesWithDerivedFields:
    def test_replace_rebuilds_positives_siin_form_and_steps(self, rules_by_id):
        rule = rules_by_id["sin"]
        negative = LinguisticForm(Polarity.NEGATIVE, parse_pattern("غدا"))
        forms = (negative,) + rule.forms
        poisoned = rule._replace(forms=forms)
        assert poisoned.forms == forms and poisoned.id == rule.id
        assert poisoned.positives == tuple(i + 1 for i in rule.positives)
        assert poisoned.siin_form == rule.siin_form + 1 >= 1
        assert [step[0] for step in poisoned.steps] == list(range(len(forms)))
        assert all(step[2] is form.index for step, form in zip(poisoned.steps, forms))
        assert poisoned.steps[0][1:2] + poisoned.steps[0][3:] == (True, False, 0, "غدا")

    def test_equality_hash_and_repr_read_the_declared_fields(self, rules_by_id):
        rule = rules_by_id["qad"]
        again = LinguisticRule(**rule._asdict())
        assert again == rule and hash(again) == hash(rule)
        assert again.forms[0].index is rule.forms[0].index  # the forms are shared
        assert rule._replace(category="x") != rule
        assert LinguisticRule._fields == (
            "id", "forms", "category", "class_label", "morph", "extract"
        )
        assert repr(rule).startswith("LinguisticRule(id='qad', forms=(LinguisticForm(")
        assert "steps" not in repr(rule) and "index" not in repr(rule.forms[0])

    def test_fields_cannot_be_assigned(self, rules_by_id):
        """An assigned field would leave ``steps`` or ``index`` stale."""
        rule = rules_by_id["qad"]
        with pytest.raises(AttributeError):
            rule.forms = ()
        with pytest.raises(AttributeError):
            rule.forms[0].pattern = parse_pattern("غدا")
        assert len(rule.steps) == len(rule.forms) >= 1

    def test_rules_and_forms_equal_the_tuple_of_their_fields(self, rules_by_id):
        rule = rules_by_id["sin"]
        assert rule == tuple(rule) and rule.forms[0] == tuple(rule.forms[0])
        assert LinguisticRule._make(tuple(rule)).steps[0][2] is rule.steps[0][2]

    def test_forms_equal_with_indexes_of_their_own(self):
        a, b = (LinguisticForm(Polarity.POSITIVE, parse_pattern("قد")) for _ in range(2))
        assert a == b and hash(a) == hash(b) and a.index is not b.index
        assert a != a._replace(search_field_words=2)


def test_report_pages_share_no_dict():
    """The dicts of a page have no default, so no two pages share one."""
    assert not {"groups", "class_counts"} & ReportPage._field_defaults.keys()
    doc = make_document("http://x", "t", "ب")
    pages = [build_report_page(DocumentAnalysis(doc, (), (), ())) for _ in range(2)]
    assert pages[0].groups is not pages[1].groups
    assert pages[0].class_counts is not pages[1].class_counts
    pages[0].class_counts["qad"] = 1
    assert pages[1].class_counts == {} and pages[1].total_annotations == 0


def test_eval_report_is_written_as_json_objects():
    assert "per_class" not in EvalReport._field_defaults
    report = score({("d", 0, "qad"), ("d", 1, "sin")}, [("d", 0, "qad")])
    assert report.overall == ClassScore(1, 1, 0)
    written = json.loads(json.dumps(report_to_json_dict(report)))
    assert written["overall"] == {"tp": 1, "fp": 1, "fn": 0,
                                  "precision": "50.00", "recall": "100.00"}
    assert written["per_class"]["sin"]["fp"] == 1


@pytest.mark.parametrize("build", [
    lambda: Lexicons(present_verbs=frozenset({"سيمون"}), proper_nouns=frozenset({"سيمون"})),
    lambda: Lexicons(frozenset({"سيمون"}))._replace(proper_nouns=frozenset({"سيمون"})),
], ids=["new", "replace"])
def test_lexicons_refuse_a_present_verb_that_is_a_proper_noun(build):
    with pytest.raises(ValueError, match="lexicon conflict: .* سيمون"):
        build()


def test_config_compares_every_setting():
    assert Config() == Config()
    changed = Config()
    changed.strict_adjacency = True
    assert changed != Config()
    same = Config()
    same.min_run_chars = Config.min_run_chars  # set to its default
    assert same == Config()
