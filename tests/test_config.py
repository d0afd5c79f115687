from __future__ import annotations

import re
import shutil

import pytest

from arfuture.config import Config, ConfigError, load_config, parse_boundaries
from arfuture.corpus import CorpusError, make_document, read_local_page
from arfuture.resources import data_dir, load_engine, load_lexicons
from arfuture.segment import BOUNDARY_DOT, BOUNDARY_NEWLINE


class TestConfigFile:
    def test_defaults(self):
        cfg = Config().validate()
        assert cfg.min_run_chars == 130
        assert cfg.strict_adjacency is False

    def test_key_value_parsing(self, tmp_path):
        lex = tmp_path / "lex"
        lex.mkdir()
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "min_run_chars = 80\n"
            "boundaries = dot-space, newline\n"
            "strict_adjacency = yes\n"
            f"lexicon_dir = {lex}\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.min_run_chars == 80
        assert cfg.boundaries == frozenset({BOUNDARY_DOT, BOUNDARY_NEWLINE})
        assert cfg.strict_adjacency is True

    def test_missing_path_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rules_path = /no/such/file\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path)

    def test_parallelism_key_refused(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("min_run_chars = 80\nparallelism = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"run\.cfg: line 2: unknown config key 'parallelism'"):
            load_config(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("min_run_chars = x", "bad integer for min_run_chars: 'x'"),
            ("strict_adjacency = maybe", "bad boolean for strict_adjacency: 'maybe'"),
            ("boundaries = dot-space, bogus", "unknown boundary trigger"),
        ],
    )
    def test_bad_value_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"min_run_chars = 80\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"run.cfg: line 2: {message}")):
            load_config(path)

    def test_unknown_key_rejected_with_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("min_run_chars = 80\nparalellism = 4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"run\.cfg: line 2: unknown config key 'paralellism'"):
            load_config(path)

    def test_unknown_boundary_rejected(self):
        with pytest.raises(ConfigError, match="unknown boundary"):
            parse_boundaries("dot-space, bogus")


class TestDataDirOverride:
    def test_env_var_redirects_bundled_data(self, tmp_path, monkeypatch):
        # copy the bundled data, keep a single rule, point the env var at it
        custom = tmp_path / "data"
        shutil.copytree(data_dir(), custom)
        (custom / "rules_future_ar.txt").write_text(
            "sawfa: (و|ف)؟سوف -> مستقبل\n", encoding="utf-8"
        )
        monkeypatch.setenv("SLCSAS_DATA_DIR", str(custom))
        assert data_dir() == custom
        engine = load_engine()
        assert [r.id for r in engine.ruleset] == ["sawfa"]

    def test_without_env_var_uses_package_data(self, monkeypatch):
        monkeypatch.delenv("SLCSAS_DATA_DIR", raising=False)
        assert (data_dir() / "rules_future_ar.txt").exists()


class TestPageDecoding:
    def test_undecodable_page_fails_loudly(self, tmp_path):
        bad = tmp_path / "bad.html"
        bad.write_bytes(b"\xff\xfe\xfa junk without any charset hint \xff")
        with pytest.raises(CorpusError, match="not valid UTF-8"):
            read_local_page(bad)

    @pytest.mark.parametrize("bom, encoding", [
        (b"\xef\xbb\xbf", "utf-8"), (b"\xff\xfe", "utf-16-le"), (b"\xfe\xff", "utf-16-be"),
    ])
    def test_byte_order_mark_gives_the_encoding_and_is_dropped(self, tmp_path, bom, encoding):
        page = tmp_path / "bom.html"
        # the declared charset loses to the byte order mark
        html = '<meta charset="windows-1256"><p>اقتصاد لبنان</p>'
        page.write_bytes(bom + html.encode(encoding))
        assert read_local_page(page).html == html


class TestLexiconExtensions:
    def _labels(self, engine, text):
        from arfuture.corpus import make_document

        doc = make_document(url="http://t/x", title="", body=text)
        return {a.class_label for a in engine.analyze(doc).annotations}

    def test_user_proper_noun_suppresses_sin_hit(self, tmp_path):
        # سيدني looks like a siin future verb until it is stoplisted
        assert "sin" in self._labels(load_engine(), "وصل الوفد الى سيدني مساء")
        user = tmp_path / "lex"
        user.mkdir()
        (user / "proper_nouns.txt").write_text("سيدني\n", encoding="utf-8")
        engine = load_engine(lexicon_dir=user)
        assert "sin" not in self._labels(engine, "وصل الوفد الى سيدني مساء")

    def test_qad_exclusion_list_suppresses_known_false_positive(self, tmp_path):
        assert "qad" in self._labels(load_engine(), "قد يكون الامر مختلفا")
        user = tmp_path / "lex"
        user.mkdir()
        (user / "qad_exclusions.txt").write_text("يكون\n", encoding="utf-8")
        engine = load_engine(lexicon_dir=user)
        assert "qad" not in self._labels(engine, "قد يكون الامر مختلفا")

    def test_lists_are_unioned_and_a_conflict_names_the_directories(self, tmp_path):
        user = tmp_path / "lex"
        user.mkdir()
        (user / "past_verbs.txt").write_text("# extra\nأعلن\n", encoding="utf-8")
        lexicons = load_lexicons(data_dir(), user)
        assert lexicons.past_verbs == load_lexicons(data_dir()).past_verbs | {"أعلن"}
        # يفرض is a bundled present verb
        (user / "proper_nouns.txt").write_text("يفرض\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
            f"{data_dir()}, {user}: lexicon conflict: entries are both present_verb "
            "and proper_noun: يفرض"
        )):
            load_engine(lexicon_dir=user)


class TestByteOrderMark:
    """A data file that starts with a UTF-8 byte-order mark reads as it
    would without one."""

    def test_rules_file(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_bytes("\ufeffsawfa: (و|ف)؟سوف -> مستقبل\n".encode("utf-8"))
        assert [r.id for r in load_engine(rules).ruleset] == ["sawfa"]

    def test_lexicon_file(self, tmp_path):
        user = tmp_path / "lex"
        user.mkdir()
        (user / "proper_nouns.txt").write_bytes("\ufeffسيدني\nسيمون\n".encode("utf-8"))
        assert {"سيدني", "سيمون"} <= load_lexicons(user).proper_nouns
        # its first word is matched: سيدني is stoplisted, not read as a siin verb
        doc = make_document(url="http://t/x", title="", body="وصل الوفد الى سيدني مساء")
        annotations = load_engine(lexicon_dir=user).analyze(doc).annotations
        assert "sin" not in {a.class_label for a in annotations}
