"""Tests for rule loading and rule-based pair extraction."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spellvar.baseline import RuleError, SurfaceRule, extract_baseline, load_rules

from conftest import make_corpus

# One crafted definition per stock rule, with the pair it must yield.
STOCK_RULE_CASES = [
    ("spelling_dq", "kewl", 'incorrect spelling of "cool"', "cool"),
    ("spelling_sq", "dentisit", "wrong spelling of 'dentist'", "dentist"),
    ("meaning_dq", "bewtuh", 'meaning "better"', "better"),
    ("meaning_sq", "oned", "meaning 'owned'", "owned"),
    ("way_of_saying_dq", "Ogay", 'a gay way of saying "Okay"', "Okay"),
    ("way_of_saying_sq", "heauge", "scouse way of saying 'huge'", "huge"),
    ("form_of_dq", "oof", 'a form of "oops"', "oops"),
    ("form_of_sq", "gr8", "shortened form of 'great'", "great"),
    ("short_for_dq", "fend", 'short for "defend"', "defend"),
    ("short_for_sq", "inet", "short for 'internet'", "internet"),
]


class TestLoadRules:
    def test_default_file_has_ten_rules(self):
        rules = load_rules()
        assert len(rules) == 10
        assert [r.rule_id for r in rules] == [case[0] for case in STOCK_RULE_CASES]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# nothing here\n", encoding="utf-8")
        assert load_rules(path) == []

    def test_non_compiling_pattern_names_rule(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("broken\t(?P<Spelling>[unclosed\n", encoding="utf-8")
        with pytest.raises(RuleError, match="broken"):
            load_rules(path)

    def test_missing_capture_group_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("nogroup\tshort for (\\w+)\n", encoding="utf-8")
        with pytest.raises(RuleError, match="Spelling"):
            load_rules(path)

    def test_wrong_group_name_rejected(self):
        with pytest.raises(RuleError, match="Spelling"):
            SurfaceRule(rule_id="r", pattern_source=r"short for (?P<Word>\w+)")

    def test_duplicate_rule_id_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("r1\tshort for (?P<Spelling>\\w+)\nr1\tmeaning (?P<Spelling>\\w+)\n",
                        encoding="utf-8")
        with pytest.raises(RuleError, match="duplicate"):
            load_rules(path)

    @pytest.mark.parametrize("mark", ["\x0c", "\x85", "\u2028"])
    def test_only_line_breaks_end_a_rule(self, tmp_path, mark):
        path = tmp_path / "rules.tsv"
        path.write_text(f"r1\tshort{mark}for (?P<Spelling>\\w+)\n", encoding="utf-8")
        (rule,) = load_rules(path)
        assert rule.pattern_source == f"short{mark}for (?P<Spelling>\\w+)"

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("just one field\n", encoding="utf-8")
        with pytest.raises(RuleError, match="line 1"):
            load_rules(path)


class TestExtractBaseline:
    @pytest.mark.parametrize("rule_id,headword,definition,formal", STOCK_RULE_CASES)
    def test_each_stock_rule_yields_its_pair(self, rule_id, headword, definition, formal):
        rules = [r for r in load_rules() if r.rule_id == rule_id]
        pairs = extract_baseline(make_corpus((headword, definition)), rules)
        assert [(p.informal, p.formal) for p in pairs] == [(headword, formal)]
        assert pairs[0].score == 1.0
        assert pairs[0].method == "baseline"
        assert pairs[0].rule_id == rule_id

    def test_quoted_way_of_saying(self):
        corpus = make_corpus(("aye", 'scottish way of saying "yes"'))
        pairs = extract_baseline(corpus, load_rules())
        assert [(p.informal, p.formal) for p in pairs] == [("aye", "yes")]

    def test_case_insensitive_match_preserves_captured_casing(self):
        corpus = make_corpus(("okk", 'Short For "OK"'))
        pairs = extract_baseline(corpus, load_rules())
        assert [(p.informal, p.formal) for p in pairs] == [("okk", "OK")]

    def test_identity_pairs_filtered(self):
        corpus = make_corpus(("cool", 'way of saying "cool"'), ("Cool", 'way of saying "cool"'))
        assert extract_baseline(corpus, load_rules()) == []

    def test_duplicates_keep_first_occurrence(self):
        corpus = make_corpus(
            ("inet", "short for 'internet'"),
            ("inet", "short for 'internet', obviously"),
        )
        pairs = extract_baseline(corpus, load_rules())
        assert len(pairs) == 1
        assert pairs[0].source_entry == "e1"

    def test_formal_word_occurs_in_definition(self):
        corpus = make_corpus(
            ("aye", 'way of saying "yes"'),
            ("inet", "short for 'internet'"),
            ("kewl", 'a spelling of "cool" used online'),
        )
        for pair in extract_baseline(corpus, load_rules()):
            assert pair.formal in corpus.entries[int(pair.source_entry[1:]) - 1].definition_text

    def test_deterministic(self):
        corpus = make_corpus(
            ("aye", 'way of saying "yes"'),
            ("gr8", "shortened form of 'great'"),
        )
        rules = load_rules()
        assert extract_baseline(corpus, rules) == extract_baseline(corpus, rules)

    def test_entry_order_then_rule_order(self):
        corpus = make_corpus(
            ("gr8", "shortened form of 'great'"),
            ("aye", 'way of saying "yes"'),
        )
        pairs = extract_baseline(corpus, load_rules())
        assert [p.informal for p in pairs] == ["gr8", "aye"]

    def test_multiple_matches_per_entry(self):
        corpus = make_corpus(("ik", 'short for "intercom" or a way of saying \'indeed\''))
        pairs = extract_baseline(corpus, load_rules())
        assert {p.formal for p in pairs} == {"intercom", "indeed"}

    @given(st.permutations(range(10)))
    def test_adding_rules_never_removes_pairs(self, order):
        corpus = make_corpus(
            ("aye", 'way of saying "yes"'),
            ("inet", "short for 'internet'"),
            ("oof", 'a form of "oops"'),
        )
        rules = load_rules()
        subset = [rules[i] for i in order[:5]]
        extended = subset + [rules[i] for i in order[5:]]
        small = {(p.informal, p.formal) for p in extract_baseline(corpus, subset)}
        large = {(p.informal, p.formal) for p in extract_baseline(corpus, extended)}
        assert small <= large

    def test_no_rules_no_pairs(self):
        assert extract_baseline(make_corpus(("a", "anything")), []) == []
