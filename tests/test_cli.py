"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import ast
import codecs
import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spellvar.cli import _COMMANDS, _build_parser, _flag, main
from spellvar.corpus import read_pairs_tsv
from spellvar.crf import load_model
from spellvar.selftrain import self_train

SRC = Path(__file__).resolve().parents[1] / "src"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_corpus(tmp_path, records, name="corpus.jsonl"):
    return write_lines(tmp_path / name, [json.dumps(r) for r in records])


def read_truth(path):
    return {
        tuple(line.split("\t"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line
    }


@pytest.fixture()
def baseline_corpus(tmp_path):
    return write_corpus(tmp_path, [
        {"word": "aye", "definition": 'scottish way of saying "yes"'},
        {"word": "inet", "definition": "short for 'internet'"},
        {"word": "plain", "definition": "nothing to extract here"},
    ])


class TestExtractBaseline:
    def test_writes_pairs_trace_and_manifest(self, tmp_path, baseline_corpus, capsys):
        out = tmp_path / "out"
        code = main(["extract", "--method", "baseline",
                     "--corpus", str(baseline_corpus), "--out", str(out)])
        assert code == 0
        pairs = read_pairs_tsv(out / "pairs.tsv")
        assert {(p.informal, p.formal) for p in pairs} == {("aye", "yes"), ("inet", "internet")}
        lines = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        trace = [json.loads(line) for line in lines]
        assert len(trace) == 10
        assert sum(r["matches"] for r in trace) == 2
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "extract"
        assert manifest["outputs"] == ["pairs.tsv", "trace.jsonl"]
        assert "wrote 2 pairs" in capsys.readouterr().out

    def test_missing_method(self, tmp_path, baseline_corpus):
        code = main(["extract", "--corpus", str(baseline_corpus),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_unknown_method(self, tmp_path, baseline_corpus, capsys):
        code = main(["extract", "--method", "foo", "--corpus", str(baseline_corpus),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "unknown method 'foo'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_corpus_is_a_data_error(self, tmp_path, capsys):
        bad = write_lines(tmp_path / "bad.jsonl", ["{not json"])
        code = main(["extract", "--method", "baseline",
                     "--corpus", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_deeply_nested_line_names_file_and_line(self, tmp_path, baseline_corpus, capsys):
        corpus = tmp_path / "nested.jsonl"
        corpus.write_text(baseline_corpus.read_text(encoding="utf-8") + "[" * 100_000 + "\n",
                          encoding="utf-8")
        code = main(["extract", "--method", "baseline", "--corpus", str(corpus),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {corpus}: line 4: invalid JSON: ")

    def test_lone_surrogate_names_file_and_line(self, tmp_path, baseline_corpus, capsys):
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_text(baseline_corpus.read_text(encoding="utf-8")
                          + '{"word": "\\ud800", "definition": "short for \'mate\'"}\n',
                          encoding="utf-8")
        out = tmp_path / "out"
        code = main(["extract", "--method", "baseline", "--corpus", str(corpus),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {corpus}: line 4: field 'word' is not UTF-8 text: ")
        assert not (out / "pairs.tsv").exists()

    @pytest.mark.parametrize("command", ["extract", "annotate"])
    def test_boolean_vote_count_names_file_and_line(self, tmp_path, command, capsys):
        corpus = write_corpus(tmp_path, [
            {"word": "aye", "definition": "way of saying yes", "entry_id": "e1",
             "upvotes": True},
        ])
        options = ["--method", "baseline"] if command == "extract" else []
        code = main([command, *options, "--corpus", str(corpus), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}: line 1: entry 'e1': upvotes must be a non-negative integer\n")

    def test_bad_rule_pattern_names_file_and_line(self, tmp_path, baseline_corpus, capsys):
        rules = write_lines(tmp_path / "rules.tsv", ["# rules", "r1\t(?P<Spelling>[unclosed"])
        code = main(["extract", "--method", "baseline", "--corpus", str(baseline_corpus),
                     "--rules", str(rules), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {rules}: line 2: rule 'r1': invalid pattern: ")

    def test_undecodable_rules_name_file_and_line(self, tmp_path, baseline_corpus, capsys):
        rules = tmp_path / "rules.tsv"
        rules.write_bytes(b"# rules\nr1\tcaf\xe9 for (?P<Spelling>\\w+)\n")
        code = main(["extract", "--method", "baseline", "--corpus", str(baseline_corpus),
                     "--rules", str(rules), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {rules}: line 2: not UTF-8: byte 0xe9\n"

    @pytest.mark.parametrize("field, value", [
        ("word", "m8\tfoo"), ("word", "u\nr"), ("word", "u\rr"), ("entry_id", "p\t1")])
    def test_field_with_a_tab_or_line_break_names_file_and_line(self, tmp_path, field, value,
                                                                capsys):
        record = {"word": "m8", "definition": "short for 'mate'", field: value}
        corpus = write_corpus(tmp_path, [{"word": "aye", "definition": "x"}, record])
        out = tmp_path / "out"
        code = main(["extract", "--method", "baseline", "--corpus", str(corpus),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}: line 2: field {field!r} holds a tab or line break\n")
        assert not out.exists()

    def test_rule_capturing_a_tab_writes_nothing(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, [{"word": "m8", "definition": "short for 'ma\tte'"}])
        rules = write_lines(tmp_path / "rules.tsv", ["r1\tshort for '(?P<Spelling>[^']+)'"])
        out = tmp_path / "out"
        code = main(["extract", "--method", "baseline", "--corpus", str(corpus),
                     "--rules", str(rules), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: field 'formal' holds a tab or line break\n"
        assert not out.exists()

    def test_unknown_flag(self, tmp_path, baseline_corpus):
        code = main(["extract", "--method", "baseline", "--corpus", str(baseline_corpus),
                     "--out", str(tmp_path / "out"), "--bogus"])
        assert code == 1


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted")
    code = main(["gen-synthetic", "--kind", "bootstrap", "--out", str(out),
                 "--entries", "80", "--n-pairs", "12", "--n-seeds", "3",
                 "--n-traps", "2", "--seed", "0"])
    assert code == 0
    return out


class TestExtractBootstrap:
    def test_recovers_planted_pairs(self, tmp_path, planted):
        out = tmp_path / "out"
        code = main(["extract", "--method", "bootstrap",
                     "--corpus", str(planted / "corpus.jsonl"),
                     "--seeds", str(planted / "seeds.tsv"), "--out", str(out)])
        assert code == 0
        truth = read_truth(planted / "truth.tsv")
        extracted = {(p.informal, p.formal) for p in read_pairs_tsv(out / "pairs.tsv")}
        assert extracted
        assert extracted <= truth

    def test_reruns_are_byte_identical(self, tmp_path, planted):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(["extract", "--method", "bootstrap",
                         "--corpus", str(planted / "corpus.jsonl"),
                         "--seeds", str(planted / "seeds.tsv"), "--out", str(out)])
            assert code == 0
            outputs.append(out)
        for name in ("pairs.tsv", "trace.jsonl"):
            first = (outputs[0] / name).read_bytes()
            second = (outputs[1] / name).read_bytes()
            assert first == second

    def test_zero_iterations_yields_no_pairs(self, tmp_path, planted):
        out = tmp_path / "out"
        code = main(["extract", "--method", "bootstrap", "--iterations", "0",
                     "--corpus", str(planted / "corpus.jsonl"),
                     "--seeds", str(planted / "seeds.tsv"), "--out", str(out)])
        assert code == 0
        assert read_pairs_tsv(out / "pairs.tsv") == []

    def test_missing_seeds_file_names_path(self, tmp_path, planted, capsys):
        ghost = tmp_path / "no-such-seeds.tsv"
        code = main(["extract", "--method", "bootstrap",
                     "--corpus", str(planted / "corpus.jsonl"),
                     "--seeds", str(ghost), "--out", str(tmp_path / "out")])
        assert code == 1
        assert str(ghost) in capsys.readouterr().err

    def test_undecodable_seeds_name_file_and_line(self, tmp_path, planted, capsys):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_bytes((planted / "seeds.tsv").read_bytes() + b"caf\xff\tcafe\n")
        code = main(["extract", "--method", "bootstrap",
                     "--corpus", str(planted / "corpus.jsonl"),
                     "--seeds", str(seeds), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {seeds}: line 4: not UTF-8: byte 0xff\n"

    @pytest.mark.parametrize("row, side", [("aye\t", "formal"), (" \tyes", "informal")])
    def test_seed_with_an_empty_side_names_file_and_line(self, tmp_path, planted, row, side,
                                                         capsys):
        seeds = write_lines(tmp_path / "seeds.tsv", ["ur\tyour", row])
        code = main(["extract", "--method", "bootstrap",
                     "--corpus", str(planted / "corpus.jsonl"),
                     "--seeds", str(seeds), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {seeds}: line 2: empty {side} side\n"

    def test_identity_seed_names_file_and_line(self, tmp_path, planted, capsys):
        seeds = write_lines(tmp_path / "seeds.tsv", ["ur\tyour", "Mate\tmate"])
        code = main(["extract", "--method", "bootstrap",
                     "--corpus", str(planted / "corpus.jsonl"),
                     "--seeds", str(seeds), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {seeds}: line 2: identity pair 'mate'\n"

    @pytest.mark.parametrize("lines", [[], ["# no seeds yet", ""]])
    def test_seed_file_without_a_pair_is_a_data_error(self, tmp_path, planted, lines, capsys):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = main(["extract", "--method", "bootstrap",
                     "--corpus", str(planted / "corpus.jsonl"),
                     "--seeds", str(seeds), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {seeds}: no seed pairs\n"

    def test_out_of_range_alpha(self, tmp_path, planted, capsys):
        code = main(["extract", "--method", "bootstrap", "--alpha", "0.2",
                     "--corpus", str(planted / "corpus.jsonl"),
                     "--seeds", str(planted / "seeds.tsv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "0.7" in capsys.readouterr().err


@pytest.fixture()
def no_input_read(monkeypatch):
    """Make reading a corpus or running the penalty search fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("called before every option was checked")
    monkeypatch.setattr("spellvar.cli.load_jsonl", forbidden)
    monkeypatch.setattr("spellvar.cli.random_search", forbidden)


class TestOptionsCheckedFirst:
    @pytest.mark.parametrize("with_seeds, extra", [
        (False, []), (True, ["--alpha", "0.2"]), (True, ["--l1", "0.1"]),
    ])
    def test_bootstrap(self, tmp_path, planted, no_input_read, with_seeds, extra):
        seeds = ["--seeds", str(planted / "seeds.tsv")] if with_seeds else []
        code = main(["extract", "--method", "bootstrap", "--corpus",
                     str(planted / "corpus.jsonl"), *seeds, *extra,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, message", [
        (["--window", "0"], "window must be >= 1"),
        (["--confidence", "0.5"], "confidence_tau must lie in"),
        (["--l1", "-1"], "penalties must be non-negative"),
        (["--search-folds", "1"], "folds must be >= 2"),
        (["--alpha", "0.99", "--tau", "3"], "unused option(s): --alpha, --tau"),
        (["--l1", "nan"], "penalties must be non-negative and finite"),
        (["--l2", "inf"], "penalties must be non-negative and finite"),
    ])
    def test_selftrain(self, tmp_path, staged, no_input_read, extra, message, capsys):
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"),
                     "--gold-tags", str(staged / "gold.tags"),
                     "--search-trials", "10", *extra, "--out", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (["--search-trials", "3", "--l1", "0.1"], "--l1 cannot be used with --search-trials"),
        (["--search-trials", "3", "--l2", "0.1"], "--l2 cannot be used with --search-trials"),
        (["--l1", "0.1", "--l2", "0.2", "--search-trials", "1"], "--l1, --l2 cannot be used with"),
        (["--search-folds", "4"], "--search-folds cannot be used without --search-trials"),
        (["--search-trials", "0", "--search-folds", "3"], "--search-folds cannot be used without"),
    ])
    def test_options_a_search_makes_moot(self, tmp_path, staged, no_input_read, extra, message,
                                         capsys):
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"),
                     "--gold-tags", str(staged / "gold.tags"), *extra,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("lines, flags, message", [
        (["l1 = 0.1", "search_trials = 2"], [], "--l1 cannot be used with"),
        (["l2 = 0.1"], ["--search-trials", "2"], "--l2 cannot be used with"),
        (["search_folds = 4"], [], "--search-folds cannot be used without"),
    ])
    def test_moot_options_from_the_ini_file(self, tmp_path, staged, no_input_read, lines, flags,
                                            message, capsys):
        config = write_lines(tmp_path / "run.ini", ["[extract]", *lines])
        code = main(["extract", "--config", str(config), "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"),
                     "--gold-tags", str(staged / "gold.tags"), *flags,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["extract", "--method", "baseline", "--corpus", "{corpus}"],
        ["correlate", "--intrinsic", "{corpus}", "--extrinsic", "{corpus}", "--keys", "k"],
        ["annotate", "--corpus", "{corpus}"],
        ["gen-synthetic", "--kind", "bootstrap"],
        ["eval", "--pairs", "{pairs}", "--embeddings", "{embeddings}",
         "--formal-vocab", "{vocab}"],
    ])
    def test_out_naming_a_file_is_refused_before_any_input_is_read(
            self, tmp_path, baseline_corpus, eval_inputs, no_input_read, monkeypatch, command,
            capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("input read before --out was checked")
        for name in ("load_embeddings", "read_pairs_tsv", "_read_table", "bootstrap_fixture"):
            monkeypatch.setattr(f"spellvar.cli.{name}", forbidden)
        pairs, embeddings, vocab = eval_inputs
        names = {"corpus": baseline_corpus, "pairs": pairs, "embeddings": embeddings,
                 "vocab": vocab}
        out = write_lines(tmp_path / "out", ["kept"])
        code = main([arg.format(**names) for arg in command] + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {out}: Not a directory\n"
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_negative_search_trials(self, tmp_path, staged, capsys):
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"),
                     "--gold-tags", str(staged / "gold.tags"),
                     "--search-trials", "-1", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "--search-trials" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    out = tmp_path_factory.mktemp("staged")
    code = main(["gen-synthetic", "--kind", "selftrain", "--out", str(out), "--seed", "0"])
    assert code == 0
    return out


class TestExtractSelftrain:
    def test_end_to_end(self, tmp_path, staged, capsys):
        out = tmp_path / "out"
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"),
                     "--gold-tags", str(staged / "gold.tags"),
                     "--l1", "0.02", "--l2", "0.03", "--out", str(out)])
        assert code == 0
        assert "warning" not in capsys.readouterr().err
        truth = read_truth(staged / "truth.tsv")
        pairs = read_pairs_tsv(out / "pairs.tsv")
        assert pairs
        assert {(p.informal, p.formal) for p in pairs} <= truth
        for pair in pairs:
            assert pair.method == "crf"
            assert pair.score > 0.9
        model = load_model(out / "model.json")
        assert model.window == 3

    def test_no_pairs_warns_with_the_penalties(self, tmp_path, staged, capsys):
        # The default penalties zero every state weight on this fixture.
        out = tmp_path / "out"
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"),
                     "--gold-tags", str(staged / "gold.tags"), "--out", str(out)])
        assert code == 0
        assert read_pairs_tsv(out / "pairs.tsv") == []
        err = capsys.readouterr().err
        assert "warning" in err and "--l1 2.35" in err and "--l2 0.08" in err

    @pytest.mark.parametrize("records", [[], [{"word": "aye", "definition": " ",
                                               "entry_id": "u1"}]], ids=["no-entry", "no-token"])
    def test_nothing_to_tag_warns_about_the_corpus(self, tmp_path, staged, records, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["extract", "--method", "selftrain", "--corpus", str(corpus),
                     "--gold-corpus", str(staged / "gold.jsonl"),
                     "--gold-tags", str(staged / "gold.tags"),
                     "--l1", "0.02", "--l2", "0.03", "--out", str(out)])
        assert code == 0
        assert read_pairs_tsv(out / "pairs.tsv") == []
        assert capsys.readouterr().err == (
            "warning: extract: no --corpus entry has tokens, so self-training had nothing to "
            "tag\n")

    # Each cause the warning names before the penalties, with the tags and
    # flags that bring it about on this fixture.
    @pytest.mark.parametrize("no_i, extra, cause", [
        (False, ["--iterations", "0"], "ran no round with --iterations 0"),
        (True, [], "found no pairs: no tag in --gold-tags {tags} is I, so the tagger cannot "
                   "learn to mark a token I"),
    ], ids=["no-round", "no-gold-i"])
    def test_no_pairs_warns_with_the_cause(self, tmp_path, staged, no_i, extra, cause, capsys):
        tags = tmp_path / "gold.tags"
        text = (staged / "gold.tags").read_text(encoding="utf-8")
        tags.write_text(text.replace("\tI\n", "\tO\n") if no_i else text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"), "--gold-tags", str(tags),
                     *extra, "--l1", "0.02", "--l2", "0.03", "--out", str(out)])
        assert code == 0
        assert read_pairs_tsv(out / "pairs.tsv") == []
        assert capsys.readouterr().err == (
            f"warning: extract: self-training {cause.format(tags=tags)}\n")

    def test_gold_tag_mismatch_is_a_data_error(self, tmp_path, staged, capsys):
        truncated = tmp_path / "gold.tags"
        blocks = (staged / "gold.tags").read_text(encoding="utf-8").split("\n\n")
        truncated.write_text("\n\n".join(blocks[:3]), encoding="utf-8")
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"),
                     "--gold-tags", str(truncated), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "tag blocks" in capsys.readouterr().err

    def test_gold_surface_mismatch_names_the_tags_and_the_entry(self, tmp_path, staged, capsys):
        blocks = (staged / "gold.tags").read_text(encoding="utf-8").split("\n\n")
        blocks[1] = blocks[1].replace("zelu\t", "zelux\t", 1)
        tags = tmp_path / "gold.tags"
        tags.write_text("\n\n".join(blocks), encoding="utf-8")
        second = json.loads((staged / "gold.jsonl").read_text(encoding="utf-8").splitlines()[1])
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"), "--gold-tags", str(tags),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tags}: entry {second['entry_id']!r}: surfaces do not match the corpus "
            f"tokens\n")
        assert not (tmp_path / "out").exists()

    def test_gold_entry_without_tokens_names_the_entry(self, tmp_path, staged, capsys):
        lines = (staged / "gold.jsonl").read_text(encoding="utf-8").splitlines()
        gold = write_lines(tmp_path / "gold.jsonl", [
            *lines, json.dumps({"word": "aye", "definition": " ", "entry_id": "blank"})])
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(gold), "--gold-tags", str(staged / "gold.tags"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {gold}: entry 'blank' has no tokens, and a tag file cannot hold an empty "
            f"block\n")


    def test_entry_id_in_both_corpora_names_both_files(self, tmp_path, staged, capsys):
        # Entries without an entry_id are named e1, e2, ... in either file.
        def without_ids(name):
            records = [json.loads(line)
                       for line in (staged / name).read_text(encoding="utf-8").splitlines()]
            return write_corpus(tmp_path, [{k: v for k, v in record.items() if k != "entry_id"}
                                           for record in records], name)

        gold, corpus = without_ids("gold.jsonl"), without_ids("unlabeled.jsonl")
        code = main(["extract", "--method", "selftrain", "--corpus", str(corpus),
                     "--gold-corpus", str(gold), "--gold-tags", str(staged / "gold.tags"),
                     "--l1", "0.02", "--l2", "0.03", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: entry_id 'e1' is in both --gold-corpus {gold} and --corpus {corpus}; "
            f"an entry without an entry_id is named e<line number>\n")
        assert not (tmp_path / "out").exists()

    def test_empty_gold_corpus_names_the_file(self, tmp_path, staged, capsys):
        gold = write_lines(tmp_path / "gold.jsonl", [""])
        tags = write_lines(tmp_path / "gold.tags", [""])
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(gold), "--gold-tags", str(tags),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {gold}: self-training needs gold data\n"

    def test_fewer_gold_entries_than_folds_names_the_file(self, tmp_path, staged, capsys):
        gold = write_lines(tmp_path / "gold.jsonl",
                           (staged / "gold.jsonl").read_text(encoding="utf-8").splitlines()[:2])
        blocks = (staged / "gold.tags").read_text(encoding="utf-8").split("\n\n")
        tags = write_lines(tmp_path / "gold.tags", ["\n\n".join(blocks[:2])])
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(gold), "--gold-tags", str(tags),
                     "--search-trials", "1", "--search-folds", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {gold}: need at least 3 sequences for 3-fold search, got 2\n")

    def _run_tags(self, tmp_path, staged, tags):
        return main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"), "--gold-tags", str(tags),
                     "--iterations", "1", "--l1", "0.02", "--l2", "0.03",
                     "--out", str(tmp_path / "out")])

    def test_undecodable_gold_tags_name_file_and_line(self, tmp_path, staged, capsys):
        lines = (staged / "gold.tags").read_bytes().split(b"\n")
        lines[5] = lines[5].replace(b"\t", b"\xff\t", 1)
        tags = tmp_path / "gold.tags"
        tags.write_bytes(b"\n".join(lines))
        assert self._run_tags(tmp_path, staged, tags) == 2
        assert capsys.readouterr().err == f"error: {tags}: line 6: not UTF-8: byte 0xff\n"

    def test_gold_tags_with_a_byte_order_mark_load(self, tmp_path, staged):
        tags = tmp_path / "gold.tags"
        tags.write_bytes(codecs.BOM_UTF8 + (staged / "gold.tags").read_bytes())
        assert self._run_tags(tmp_path, staged, tags) == 0
        assert read_pairs_tsv(tmp_path / "out" / "pairs.tsv")

    def test_failed_write_leaves_the_last_run_in_place(self, tmp_path, staged, monkeypatch,
                                                       capsys):
        out = tmp_path / "out"
        assert self._run_tags(tmp_path, staged, staged / "gold.tags") == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def disk_full(model, path):
            Path(path).write_text("{", encoding="utf-8")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("spellvar.cli.save_model", disk_full)
        code = main(["extract", "--method", "selftrain",
                     "--corpus", str(staged / "unlabeled.jsonl"),
                     "--gold-corpus", str(staged / "gold.jsonl"),
                     "--gold-tags", str(staged / "gold.tags"),
                     "--iterations", "2", "--l1", "0.02", "--l2", "0.03", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            f"error: {out / 'model.json'}: No space left on device\n")
        # Every file is as the first run left it, and no temporary name is left.
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


class TestAnnotationsFile:
    @pytest.fixture()
    def conllu(self, tmp_path, baseline_corpus):
        assert main(["annotate", "--corpus", str(baseline_corpus),
                     "--out", str(tmp_path / "parsed")]) == 0
        return (tmp_path / "parsed" / "annotated.conllu").read_bytes()

    def _extract(self, tmp_path, corpus, annotations):
        return main(["extract", "--method", "baseline", "--corpus", str(corpus),
                     "--annotations", str(annotations), "--out", str(tmp_path / "out")])

    def test_undecodable_annotations_name_file_and_line(self, tmp_path, baseline_corpus,
                                                        conllu, capsys):
        lines = conllu.split(b"\n")
        lines[2] = lines[2].replace(b"\t", b"\t\xff", 1)
        annotations = tmp_path / "bad.conllu"
        annotations.write_bytes(b"\n".join(lines))
        assert self._extract(tmp_path, baseline_corpus, annotations) == 2
        assert (capsys.readouterr().err
                == f"error: {annotations}: line 3: not UTF-8: byte 0xff\n")

    def test_annotations_with_a_byte_order_mark_load(self, tmp_path, baseline_corpus, conllu):
        # The mark sits before a comment line, which must still read as one.
        annotations = tmp_path / "bom.conllu"
        annotations.write_bytes(codecs.BOM_UTF8 + b"# parsed\n" + conllu)
        assert self._extract(tmp_path, baseline_corpus, annotations) == 0
        assert len(read_pairs_tsv(tmp_path / "out" / "pairs.tsv")) == 2


    def test_empty_definition_reads_back(self, tmp_path):
        corpus = write_corpus(tmp_path, [
            {"word": "aye", "definition": 'scottish way of saying "yes"'},
            {"word": "blank", "definition": ""},
            {"word": "inet", "definition": "short for 'internet'"},
        ])
        assert main(["annotate", "--corpus", str(corpus), "--out", str(tmp_path / "parsed")]) == 0
        assert self._extract(tmp_path, corpus, tmp_path / "parsed" / "annotated.conllu") == 0
        pairs = read_pairs_tsv(tmp_path / "out" / "pairs.tsv")
        assert {(p.informal, p.formal) for p in pairs} == {("aye", "yes"), ("inet", "internet")}


def write_eval_inputs(root):
    pairs = write_lines(root / "pairs.tsv", [
        "informal\tformal\tscore\tmethod\torigin\tentry_id",
        "inf0\tfrm0\t1.0\tbaseline\tr\te1",
        "inf1\tfrm1\t1.0\tbaseline\tr\te2",
    ])
    embeddings = write_lines(root / "vectors.txt", [
        "inf0 1 0 0",
        "frm0 1 0 0",
        "inf1 0 1 0",
        "frm1 0 1 0",
        "bg0 0 0 1",
        "bg1 0.5 0.5 0",
    ])
    vocab = write_lines(root / "vocab.txt", ["frm0", "frm1"])
    return pairs, embeddings, vocab


@pytest.fixture()
def eval_inputs(tmp_path):
    return write_eval_inputs(tmp_path)


class TestEval:
    def test_identical_vectors_rank_first(self, tmp_path, eval_inputs, capsys):
        pairs, embeddings, vocab = eval_inputs
        out = tmp_path / "out"
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--ks", "1,3", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "00_vectors.summary.json").read_text(encoding="utf-8"))
        assert summary["matched_pairs"] == 2
        assert summary["accuracy"]["1"] == 1.0
        report_lines = (out / "00_vectors.report.tsv").read_text(encoding="utf-8").splitlines()
        assert report_lines[0] == "informal\tformal\trank\tnote"
        assert report_lines[1].split("\t")[2] == "1"
        out_text = capsys.readouterr().out
        assert "accuracy@1=1.0000" in out_text
        assert (f"{embeddings}: misses formal-not-in-vocab=0 informal-not-in-table=0 "
                "formal-not-in-table=0") in out_text

    def test_misses_printed_by_reason(self, tmp_path, eval_inputs, capsys):
        _, embeddings, vocab = eval_inputs
        pairs = write_lines(tmp_path / "pairs.tsv", [
            "informal\tformal\tscore\tmethod\torigin\tentry_id",
            "inf0\tfrm0\t1.0\tbaseline\tr\te1",
            "ghost\tfrm1\t1.0\tbaseline\tr\te2",
            "inf1\tbg0\t1.0\tbaseline\tr\te3",
            "inf1\tunseen\t1.0\tbaseline\tr\te4",
        ])
        vocab = write_lines(tmp_path / "vocab.txt", ["frm0", "frm1", "unseen"])
        out = tmp_path / "out"
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{embeddings}: matched=1 ")
        assert lines[1] == (f"{embeddings}: misses formal-not-in-vocab=1 "
                            "informal-not-in-table=1 formal-not-in-table=1")

    def test_two_embedding_files_two_reports(self, tmp_path, eval_inputs):
        pairs, embeddings, vocab = eval_inputs
        second = tmp_path / "other.txt"
        second.write_text(embeddings.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["eval", "--pairs", str(pairs),
                     "--embeddings", str(embeddings), str(second),
                     "--formal-vocab", str(vocab), "--out", str(out)])
        assert code == 0
        assert (out / "00_vectors.summary.json").is_file()
        assert (out / "01_other.summary.json").is_file()
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert len(manifest["outputs"]) == 4

    def test_bad_table_after_a_good_one_writes_nothing(self, tmp_path, eval_inputs, capsys):
        pairs, embeddings, vocab = eval_inputs
        broken = write_lines(tmp_path / "broken.txt", ["a 1 0", "b 1 oops"])
        out = tmp_path / "out"
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     str(broken), "--formal-vocab", str(vocab), "--out", str(out)])
        assert code == 2
        assert f"{broken}: line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_a_one_line_error(self, tmp_path, eval_inputs, capsys):
        pairs, embeddings, vocab = eval_inputs
        out = pairs / "x"
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {out}: Not a directory\n"

    def test_bad_embedding_line_is_a_data_error(self, tmp_path, eval_inputs, capsys):
        pairs, _, vocab = eval_inputs
        broken = write_lines(tmp_path / "broken.txt", ["a 1 0", "b 1 oops"])
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(broken),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_numeric_pair_score_names_file_and_line(self, tmp_path, eval_inputs, capsys):
        _, embeddings, vocab = eval_inputs
        pairs = write_lines(tmp_path / "bad_pairs.tsv", [
            "informal\tformal\tscore\tmethod\torigin\tentry_id",
            "inf0\tfrm0\t1.0\tbaseline\tr\te1",
            "inf1\tfrm1\tx\tbaseline\tr\te2",
        ])
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(pairs) in err
        assert "line 3" in err

    def test_pair_with_an_empty_side_names_file_and_line(self, tmp_path, eval_inputs, capsys):
        _, embeddings, vocab = eval_inputs
        pairs = write_lines(tmp_path / "bad_pairs.tsv", [
            "informal\tformal\tscore\tmethod\torigin\tentry_id",
            "inf0\tfrm0\t1.0\tbaseline\tr\te1",
            "\tfrm1\t1.0\tbaseline\tr\te2",
        ])
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {pairs}: line 3: empty informal side\n"

    def test_nan_vector_is_a_data_error(self, tmp_path, eval_inputs, capsys):
        pairs, embeddings, vocab = eval_inputs
        lines = embeddings.read_text(encoding="utf-8").splitlines()
        lines[0] = "inf0 nan 0 0"
        broken = write_lines(tmp_path / "nan.txt", lines)
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(broken),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'inf0'" in capsys.readouterr().err

    def test_unmatched_vocab_is_a_data_error(self, tmp_path, eval_inputs, capsys):
        pairs, embeddings, _ = eval_inputs
        empty_vocab = write_lines(tmp_path / "empty.txt", ["unrelated"])
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(empty_vocab), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "no evaluable pairs" in capsys.readouterr().err

    def test_no_evaluable_pair_names_the_pairs_and_the_table(self, tmp_path, eval_inputs,
                                                             capsys):
        pairs, embeddings, _ = eval_inputs
        vocab = write_lines(tmp_path / "other.txt", ["unrelated"])
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pairs} against {embeddings}: no evaluable pairs\n")

    @pytest.mark.parametrize("method", ["bootstrap", "crf"])
    @pytest.mark.parametrize("origin", ["r", "-3"])
    def test_bad_origin_names_file_and_line(self, tmp_path, eval_inputs, method, origin,
                                            capsys):
        _, embeddings, vocab = eval_inputs
        pairs = write_lines(tmp_path / "bad_pairs.tsv", [
            "informal\tformal\tscore\tmethod\torigin\tentry_id",
            f"inf0\tfrm0\t0.5\t{method}\t1\te1",
            f"inf1\tfrm1\t0.5\t{method}\t{origin}\te2",
        ])
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pairs}: line 3: origin {origin!r} is not an iteration number\n")

    @pytest.mark.parametrize("method, score, shown", [
        ("bootstrap", "nan", "nan"), ("bootstrap", "1e999", "inf"), ("crf", "nan", "nan"),
    ])
    def test_non_finite_score_names_file_and_line(self, tmp_path, eval_inputs, method, score,
                                                  shown, capsys):
        _, embeddings, vocab = eval_inputs
        pairs = write_lines(tmp_path / "bad_pairs.tsv", [
            "informal\tformal\tscore\tmethod\torigin\tentry_id",
            f"inf0\tfrm0\t0.5\t{method}\t1\te1",
            f"inf1\tfrm1\t{score}\t{method}\t1\te2",
        ])
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pairs}: line 3: score {shown} is not finite\n")

    def test_missing_pairs_option(self, tmp_path, eval_inputs):
        _, embeddings, vocab = eval_inputs
        code = main(["eval", "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_missing_embeddings_path(self, tmp_path, eval_inputs, capsys):
        pairs, _, vocab = eval_inputs
        ghost = tmp_path / "ghost.txt"
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(ghost),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: --embeddings: path does not exist: {ghost}\n"
        assert not (tmp_path / "out").exists()

    def test_unparseable_ks(self, tmp_path, eval_inputs, capsys):
        pairs, embeddings, vocab = eval_inputs
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--ks", "1,two",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "--ks" in capsys.readouterr().err


    def test_zero_cutoff_is_a_usage_error(self, tmp_path, eval_inputs, capsys):
        pairs, embeddings, vocab = eval_inputs
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--ks=0", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "--ks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count, code", [(5, 2), (2, 2), (3, 0)])
    def test_header_count_must_match_the_vector_lines(self, tmp_path, eval_inputs, count, code,
                                                      capsys):
        pairs, _, vocab = eval_inputs
        # Three vector lines: a duplicate word counts, a blank line does not.
        table = write_lines(tmp_path / "counted.txt",
                            [f"{count} 2", "inf0 1 0", "", "frm0 1 0", "inf0 0 1"])
        result = main(["eval", "--pairs", str(pairs), "--embeddings", str(table),
                       "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert result == code
        if code:
            assert capsys.readouterr().err == (
                f"error: {table}: line 1: header says {count} vectors, found 3\n")

    @pytest.mark.parametrize("flag", ["--pairs", "--embeddings", "--formal-vocab"])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, eval_inputs, flag, capsys):
        paths = dict(zip(["--pairs", "--embeddings", "--formal-vocab"], eval_inputs))
        lines = paths[flag].read_bytes().splitlines(keepends=True)
        # Far past the decoder's first 8 KiB chunk, whose start an offset
        # into the chunk would point at.
        lines += lines[-1:] * 3000
        bad_line = len(lines) + 1
        lines += [lines[-1][:2] + b"\xff" + lines[-1][2:], lines[-1]]
        paths[flag] = tmp_path / f"bad{paths[flag].suffix}"
        paths[flag].write_bytes(b"".join(lines))
        argv = ["eval", "--out", str(tmp_path / "out")]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {paths[flag]}: line {bad_line}: not UTF-8: byte 0xff\n")

    def test_manifest_records_the_cutoffs_used(self, tmp_path, eval_inputs):
        pairs, embeddings, vocab = eval_inputs
        out = tmp_path / "out"
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--ks", "3,1,1", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        summary = json.loads((out / "00_vectors.summary.json").read_text(encoding="utf-8"))
        assert manifest["options"]["ks"] == [1, 3]
        assert list(summary["accuracy"]) == ["1", "3"]


FUZZ_WORDS = ["inf0", "frm0", "inf1", "frm1", "bg0"]
FUZZ_NUMBERS = ["1", "0", "-0.5", "3e-2", "1_000", "\uff12"]
FUZZ_PIECES = FUZZ_WORDS + FUZZ_NUMBERS + [
    "nan", "1e999", "x", "\u00e9", " ", "\t", "\x0b", "\xa0", "\n", "\r\n", "\r", "\x00", "2 3"]


def file_bytes(*kinds, splice):
    """Bytes of a text file drawn from one of ``kinds``, maybe with a draw of
    ``splice`` spliced in, maybe behind a byte-order mark."""
    @st.composite
    def build(draw):
        data = draw(st.one_of(*kinds))
        if draw(st.booleans()):
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(splice) + data[at:]
        return draw(st.sampled_from([b"", codecs.BOM_UTF8])) + data
    return build()


def runs_of(pieces):
    return st.lists(st.sampled_from(pieces), max_size=40).map("".join).map(str.encode)


ANY_TEXT = st.text(max_size=40).map(str.encode)
ANY_BYTES = st.binary(max_size=40)
PIECE_OR_BYTES = st.binary(min_size=1, max_size=2) | st.sampled_from(FUZZ_PIECES).map(str.encode)


def embedding_bytes():
    """A table of the eval fixture's words, a run of table-like pieces, any
    text or any bytes."""
    rows = st.tuples(st.sampled_from(FUZZ_WORDS),
                     st.lists(st.sampled_from(FUZZ_NUMBERS), min_size=3, max_size=3))
    table = st.lists(rows, min_size=1, max_size=6).map(
        lambda table: "".join(f"{word} {' '.join(vector)}\n" for word, vector in table)
    ).map(str.encode)
    return file_bytes(table, runs_of(FUZZ_PIECES), ANY_TEXT, ANY_BYTES, splice=PIECE_OR_BYTES)


@settings(max_examples=200, deadline=None)
@given(embedding_bytes())
def test_eval_on_any_embedding_bytes_exits_0_or_2(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("fuzz")
    pairs, embeddings, vocab = write_eval_inputs(root)
    embeddings.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--formal-vocab", str(vocab), "--out", str(root / "out")])
    assert code in (0, 2)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# Line ends a text reader may meet; only the first four end a line.
LINE_ENDS = ["\n", "\r\n", "\r", "\n\n", "\x0c", "\x85", "\u2028"]


def lines_of(row):
    """Up to six rows drawn from ``row``, each ended by one of ``LINE_ENDS``."""
    return st.lists(st.tuples(row, st.sampled_from(LINE_ENDS)), max_size=6).map(
        lambda rows: "".join(text + end for text, end in rows).encode())


def tab_row(*columns):
    return st.tuples(*map(st.sampled_from, columns)).map("\t".join)


# Every pattern the rule fuzz can compile comes from this list, and none
# starts with a quantifier, so no run of them nests one: matching stays cheap.
# For the same reason a rule file's splice is a byte that is never UTF-8 here.
RULE_PATTERNS = [r'way of saying "(?P<Spelling>\w+)"', r"saying (?P<Spelling>\w+)",
                 r"(?P<Spelling>yes)", r"(?P<Spelling>[unclosed", r"no group (\w+)",
                 r"(?P<Word>\w+)", ""]
RULE_PIECES = ["r1", "r2", "#", " ", "\t", "x", "\u00e9", "\x00"] + LINE_ENDS + RULE_PATTERNS
NOT_UTF8 = st.sampled_from([b"\xff", b"\xe9", b"\x80"])

CELLS = ["name", "top1", "a", "b", "c", "0.1", "0.5", "-2", "nan", "", '"', '"a\tb"', "x"]
# A table with the join column and drawn values.
TABLE_FILES = st.lists(st.sampled_from(["0.1", "0.5", "-2", "nan", "1e999", "x"]),
                       min_size=3, max_size=3).map(
    lambda cells: ("name\ttop1\n" + "".join(f"{k}\t{v}\n" for k, v in zip("abc", cells))).encode())

# The annotation columns after the surface: lemma, UPOS, XPOS, head, relation.
CONLLU_COLUMNS = (["_", "say"], ["_", "VERB", "NOUN"], ["_", "VBG"], ["0", "1", "2", "7", "x"],
                  ["_", "root"])


def conllu_row(i, surface):
    return tab_row(*CONLLU_COLUMNS).map(
        lambda rest: "{}\t{}\t{}\t{}\t{}\t_\t{}\t{}\t_\t_\n".format(i, surface, *rest.split("\t")))


# One block per fuzz corpus entry, in order.
CONLLU_FILES = st.tuples(conllu_row(1, "saying"), conllu_row(2, "yes"), conllu_row(1, "mate")).map(
    lambda rows: (rows[0] + rows[1] + "\n" + rows[2]).encode())
CONLLU_SURFACES = ["saying", "yes", "mate", "x"]
CONLLU_LINES = lines_of(tab_row(["1", "2"], CONLLU_SURFACES, *CONLLU_COLUMNS[:3], ["_"],
                                *CONLLU_COLUMNS[3:], ["_"], ["_"]))

# One block per fuzz gold entry, in order.
GOLD_BLOCKS = (("short", "for", "mate"), ("saying", "yes"))


def tag_block(block):
    return st.lists(st.sampled_from(["I", "O"]), min_size=len(block), max_size=len(block)).map(
        lambda tags: "".join(f"{surface}\t{tag}\n" for surface, tag in zip(block, tags)))


TAG_FILES = st.tuples(*map(tag_block, GOLD_BLOCKS)).map(lambda blocks: "\n".join(blocks).encode())
TAG_SURFACES = ["short", "for", "mate", "saying", "yes", "x"]
WORDS = ["frm0", "frm1", "FRM1", "#frm0", " frm0 ", "x", "\u00e9", ""]
INI_LINES = ["[correlate]", "[DEFAULT]", "[extract]", "keys = name", "out: elsewhere",
             "foo = 1", "% = 2", "v = %(v)s", "v = 100%", "v = %(w)s", "#c", ";c",
             "  indented", "[", "name", "keys"]

# JSON-lines records, each field a drawn JSON value, or a line nested too deep to parse.
JSON_KEYS = ['"word"', '"definition"', '"entry_id"', '"example"', '"upvotes"', '"x"']
JSON_VALUES = ['"aye"', '"saying yes"', '"short for \'mate\'"', '""', '"\\u00e9"', '"\\ud800"',
               '"e1"', "0", "-1.5", "1e999", "NaN", "null", "true", "[]", "{}", '["yes"]']
JSON_FIELDS = st.tuples(st.sampled_from(JSON_KEYS), st.sampled_from(JSON_VALUES)).map(": ".join)
JSON_RECORDS = st.lists(JSON_FIELDS, max_size=5).map(lambda fields: "{" + ", ".join(fields) + "}")
JSON_LINES = JSON_RECORDS | st.sampled_from(["[" * 100_000, '{"word": ' * 2_000])
PAIR_CELLS = (["informal", "inf0", "inf1", "frm0", "INF0", "x", ""],
              ["formal", "frm0", "frm1", "x"], ["score", "1.0", "0.5", "-1", "nan", "1e999", "x"],
              ["method", "baseline", "bootstrap", "crf", "x"], ["origin", "r", "0", "12", "\u00b2"],
              ["entry_id", "e1", ""])
SEED_CELLS = (["aye", "m8", "AYE ", "#aye", "", "yes"], ["yes", "mate", "Yes", "", "x\ty"])

# Each reader's fuzzed files and the exit codes they may end in: a bad
# config is a usage error, and so is a table without the join column and a
# seed list that the bootstrap configuration rejects (empty, or an identity).
FUZZ_FILES = {
    "rules": (file_bytes(lines_of(tab_row(["r1", "r2", "#r3", " r1"], RULE_PATTERNS)),
                         runs_of(RULE_PIECES), splice=NOT_UTF8), (0, 2)),
    "table": (file_bytes(TABLE_FILES,
                         lines_of(st.lists(st.sampled_from(CELLS), min_size=1, max_size=4)
                                  .map("\t".join)),
                         runs_of(CELLS + LINE_ENDS), ANY_TEXT, ANY_BYTES, splice=PIECE_OR_BYTES),
              (0, 1, 2)),
    "conllu": (file_bytes(CONLLU_FILES, CONLLU_LINES,
                          runs_of(CONLLU_SURFACES + LINE_ENDS + ["\t"]), ANY_TEXT, ANY_BYTES,
                          splice=PIECE_OR_BYTES), (0, 2)),
    "gold_tags": (file_bytes(TAG_FILES, lines_of(tab_row(TAG_SURFACES, ["I", "O", "B", ""])),
                             ANY_TEXT, ANY_BYTES, splice=PIECE_OR_BYTES), (0, 2)),
    "word_list": (file_bytes(lines_of(st.sampled_from(WORDS)), ANY_TEXT, ANY_BYTES,
                             splice=PIECE_OR_BYTES), (0, 2)),
    "corpus": (file_bytes(lines_of(JSON_LINES), runs_of(JSON_KEYS + JSON_VALUES + LINE_ENDS),
                          ANY_TEXT, ANY_BYTES, splice=PIECE_OR_BYTES), (0, 2)),
    "pairs": (file_bytes(lines_of(tab_row(*PAIR_CELLS)), ANY_TEXT, ANY_BYTES,
                         splice=PIECE_OR_BYTES), (0, 2)),
    "seeds": (file_bytes(lines_of(tab_row(*SEED_CELLS)), ANY_TEXT, ANY_BYTES,
                         splice=PIECE_OR_BYTES), (0, 1, 2)),
    "config": (file_bytes(lines_of(st.sampled_from(INI_LINES)), runs_of(INI_LINES + LINE_ENDS),
                          ANY_TEXT, ANY_BYTES, splice=PIECE_OR_BYTES), (0, 1)),
}


def fuzz_command(reader, root, fuzzed):
    """The command that reads ``fuzzed`` as ``reader``, with good copies of
    its other inputs written under ``root``."""
    corpus = write_corpus(root, [{"word": "aye", "definition": "saying yes"},
                                 {"word": "m8", "definition": "mate"}])
    out = ["--out", str(root / "out")]
    if reader == "corpus":
        return ["extract", "--method", "baseline", "--corpus", str(fuzzed), *out]
    if reader == "seeds":
        return ["extract", "--method", "bootstrap", "--corpus", str(corpus), "--seeds",
                str(fuzzed), *out]
    if reader in ("rules", "conllu"):
        flag = "--rules" if reader == "rules" else "--annotations"
        return ["extract", "--method", "baseline", "--corpus", str(corpus), flag, str(fuzzed),
                *out]
    if reader == "gold_tags":
        gold = write_corpus(root, [
            {"word": "m8", "definition": "short for mate", "entry_id": "g1"},
            {"word": "aye", "definition": "saying yes", "entry_id": "g2"}], "gold.jsonl")
        return ["extract", "--method", "selftrain", "--corpus", str(corpus),
                "--gold-corpus", str(gold), "--gold-tags", str(fuzzed), "--iterations", "1",
                "--l1", "0.02", "--l2", "0.03", *out]
    if reader in ("word_list", "pairs"):
        pairs, embeddings, vocab = write_eval_inputs(root)
        if reader == "pairs":
            pairs = fuzzed
        else:
            vocab = fuzzed
        return ["eval", "--pairs", str(pairs), "--embeddings", str(embeddings),
                "--formal-vocab", str(vocab), *out]
    table = write_lines(root / "table.tsv", ["name\tval", "a\t0.1", "b\t0.3", "c\t0.2"])
    if reader == "table":
        return ["correlate", "--intrinsic", str(fuzzed), "--extrinsic", str(table),
                "--keys", "name", *out]
    # Every correlate option is a flag, so the file can only add to them.
    return ["correlate", "--config", str(fuzzed), "--intrinsic", str(table),
            "--extrinsic", str(table), "--keys", "name", *out]


@pytest.mark.parametrize("reader", sorted(FUZZ_FILES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_input_file_exits_0_1_or_2(tmp_path_factory, reader, data):
    root = tmp_path_factory.mktemp("fuzz")
    fuzzed = root / "fuzzed"
    files, codes = FUZZ_FILES[reader]
    fuzzed.write_bytes(data.draw(files))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(fuzz_command(reader, root, fuzzed))
    assert code in codes
    if code:
        # Notes on skipped columns may come first; the error is the last line.
        notes, _, error = err.getvalue().removesuffix("\n").rpartition("\n")
        assert error.startswith("error: ")
        assert all(note.startswith("note: ") for note in notes.splitlines())


@pytest.fixture()
def correlate_inputs(tmp_path):
    intrinsic = write_lines(tmp_path / "intrinsic.tsv", [
        "name\ttop1\ttop20",
        "a\t0.1\t0.5",
        "b\t0.2\t0.6",
        "c\t0.4\t0.9",
    ])
    extrinsic = write_lines(tmp_path / "extrinsic.tsv", [
        "name\tval_acc",
        "a\t0.1",
        "b\t0.2",
        "c\t0.4",
    ])
    return intrinsic, extrinsic


class TestCorrelate:
    def test_identical_column_correlates_perfectly(self, tmp_path, correlate_inputs, capsys):
        intrinsic, extrinsic = correlate_inputs
        out = tmp_path / "out"
        code = main(["correlate", "--intrinsic", str(intrinsic),
                     "--extrinsic", str(extrinsic), "--keys", "name",
                     "--out", str(out)])
        assert code == 0
        output = capsys.readouterr().out
        assert "top1 x val_acc: r=+1.0000" in output
        grid = (out / "correlations.tsv").read_text(encoding="utf-8").splitlines()
        assert grid[0] == "intrinsic\textrinsic\tpearson_r"
        values = {tuple(line.split("\t")[:2]): float(line.split("\t")[2]) for line in grid[1:]}
        assert values[("top1", "val_acc")] == pytest.approx(1.0)

    def test_disjoint_keys_is_a_data_error(self, tmp_path, correlate_inputs, capsys):
        intrinsic, _ = correlate_inputs
        other = write_lines(tmp_path / "other.tsv", [
            "name\tval_acc", "x\t0.1", "y\t0.2",
        ])
        code = main(["correlate", "--intrinsic", str(intrinsic),
                     "--extrinsic", str(other), "--keys", "name",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "join" in capsys.readouterr().err

    def test_unknown_key_column(self, tmp_path, correlate_inputs, capsys):
        intrinsic, extrinsic = correlate_inputs
        code = main(["correlate", "--intrinsic", str(intrinsic),
                     "--extrinsic", str(extrinsic), "--keys", "ghost",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, keys, code, message", [
        (["name\tval", "a\t0.1", "b\t0.2", "a\t0.3"], "name", 2,
         "error: {extrinsic}: duplicate join key ('a',)\n"),
        (["name\tval", "a\t0.1", "x\t0.2"], "name", 2,
         "error: need at least two joined rows to correlate\n"),
        (["name\tval", "a\t0.1", "b\t0.2"], ",", 1,
         "error: --keys: need at least one join column\n"),
    ], ids=["duplicate-key", "one-joined-row", "no-key"])
    def test_join_errors(self, tmp_path, correlate_inputs, rows, keys, code, message, capsys):
        intrinsic, _ = correlate_inputs
        extrinsic = write_lines(tmp_path / "joined.tsv", rows)
        assert main(["correlate", "--intrinsic", str(intrinsic), "--extrinsic", str(extrinsic),
                     "--keys", keys, "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == message.format(extrinsic=extrinsic)
        assert not (tmp_path / "out").exists()

    def test_skipped_columns_are_noted_side_by_side(self, tmp_path, capsys):
        intrinsic = write_lines(tmp_path / "intrinsic.tsv", [
            "name\tlabel\tflat\ttop1", "a\tx\t1\t0.1", "b\ty\t1\t0.2", "c\tz\t1\t0.4"])
        extrinsic = write_lines(tmp_path / "extrinsic.tsv", [
            "name\tlevel\ttag\tval", "a\t2\tp\t0.3", "b\t2\tq\t0.1", "c\t2\tr\t0.2"])
        assert self._correlate(tmp_path, intrinsic, extrinsic) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: skipping non-numeric intrinsic column 'label'",
            "note: skipping non-numeric extrinsic column 'tag'",
            "note: skipping constant intrinsic column 'flat'",
            "note: skipping constant extrinsic column 'level'",
        ]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["options"]["joined_rows"] == 3

    def _correlate(self, tmp_path, intrinsic, extrinsic):
        return main(["correlate", "--intrinsic", str(intrinsic), "--extrinsic", str(extrinsic),
                     "--keys", "name", "--out", str(tmp_path / "out")])

    def test_undecodable_table_names_file_and_line(self, tmp_path, correlate_inputs, capsys):
        intrinsic, extrinsic = correlate_inputs
        table = tmp_path / "bad.tsv"
        table.write_bytes(intrinsic.read_bytes().replace(b"b\t0.2", b"b\t0.2\xff"))
        assert self._correlate(tmp_path, table, extrinsic) == 2
        assert capsys.readouterr().err == f"error: {table}: line 3: not UTF-8: byte 0xff\n"

    def test_table_with_a_byte_order_mark_loads(self, tmp_path, correlate_inputs):
        intrinsic, extrinsic = correlate_inputs
        table = tmp_path / "bom.tsv"
        table.write_bytes(codecs.BOM_UTF8 + intrinsic.read_bytes())
        assert self._correlate(tmp_path, table, extrinsic) == 0

    def test_row_width_names_the_line(self, tmp_path, correlate_inputs, capsys):
        # The quoted field spans lines 3 and 4; the short row is line 5.
        intrinsic, extrinsic = correlate_inputs
        table = write_lines(tmp_path / "ragged.tsv", [
            "name\ttop1\ttop20", "a\t0.1\t0.5", 'b\t"0.2', '"\t0.6', "c\t0.4"])
        assert self._correlate(tmp_path, table, extrinsic) == 2
        assert capsys.readouterr().err == (
            f"error: {table}: line 5: row width does not match header\n")

    def test_non_finite_value_is_a_data_error(self, tmp_path, capsys):
        intrinsic = write_lines(tmp_path / "intrinsic.tsv",
                                ["name\ttop1", "a\tnan", "b\t0.5", "c\t-2"])
        extrinsic = write_lines(tmp_path / "extrinsic.tsv",
                                ["name\tval", "a\t0.1", "b\t0.3", "c\t0.2"])
        assert self._correlate(tmp_path, intrinsic, extrinsic) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {intrinsic}: column 'top1' holds a non-finite value\n"

    def test_overflowing_column_writes_nothing(self, tmp_path, capsys):
        # top1 correlates; the sum of squares of top20 overflows.
        intrinsic = write_lines(tmp_path / "intrinsic.tsv", [
            "name\ttop1\ttop20", "a\t0.1\t1e200", "b\t0.2\t-1e200", "c\t0.4\t5"])
        extrinsic = write_lines(tmp_path / "extrinsic.tsv",
                                ["name\tval", "a\t0.1", "b\t0.3", "c\t0.2"])
        assert self._correlate(tmp_path, intrinsic, extrinsic) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("top1 x val: r=")
        assert captured.err == "error: input too large to correlate\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_column_names_file_and_line(self, tmp_path, correlate_inputs, capsys):
        _, extrinsic = correlate_inputs
        table = write_lines(tmp_path / "twice.tsv", [
            "name\ttop1\ttop1", "a\t0.1\t0.4", "b\t0.2\t0.2", "c\t0.4\t0.1"])
        assert self._correlate(tmp_path, table, extrinsic) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {table}: line 1: column 'top1' appears twice\n"

    def test_oversized_field_is_a_data_error(self, tmp_path, correlate_inputs, capsys):
        intrinsic, extrinsic = correlate_inputs
        table = write_lines(tmp_path / "huge.tsv", ["name\ttop1", "a\t" + "9" * 200_000])
        assert self._correlate(tmp_path, table, extrinsic) == 2
        assert capsys.readouterr().err.startswith(f"error: {table}: line 2: field larger")


class TestAnnotate:
    def test_writes_conllu(self, tmp_path, baseline_corpus):
        out = tmp_path / "out"
        code = main(["annotate", "--corpus", str(baseline_corpus), "--out", str(out)])
        assert code == 0
        blocks = (out / "annotated.conllu").read_text(encoding="utf-8").strip().split("\n\n")
        assert len(blocks) == 3
        first_row = blocks[0].splitlines()[0].split("\t")
        assert len(first_row) == 10
        assert first_row[1] == "scottish"


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path, baseline_corpus):
        out = tmp_path / "out"
        config = write_lines(tmp_path / "run.ini", [
            "[extract]",
            "method = baseline",
            f"corpus = {baseline_corpus}",
            f"out = {out}",
        ])
        assert main(["extract", "--config", str(config)]) == 0
        assert (out / "pairs.tsv").is_file()

    def test_flags_override_config(self, tmp_path, planted):
        out = tmp_path / "out"
        config = write_lines(tmp_path / "run.ini", [
            "[extract]",
            "method = bootstrap",
            f"corpus = {planted / 'corpus.jsonl'}",
            f"seeds = {planted / 'seeds.tsv'}",
            f"out = {out}",
            "iterations = 8",
        ])
        assert main(["extract", "--config", str(config), "--iterations", "0"]) == 0
        assert read_pairs_tsv(out / "pairs.tsv") == []

    def test_unknown_config_key(self, tmp_path, baseline_corpus, capsys):
        config = write_lines(tmp_path / "run.ini", [
            "[extract]",
            "method = baseline",
            f"corpus = {baseline_corpus}",
            f"out = {tmp_path / 'out'}",
            "shenanigans = yes",
        ])
        assert main(["extract", "--config", str(config)]) == 1
        assert "shenanigans" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_option_the_method_does_not_use(self, tmp_path, baseline_corpus, source, capsys):
        lines = ["[extract]", "method = baseline", f"corpus = {baseline_corpus}"]
        extra = ["--window", "2"] if source == "flag" else []
        if source == "ini":
            lines.append("window = 2")
        config = write_lines(tmp_path / "run.ini", lines)
        code = main(["extract", "--config", str(config), *extra,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "--window" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, extra, name", [
        ("strict = maybe", [], "--strict"),
        ("", ["--alpha", "high"], "--alpha"),
        ("window = 2.5", [], "--window"),
    ])
    def test_unparseable_value_names_the_option(self, tmp_path, planted, line, extra, name,
                                                capsys):
        config = write_lines(tmp_path / "run.ini", [
            "[extract]", "method = bootstrap", f"corpus = {planted / 'corpus.jsonl'}",
            f"seeds = {planted / 'seeds.tsv'}", line,
        ])
        code = main(["extract", "--config", str(config), *extra,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{name}: cannot parse" in capsys.readouterr().err

    def test_undecodable_config_names_file_and_line(self, tmp_path, baseline_corpus, capsys):
        config = tmp_path / "run.ini"
        config.write_bytes(b"[extract]\nmethod = baseline\n# caf\xe9\n")
        code = main(["extract", "--config", str(config), "--corpus", str(baseline_corpus),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}: line 3: not UTF-8: byte 0xe9\n"

    def test_config_with_a_byte_order_mark_loads(self, tmp_path, baseline_corpus):
        out = tmp_path / "out"
        config = tmp_path / "run.ini"
        config.write_bytes(codecs.BOM_UTF8 + f"[extract]\nmethod = baseline\ncorpus = "
                           f"{baseline_corpus}\nout = {out}\n".encode())
        assert main(["extract", "--config", str(config)]) == 0
        assert (out / "pairs.tsv").is_file()

    def test_parse_error_is_one_line(self, tmp_path, baseline_corpus, capsys):
        config = write_lines(tmp_path / "run.ini", ["method = baseline"])
        code = main(["extract", "--config", str(config), "--corpus", str(baseline_corpus),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: bad config file: File contains no section headers. "
            f"file: '{config}', line: 1 'method = baseline\\n'\n")

    def test_bad_interpolation_is_a_usage_error(self, tmp_path, baseline_corpus, capsys):
        config = write_lines(tmp_path / "run.ini", ["[extract]", "method = 100%"])
        code = main(["extract", "--config", str(config), "--corpus", str(baseline_corpus),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad config file: '%'")

    def test_missing_config_file(self, tmp_path):
        code = main(["extract", "--config", str(tmp_path / "ghost.ini")])
        assert code == 1


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "spellvar" in capsys.readouterr().out

    def test_no_subcommand_is_a_usage_error(self):
        assert main([]) == 1

    def test_gen_synthetic_needs_valid_kind(self, tmp_path):
        code = main(["gen-synthetic", "--kind", "nonsense", "--out", str(tmp_path)])
        assert code == 1

    def test_gen_synthetic_rejects_options_the_kind_does_not_use(self, tmp_path, capsys):
        code = main(["gen-synthetic", "--kind", "selftrain", "--entries", "5",
                     "--n-pairs", "999", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "--entries" in err and "--n-pairs" in err
        assert not (tmp_path / "out").exists()

    def test_gen_synthetic_rejects_a_negative_trap_count(self, tmp_path, capsys):
        code = main(["gen-synthetic", "--kind", "bootstrap", "--n-traps", "-1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "n_traps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_names_every_flag(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        parsers = [_build_parser()]
        flags = set()
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                flags.update(action.option_strings)
                if action.choices and isinstance(action.choices, dict):
                    parsers.extend(action.choices.values())
        flags -= {"-h", "--help"}
        assert len(flags) > 30
        missing = sorted(f for f in flags if not re.search(rf"(?<![\w-]){f}(?![\w-])", section))
        assert not missing


_PINNED_OPTIONS = {
    "gen-selftrain": {"kind": "selftrain", "seed": 0},
    "gen-bootstrap": {"entries": 200, "kind": "bootstrap", "n_pairs": 40, "n_seeds": 5,
                      "n_traps": 6, "seed": 0},
    "baseline": {"corpus": "bs/corpus.jsonl", "method": "baseline", "rules": "packaged",
                 "seed": 0},
    "bootstrap": {"alpha": 0.7, "beta": 0.7, "corpus": "bs/corpus.jsonl", "iterations": 8,
                  "method": "bootstrap", "seed": 0, "seeds": "bs/seeds.tsv",
                  "stopwords": "packaged", "strict": False, "tau": 0.5, "top_n": 10,
                  "top_n_patterns": 10, "variant": False, "window": 3},
    "bootstrap-ini": {"alpha": 0.7, "beta": 0.7, "corpus": "bs/corpus.jsonl", "iterations": 8,
                      "method": "bootstrap", "seed": 0, "seeds": "bs/seeds.tsv",
                      "stopwords": "packaged", "strict": True, "tau": 0.5, "top_n": 10,
                      "top_n_patterns": 10, "variant": False, "window": 3},
    "selftrain": {"confidence": 0.9, "corpus": "st/unlabeled.jsonl",
                  "gold_corpus": "st/gold.jsonl", "gold_tags": "st/gold.tags",
                  "iterations": 5, "l1": 0.02, "l2": 0.03, "method": "selftrain",
                  "search_folds": 3, "search_trials": 0, "seed": 0, "window": 3},
    "selftrain-search": {"confidence": 0.9, "corpus": "st/unlabeled.jsonl",
                         "gold_corpus": "st/gold.jsonl", "gold_tags": "st/gold.tags",
                         "iterations": 5, "l1": 0.015375836918315651,
                         "l2": 5.693701397342675, "method": "selftrain", "search_folds": 3,
                         "search_trials": 2, "seed": 0, "window": 3},
    "eval": {"embeddings": ["vectors.txt"], "formal_vocab": "vocab.txt", "ks": [1, 20, 50, 100],
             "pairs": "pairs.tsv"},
    "correlate": {"extrinsic": "extrinsic.tsv", "intrinsic": "intrinsic.tsv", "joined_rows": 3,
                  "keys": ["name"]},
    "annotate": {"corpus": "bs/corpus.jsonl"},
}


@pytest.fixture(scope="module")
def pinned_manifests(tmp_path_factory):
    """Options recorded by one default run of every command, with the run
    directory stripped from paths."""
    root = tmp_path_factory.mktemp("pinned")
    st, bs = root / "st", root / "bs"
    write_lines(root / "pairs.tsv", [
        "informal\tformal\tscore\tmethod\torigin\tentry_id", "inf0\tfrm0\t1.0\tbaseline\tr\te1",
    ])
    write_lines(root / "vectors.txt", ["inf0 1 0", "frm0 1 0", "bg0 0 1"])
    write_lines(root / "vocab.txt", ["frm0"])
    write_lines(root / "intrinsic.tsv", ["name\ttop1", "a\t0.1", "b\t0.2", "c\t0.4"])
    write_lines(root / "extrinsic.tsv", ["name\tval_acc", "a\t0.1", "b\t0.2", "c\t0.4"])
    write_lines(root / "run.ini", [
        "[extract]", "method = bootstrap", f"corpus = {bs / 'corpus.jsonl'}",
        f"seeds = {bs / 'seeds.tsv'}", "strict = yes", "window = 2",
    ])
    selftrain = ["extract", "--method", "selftrain", "--corpus", str(st / "unlabeled.jsonl"),
                 "--gold-corpus", str(st / "gold.jsonl"), "--gold-tags", str(st / "gold.tags")]
    commands = {
        "gen-selftrain": ["gen-synthetic", "--kind", "selftrain"],
        "gen-bootstrap": ["gen-synthetic", "--kind", "bootstrap"],
        "baseline": ["extract", "--method", "baseline", "--corpus", str(bs / "corpus.jsonl")],
        "bootstrap": ["extract", "--method", "bootstrap", "--corpus", str(bs / "corpus.jsonl"),
                      "--seeds", str(bs / "seeds.tsv")],
        "bootstrap-ini": ["extract", "--config", str(root / "run.ini"), "--window", "3"],
        "selftrain": [*selftrain, "--l1", "0.02", "--l2", "0.03"],
        "selftrain-search": [*selftrain, "--search-trials", "2"],
        "eval": ["eval", "--pairs", str(root / "pairs.tsv"),
                 "--embeddings", str(root / "vectors.txt"),
                 "--formal-vocab", str(root / "vocab.txt")],
        "correlate": ["correlate", "--intrinsic", str(root / "intrinsic.tsv"),
                      "--extrinsic", str(root / "extrinsic.tsv"), "--keys", "name"],
        "annotate": ["annotate", "--corpus", str(bs / "corpus.jsonl")],
    }
    manifests = {}
    for name, argv in commands.items():
        out = {"gen-selftrain": st, "gen-bootstrap": bs}.get(name, root / name)
        assert main([*argv, "--out", str(out)]) == 0, name
        text = (out / "manifest.json").read_text(encoding="utf-8")
        manifest = json.loads(text.replace(f"{root}/", ""))
        # Hidden names count too, so a temporary file left behind fails here.
        assert manifest["outputs"] == sorted(
            path.name for path in out.iterdir() if path.name != "manifest.json"), name
        manifests[name] = manifest["options"]
    return manifests


@pytest.mark.parametrize("name", sorted(_PINNED_OPTIONS))
def test_manifest_options_are_pinned(pinned_manifests, name):
    # Keys, values and JSON types of every command's recorded options.
    options = pinned_manifests[name]
    assert options == _PINNED_OPTIONS[name]
    assert {k: type(v) for k, v in options.items()} == {
        k: type(v) for k, v in _PINNED_OPTIONS[name].items()}


@pytest.fixture(scope="module")
def option_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("options")
    assert main(["gen-synthetic", "--kind", "bootstrap", "--out", str(root / "bs"),
                 "--entries", "80", "--n-pairs", "12", "--n-seeds", "3", "--n-traps", "2"]) == 0
    assert main(["gen-synthetic", "--kind", "selftrain", "--out", str(root / "st")]) == 0
    for corpus in ("bs/corpus.jsonl", "st/unlabeled.jsonl"):
        assert main(["annotate", "--corpus", str(root / corpus),
                     "--out", str(root / Path(corpus).parent / "parsed")]) == 0
    (root / "rules.tsv").write_bytes((SRC / "spellvar/data/default_rules.tsv").read_bytes())
    write_lines(root / "stopwords.txt", ["the", "a", "of"])
    write_eval_inputs(root)
    (root / "vectors2.txt").write_bytes((root / "vectors.txt").read_bytes())
    write_lines(root / "intrinsic.tsv", ["name\ttop1", "a\t0.1", "b\t0.2", "c\t0.4"])
    write_lines(root / "extrinsic.tsv", ["name\tval_acc", "a\t0.1", "b\t0.3", "c\t0.4"])
    return root


def every_option(root, case):
    """The command of ``case``, its options as {name: (value given, value
    recorded)} with ``True`` for a switch, and the options it cannot use."""
    def path(name):
        return str(root / name), str(root / name)

    method = {"method": (case, case), "seed": ("7", 7)}
    bootstrap = {"seeds", "stopwords", "alpha", "beta", "top_n", "top_n_patterns", "tau",
                 "variant", "strict"}
    selftrain = {"gold_corpus", "gold_tags", "confidence", "l1", "l2", "search_trials",
                 "search_folds"}
    gold = {"corpus": path("st/unlabeled.jsonl"), "annotations": path("st/parsed/annotated.conllu"),
            "gold_corpus": path("st/gold.jsonl"), "gold_tags": path("st/gold.tags"),
            "iterations": ("2", 2), "window": ("2", 2), "confidence": ("0.95", 0.95)}
    cases = {
        "baseline": ("extract", {
            **method, "corpus": path("bs/corpus.jsonl"),
            "annotations": path("bs/parsed/annotated.conllu"), "rules": path("rules.tsv"),
        }, bootstrap | selftrain | {"iterations", "window"}),
        "bootstrap": ("extract", {
            **method, "corpus": path("bs/corpus.jsonl"),
            "annotations": path("bs/parsed/annotated.conllu"), "seeds": path("bs/seeds.tsv"),
            "stopwords": path("stopwords.txt"), "iterations": ("3", 3), "alpha": ("0.75", 0.75),
            "beta": ("0.8", 0.8), "window": ("2", 2), "top_n": ("5", 5),
            "top_n_patterns": ("4", 4), "tau": ("0.6", 0.6), "variant": (True, True),
            "strict": (True, True),
        }, selftrain | {"rules"}),
        "selftrain": ("extract", {
            **method, **gold, "l1": ("0.02", 0.02), "l2": ("0.03", 0.03),
            "search_trials": ("0", 0),
        }, bootstrap | {"rules", "search_folds"}),
        "search": ("extract", {
            **method, "method": ("selftrain", "selftrain"), **gold,
            "search_trials": ("2", 2), "search_folds": ("2", 2),
        }, bootstrap | {"rules", "l1", "l2"}),
        "eval": ("eval", {
            "pairs": path("pairs.tsv"), "formal_vocab": path("vocab.txt"), "ks": ("5,2,5", [2, 5]),
            "embeddings": ([str(root / "vectors.txt"), str(root / "vectors2.txt")],
                           [str(root / "vectors.txt"), str(root / "vectors2.txt")]),
        }, set()),
        "correlate": ("correlate", {
            "intrinsic": path("intrinsic.tsv"), "extrinsic": path("extrinsic.tsv"),
            "keys": ("name,", ["name"]),
        }, set()),
        "annotate": ("annotate", {
            "corpus": path("bs/corpus.jsonl"), "annotations": path("bs/parsed/annotated.conllu"),
        }, set()),
        "gen-bootstrap": ("gen-synthetic", {
            "kind": ("bootstrap", "bootstrap"), "seed": ("3", 3), "entries": ("90", 90),
            "n_pairs": ("10", 10), "n_seeds": ("2", 2), "n_traps": ("1", 1),
        }, set()),
        "gen-selftrain": ("gen-synthetic", {
            "kind": ("selftrain", "selftrain"), "seed": ("3", 3),
        }, {"entries", "n_pairs", "n_seeds", "n_traps"}),
    }
    return cases[case]


@pytest.mark.parametrize("source", ["flags", "ini"])
@pytest.mark.parametrize("case", ["baseline", "bootstrap", "selftrain", "search", "eval",
                                  "correlate", "annotate", "gen-bootstrap", "gen-selftrain"])
def test_every_option_given_reaches_the_manifest(option_inputs, tmp_path, monkeypatch, case,
                                                 source):
    command, options, moot = every_option(option_inputs, case)
    assert set(options) | moot == {name for name, _ in _COMMANDS[command][2]} - {"out"}
    assert not set(options) & moot
    trained = []

    def spy(gold, corpus, config):
        trained.append(config.train)
        return self_train(gold, corpus, config)

    monkeypatch.setattr("spellvar.cli.self_train", spy)
    if source == "flags":
        argv = [command]
        for name, (given, _) in options.items():
            argv.append(_flag(name))
            if given is not True:
                argv += [given] if isinstance(given, str) else given
    else:
        lines = [f"[{command}]"]
        for name, (given, _) in options.items():
            text = "yes" if given is True else given if isinstance(given, str) else " ".join(given)
            lines.append(f"{name} = {text}")
        argv = [command, "--config", str(write_lines(tmp_path / "run.ini", lines))]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    recorded = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    for name, (_, value) in options.items():
        assert (recorded["options"][name], type(recorded["options"][name])) == (
            value, type(value)), name
    # The penalties a run trains with are the ones its manifest records.
    assert [(train.l1, train.l2) for train in trained] == (
        [(recorded["options"]["l1"], recorded["options"]["l2"])] if trained else [])


# Runs CLI commands in a fresh interpreter and prints, as JSON, the modules
# of one package loaded after importing the CLI and after each command.
_LOADED_MODULES_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spellvar.cli

package = sys.argv[3]

def package_modules():
    return sorted(name for name in sys.modules
                  if name == package or name.startswith(package + "."))

loaded = [package_modules()]
for argv in json.loads(sys.argv[2]):
    assert spellvar.cli.main(argv) == 0, argv
    loaded.append(package_modules())
print(json.dumps(loaded))
"""


def loaded_modules(tmp_path, commands, package):
    """The modules of ``package`` loaded in a fresh interpreter after the CLI
    import and after each of ``commands``."""
    child = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES_CHILD, str(SRC), json.dumps(commands), package],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


class TestStartup:
    def test_no_command_loads_scipy(self, tmp_path, correlate_inputs):
        st, bs = tmp_path / "st", tmp_path / "bs"
        selftrain = ["extract", "--method", "selftrain", "--corpus", str(st / "unlabeled.jsonl"),
                     "--gold-corpus", str(st / "gold.jsonl"), "--gold-tags", str(st / "gold.tags")]
        pairs = write_lines(tmp_path / "pairs.tsv", [
            "informal\tformal\tscore\tmethod\torigin\tentry_id", "inf0\tfrm0\t1.0\tbaseline\tr\te1",
        ])
        vectors = write_lines(tmp_path / "vectors.txt", ["inf0 1 0", "frm0 1 0", "bg0 0 1"])
        vocab = write_lines(tmp_path / "vocab.txt", ["frm0"])
        intrinsic, extrinsic = correlate_inputs
        commands = [
            ["gen-synthetic", "--kind", "selftrain", "--out", str(st), "--seed", "0"],
            [*selftrain, "--l1", "0.02", "--l2", "0.03", "--out", str(tmp_path / "o1")],
            [*selftrain, "--search-trials", "1", "--search-folds", "2",
             "--out", str(tmp_path / "o2")],
            ["gen-synthetic", "--kind", "bootstrap", "--out", str(bs), "--seed", "0"],
            ["extract", "--method", "bootstrap", "--corpus", str(bs / "corpus.jsonl"),
             "--seeds", str(bs / "seeds.tsv"), "--out", str(tmp_path / "o3")],
            ["extract", "--method", "baseline", "--corpus", str(bs / "corpus.jsonl"),
             "--out", str(tmp_path / "o4")],
            ["eval", "--pairs", str(pairs), "--embeddings", str(vectors),
             "--formal-vocab", str(vocab), "--ks", "1", "--out", str(tmp_path / "o5")],
            ["correlate", "--intrinsic", str(intrinsic), "--extrinsic", str(extrinsic),
             "--keys", "name", "--out", str(tmp_path / "o6")],
            ["annotate", "--corpus", str(bs / "corpus.jsonl"), "--out", str(tmp_path / "o7")],
        ]
        # One entry for the import, then one per command.
        assert loaded_modules(tmp_path, commands, "scipy") == [[]] * (1 + len(commands))

    def test_no_extraction_or_eval_loads_numpy_ma(self, tmp_path):
        # A plain ``np.unique`` imports ``numpy.ma`` on first use, 9-15 ms and
        # about 1.3 MiB of a process; ``bootstrap._distinct`` exists for this.
        st, bs = tmp_path / "st", tmp_path / "bs"
        pairs, vectors, vocab = write_eval_inputs(tmp_path)
        commands = [
            ["gen-synthetic", "--kind", "selftrain", "--out", str(st), "--seed", "0"],
            ["gen-synthetic", "--kind", "bootstrap", "--out", str(bs), "--seed", "0"],
            ["extract", "--method", "baseline", "--corpus", str(bs / "corpus.jsonl"),
             "--out", str(tmp_path / "o1")],
            ["extract", "--method", "bootstrap", "--corpus", str(bs / "corpus.jsonl"),
             "--seeds", str(bs / "seeds.tsv"), "--out", str(tmp_path / "o2")],
            ["extract", "--method", "selftrain", "--corpus", str(st / "unlabeled.jsonl"),
             "--gold-corpus", str(st / "gold.jsonl"), "--gold-tags", str(st / "gold.tags"),
             "--out", str(tmp_path / "o3")],
            ["eval", "--pairs", str(pairs), "--embeddings", str(vectors),
             "--formal-vocab", str(vocab), "--ks", "1", "--out", str(tmp_path / "o4")],
        ]
        assert loaded_modules(tmp_path, commands, "numpy.ma") == [[]] * (1 + len(commands))

    def test_no_source_file_imports_scipy(self):
        sources = sorted(SRC.rglob("*.py"))
        assert sources
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert all(name.split(".")[0] != "scipy" for name in names), (
                    f"{path}:{node.lineno}")


_RUN_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spellvar.cli
for argv in json.loads(sys.argv[2]):
    assert spellvar.cli.main(argv) == 0, argv
"""


def test_outputs_do_not_depend_on_string_hashing(tmp_path):
    # Paths are relative to each run's own directory, so the manifests can match.
    inputs = tmp_path / "in"
    assert main(["gen-synthetic", "--kind", "bootstrap", "--out", str(inputs / "bs"),
                 "--entries", "80", "--n-pairs", "12", "--n-seeds", "3", "--n-traps", "2",
                 "--seed", "0"]) == 0
    assert main(["gen-synthetic", "--kind", "selftrain", "--out", str(inputs / "st"),
                 "--seed", "0"]) == 0
    write_eval_inputs(inputs)
    bs, st = "../in/bs", "../in/st"
    commands = [
        ["extract", "--method", "baseline", "--corpus", f"{bs}/corpus.jsonl", "--out", "base"],
        ["extract", "--method", "bootstrap", "--corpus", f"{bs}/corpus.jsonl",
         "--seeds", f"{bs}/seeds.tsv", "--out", "boot"],
        ["extract", "--method", "selftrain", "--corpus", f"{st}/unlabeled.jsonl",
         "--gold-corpus", f"{st}/gold.jsonl", "--gold-tags", f"{st}/gold.tags",
         "--search-trials", "2", "--out", "self"],
        ["eval", "--pairs", "../in/pairs.tsv", "--embeddings", "../in/vectors.txt",
         "--formal-vocab", "../in/vocab.txt", "--ks", "1", "--out", "eval"],
    ]
    runs = []
    for hash_seed in ("1", "2"):
        run = tmp_path / f"hash{hash_seed}"
        run.mkdir()
        child = subprocess.run(
            [sys.executable, "-c", _RUN_CHILD, str(SRC), json.dumps(commands)],
            cwd=run, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert child.returncode == 0, child.stderr
        runs.append({path.relative_to(run).as_posix(): path.read_bytes()
                     for path in sorted(run.rglob("*")) if path.is_file()})
    assert {"boot/pairs.tsv", "boot/trace.jsonl", "self/model.json",
            "eval/manifest.json"} <= runs[0].keys()
    assert runs[0] == runs[1]


# Imports the CLI in a fresh interpreter, installs the benchmark's span
# recorder (which wraps program names by attribute and fails on a missing
# one), runs a small self-training with fixed penalties and one with a
# penalty search, a bootstrap extraction on the stock fixtures and an eval
# of one pair, and prints the traced calls.
_TRACER_CHILD = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spellvar.cli
import tracer

recorder = tracer.install()
out = sys.argv[3]
assert spellvar.cli.main(["gen-synthetic", "--kind", "selftrain", "--out", out + "/st"]) == 0
assert spellvar.cli.main([
    "extract", "--method", "selftrain", "--corpus", out + "/st/unlabeled.jsonl",
    "--gold-corpus", out + "/st/gold.jsonl", "--gold-tags", out + "/st/gold.tags",
    "--iterations", "1", "--l1", "0.02", "--l2", "0.03", "--out", out + "/x"]) == 0
assert spellvar.cli.main([
    "extract", "--method", "selftrain", "--corpus", out + "/st/unlabeled.jsonl",
    "--gold-corpus", out + "/st/gold.jsonl", "--gold-tags", out + "/st/gold.tags",
    "--iterations", "1", "--search-trials", "1", "--search-folds", "2",
    "--out", out + "/x2"]) == 0
assert spellvar.cli.main(["gen-synthetic", "--kind", "bootstrap", "--out", out + "/bs"]) == 0
assert spellvar.cli.main([
    "extract", "--method", "bootstrap", "--corpus", out + "/bs/corpus.jsonl",
    "--seeds", out + "/bs/seeds.tsv", "--out", out + "/y"]) == 0
for name, lines in (("pairs.tsv", ["informal\tformal\tscore\tmethod\torigin\tentry_id",
                                   "inf0\tfrm0\t1.0\tbaseline\tr\te1"]),
                    ("vectors.txt", ["inf0 1 0", "frm0 1 0", "bg0 0 1"]),
                    ("vocab.txt", ["frm0"])):
    with open(out + "/" + name, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
assert spellvar.cli.main([
    "eval", "--pairs", out + "/pairs.tsv", "--embeddings", out + "/vectors.txt",
    "--formal-vocab", out + "/vocab.txt", "--out", out + "/z"]) == 0
print(json.dumps(tracer.self_times(recorder.spans)[1]))
"""


def test_benchmark_tracer_finds_every_name(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", _TRACER_CHILD, str(SRC), str(SRC.parent / "perfbench"),
         str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    calls = json.loads(child.stdout.splitlines()[-1])
    # The CLI, annotation, feature extraction, the penalty search, training,
    # bootstrapping, loading and ranking reach the wrapped names through
    # their modules' globals.
    for name in ("cli.main", "corpus.annotate", "crf.features.extract_features",
                 "selftrain.self_train", "selftrain.random_search",
                 "crf.train.train", "crf.objective.encode_dataset",
                 "crf.objective.log_likelihood_and_gradient", "crf.optimizer.minimize",
                 "corpus.load_jsonl", "bootstrap.bootstrap_run", "bootstrap.label_occurrences",
                 "bootstrap.generate_patterns", "bootstrap.score_pattern",
                 "bootstrap.match_tuples", "bootstrap.apply_constraints",
                 "bootstrap.score_tuple", "evalsim.load_embeddings", "evalsim.evaluate_pairs",
                 "evalsim.rank_of_formal"):
        assert calls.get(name, 0) >= 1, name
