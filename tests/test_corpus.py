"""Tests for tokenization, corpus loading, and annotation."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spellvar.corpus as corpus_module
from spellvar.corpus import (
    _TOKEN,
    Corpus,
    CorpusFormatError,
    DictEntry,
    VariantPair,
    annotate,
    load_conllu,
    load_jsonl,
    read_pairs_tsv,
    read_seed_pairs,
    read_word_list,
    tokenize,
    write_conllu,
    write_jsonl,
    write_pairs_tsv,
)

from conftest import make_corpus, make_entry


def peel_oracle(text):
    """Surfaces by splitting on whitespace and peeling non-alphanumeric
    characters off each chunk's edges one at a time."""
    surfaces = []
    for chunk in text.split():
        left = []
        right = []
        while chunk and not chunk[0].isalnum():
            left.append(chunk[0])
            chunk = chunk[1:]
        while chunk and not chunk[-1].isalnum():
            right.append(chunk[-1])
            chunk = chunk[:-1]
        surfaces.extend(left)
        if chunk:
            surfaces.append(chunk)
        surfaces.extend(reversed(right))
    return surfaces


WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
tricky_text = st.text(st.one_of(
    st.sampled_from(WHITESPACE + "_"),
    st.characters(categories=["P", "Nd", "No", "M", "Cs"]),
    st.sampled_from("aZ9"),
), max_size=40)


class TestTokenize:
    def test_every_code_point_against_oracle(self):
        # Each character leads, trails and sits inside a chunk.  Building a
        # Token for each of the three million surfaces takes ten times as
        # long as the split, so this checks the pattern ``tokenize`` splits
        # with; the property below runs ``tokenize`` itself.
        for start in range(0, sys.maxunicode + 1, 4096):
            stop = min(start + 4096, sys.maxunicode + 1)
            text = " ".join(f"{c}a{c}b{c}" for c in map(chr, range(start, stop)))
            assert _TOKEN.findall(text) == peel_oracle(text), hex(start)

    @settings(max_examples=500)
    @given(tricky_text)
    def test_surfaces_match_oracle(self, text):
        assert [t.surface for t in tokenize(text)] == peel_oracle(text)

    def test_plain_sentence(self):
        tokens = tokenize("scottish way of saying yes")
        assert [t.lower for t in tokens] == ["scottish", "way", "of", "saying", "yes"]

    def test_empty_text(self):
        assert tokenize("") == ()

    def test_quotes_become_tokens(self):
        tokens = tokenize('way of saying "your"')
        assert [t.surface for t in tokens] == ["way", "of", "saying", '"', "your", '"']

    def test_trailing_punctuation_split(self):
        tokens = tokenize('shorter way to say "mate"')
        assert len(tokens) == 7
        assert [t.surface for t in tokens].count('"') == 2

    def test_interior_characters_survive(self):
        tokens = tokenize("don't say gr8 stuff")
        assert [t.surface for t in tokens] == ["don't", "say", "gr8", "stuff"]

    def test_field_derivation(self):
        (tok,) = tokenize("Mate")
        assert tok.lower == "mate"
        assert tok.is_title
        assert not tok.is_digit
        assert tok.lemma == "_" and tok.upos == "_" and tok.dep == "_"
        assert tok.head == 0

    def test_digits(self):
        tokens = tokenize("8 m8")
        assert tokens[0].is_digit
        assert not tokens[1].is_digit

    @given(st.text(max_size=60))
    def test_retokenizing_surfaces_is_idempotent(self, text):
        once = [t.surface for t in tokenize(text)]
        twice = [t.surface for t in tokenize(" ".join(once))]
        assert once == twice

    @given(st.text(max_size=60))
    def test_heads_are_self_indices(self, text):
        for i, tok in enumerate(tokenize(text)):
            assert tok.head == i

    def test_shared_tokens_are_built_once(self):
        built = {}
        first, second = tokenize("way of saying", built), tokenize("way to say", built)
        assert first == tokenize("way of saying") and second == tokenize("way to say")
        assert first[0] is second[0]
        assert first[1] is not second[1]
        assert tokenize("say way", built)[1] is not first[0]  # another position


class TestLoadJsonl:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_basic_load(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"word": "m8", "definition": 'shorter way to say "mate"'}),
            json.dumps({"word": "aye", "definition": "scottish way of saying yes"}),
        ])
        corpus = load_jsonl(path)
        assert len(corpus) == 2
        assert all(tok.upos == "_" and tok.lemma == "_" for e in corpus for tok in e.definition)
        first = corpus.entries[0]
        assert first.headword == "m8"
        assert len(first.definition) == 7
        assert corpus.entries[1].headword == "aye"

    def test_order_and_synthesized_ids(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"word": f"w{i}", "definition": "x"}) for i in range(5)
        ])
        corpus = load_jsonl(path)
        assert [e.entry_id for e in corpus] == ["e1", "e2", "e3", "e4", "e5"]

    def test_optional_metadata(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({
                "word": "m8", "definition": "mate", "example": "see you m8",
                "author": "someone", "upvotes": 10, "downvotes": 2,
            }),
        ])
        entry = load_jsonl(path).entries[0]
        assert entry.example == "see you m8"
        assert entry.upvotes == 10
        assert entry.downvotes == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_jsonl(path)) == 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"word": "a", "definition": "b"}),
            "{not json",
        ])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_jsonl(path)

    @pytest.mark.parametrize("missing", ["word", "definition"])
    def test_missing_field_named(self, tmp_path, missing):
        record = {"word": "a", "definition": "b"}
        del record[missing]
        path = self._write(tmp_path, [json.dumps(record)])
        with pytest.raises(CorpusFormatError, match=missing):
            load_jsonl(path)

    def test_falsy_entry_ids_kept(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"word": "a", "definition": "x", "entry_id": 0}),
            json.dumps({"word": "b", "definition": "y", "entry_id": None}),
            json.dumps({"word": "c", "definition": "z", "entry_id": "e1"}),
        ])
        assert [e.entry_id for e in load_jsonl(path)] == ["0", "e2", "e1"]

    def test_empty_entry_id_names_file_and_line(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"word": "a", "definition": "x"}),
            json.dumps({"word": "b", "definition": "y", "entry_id": ""}),
        ])
        with pytest.raises(CorpusFormatError, match=f"^{path}: line 2: empty entry_id"):
            load_jsonl(path)

    def test_line_errors_name_the_file(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"word": 3, "definition": "x"})])
        with pytest.raises(CorpusFormatError, match=f"^{path}: line 1: "):
            load_jsonl(path)

    def test_duplicate_entry_id_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"word": "a", "definition": "x", "entry_id": "dup"}),
            json.dumps({"word": "b", "definition": "y", "entry_id": "dup"}),
        ])
        with pytest.raises(CorpusFormatError, match="dup"):
            load_jsonl(path)

    def test_negative_votes_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"word": "a", "definition": "x", "upvotes": -1}),
        ])
        with pytest.raises(CorpusFormatError, match="upvotes"):
            load_jsonl(path)

    @pytest.mark.parametrize("field", ["upvotes", "downvotes"])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_votes_rejected(self, tmp_path, field, value):
        path = self._write(tmp_path, [
            json.dumps({"word": "a", "definition": "x", field: value}),
        ])
        with pytest.raises(CorpusFormatError,
                           match=f"line 1: entry 'e1': {field} must be a non-negative integer"):
            load_jsonl(path)

    def test_round_trip_through_write_jsonl(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"word": "m8", "definition": "mate", "upvotes": 3}),
            json.dumps({"word": "ur", "definition": "your"}),
        ])
        corpus = load_jsonl(path)
        out = tmp_path / "copy.jsonl"
        write_jsonl(corpus, out)
        again = load_jsonl(out)
        assert [e.headword for e in again] == [e.headword for e in corpus]
        assert again.entries[0].upvotes == 3


class TestEntryValidation:
    def test_empty_headword_rejected(self):
        with pytest.raises(CorpusFormatError, match="headword"):
            make_entry("  ", "some definition")

    def test_head_out_of_range_rejected(self):
        tokens = tokenize("a b")
        bad = (tokens[0], replace(tokens[1], head=9))
        with pytest.raises(CorpusFormatError, match="head index"):
            DictEntry(headword="x", definition=bad, definition_text="a b", entry_id="e1")


class TestAnnotate:
    def test_fallback_suffix_rule(self):
        corpus = annotate(make_corpus(("w", "walking")))
        (tok,) = corpus.entries[0].definition
        assert tok.upos == "VERB"
        assert tok.lemma == "walking"

    def test_fallback_closed_class(self):
        corpus = annotate(make_corpus(("w", "the way of it")))
        tags = [t.upos for t in corpus.entries[0].definition]
        assert tags[0] == "DET"
        assert tags[2] == "ADP"

    def test_fills_every_lemma_and_upos(self):
        corpus = annotate(make_corpus(("w", "a way of saying yes")))
        for tok in corpus.entries[0].definition:
            assert tok.upos != "_"
            assert tok.lemma != "_"

    @pytest.mark.parametrize("lemma,upos", [("_", "X"), ("wlk", "_")])
    def test_fills_only_the_missing_field(self, lemma, upos):
        (tok,) = tokenize("Walking")
        parsed = replace(tok, lemma=lemma, upos=upos, xpos="VBG", dep="root")
        entry = DictEntry(headword="w", definition=(parsed,), definition_text="Walking",
                          entry_id="e1")
        (new,) = annotate(Corpus(entries=(entry,))).entries[0].definition
        filled = {"lemma": "walking"} if lemma == "_" else {"upos": "VERB"}
        assert new == replace(parsed, **filled)

    def test_fallback_changes_only_annotation_fields(self):
        entry = make_entry("w", "The 8 walking Dogs")
        annotated = annotate(Corpus(entries=(entry,))).entries[0].definition
        for i, (old, new) in enumerate(zip(entry.definition, annotated)):
            expected = replace(old, lemma=old.lower, upos=new.upos, xpos="_", dep="_", head=i)
            assert new == expected

    def test_idempotent(self):
        once = annotate(make_corpus(("w", "another way of saying your")))
        twice = annotate(once)
        assert once == twice

    def test_each_shared_token_is_filled_once(self, tmp_path, monkeypatch):
        texts = ["the cat runs", "the dog runs", "The cat", "the cat runs"]
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("".join(json.dumps({"word": f"w{i}", "definition": text}) + "\n"
                                       for i, text in enumerate(texts)), encoding="utf-8")
        guessed = []
        monkeypatch.setattr(corpus_module, "_guess_upos",
                            lambda tok, guess=corpus_module._guess_upos:
                            guessed.append(tok) or guess(tok))
        loaded = load_jsonl(corpus_path)
        annotated = annotate(loaded)
        # Five distinct (surface, position) tokens in eleven positions.
        assert len(guessed) == 5
        filled = {}
        for before, after in zip(loaded, annotated):
            for old, new in zip(before.definition, after.definition, strict=True):
                assert new == corpus_module.fill(old)
                assert filled.setdefault(old, new) is new
        assert len(filled) == 5

    def test_parsed_tokens_fill_only_their_gaps(self, tmp_path):
        # CoNLL-U rows with a missing lemma, UPOS or both, and complete ones.
        rows = {"the cat runs": ["the\tthe\tDET\t2", "cat\t_\t_\t3", "runs\trun\tVERB\t0"],
                "the dog runs": ["the\t_\tDET\t2", "dog\tdog\t_\t3", "runs\trun\tVERB\t0"],
                "The cat": ["The\tthe\tDET\t2", "cat\t_\t_\t0"]}
        texts = [*rows, "the cat runs"]
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("".join(json.dumps({"word": f"w{i}", "definition": text}) + "\n"
                                       for i, text in enumerate(texts)), encoding="utf-8")
        annotations = tmp_path / "annotations.conllu"
        annotations.write_text("".join(
            "".join(f"{i}\t{surface}\t{lemma}\t{upos}\tXX\t_\t{head}\tdep\t_\t_\n"
                    for i, (surface, lemma, upos, head) in
                    enumerate((row.split("\t") for row in rows[text]), start=1)) + "\n"
            for text in texts), encoding="utf-8")
        merged = load_conllu(corpus_path, annotations)
        annotated = annotate(merged)
        for before, after in zip(merged, annotated):
            for old, new in zip(before.definition, after.definition, strict=True):
                assert new == corpus_module.fill(old)
                assert (new.xpos, new.dep, new.head) == (old.xpos, old.dep, old.head)
        cat = annotated.entries[0].definition[1]
        assert (cat.lemma, cat.upos, cat.head) == ("cat", "NOUN", 2)

    def test_preserves_count_and_surfaces(self):
        base = make_corpus(("w", 'way of saying "Your" m8'))
        out = annotate(base)
        before = [t.surface for t in base.entries[0].definition]
        after = [t.surface for t in out.entries[0].definition]
        assert before == after


CONLLU_BLOCK = """\
1\tanother\tanother\tDET\tDT\t_\t2\tdet\t_\t_
2\tway\tway\tNOUN\tNN\t_\t0\troot\t_\t_
3\tof\tof\tADP\tIN\t_\t4\tmark\t_\t_
4\tsaying\tsay\tVERB\tVBG\t_\t2\tacl\t_\t_
5\tyour\tyour\tPRON\tPRP$\t_\t4\tobj\t_\t_
"""


class TestConllu:
    def _files(self, tmp_path, block=CONLLU_BLOCK, definition="another way of saying your"):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            json.dumps({"word": "ur", "definition": definition}) + "\n", encoding="utf-8"
        )
        ann_path = tmp_path / "annotations.conllu"
        ann_path.write_text(block + "\n", encoding="utf-8")
        return corpus_path, ann_path

    def test_merge(self, tmp_path):
        corpus = load_conllu(*self._files(tmp_path))
        assert all(tok.upos != "_" and tok.lemma != "_" for tok in corpus.entries[0].definition)
        tokens = corpus.entries[0].definition
        your = tokens[4]
        assert your.lower == "your"
        head = tokens[your.head]
        assert head.surface == "saying"
        assert head.upos == "VERB"
        assert head.xpos == "VBG"

    def test_file_head_zero_is_self_root(self, tmp_path):
        corpus = load_conllu(*self._files(tmp_path))
        way = corpus.entries[0].definition[1]
        assert way.head == 1
        assert way.dep == "root"

    def test_row_count_mismatch(self, tmp_path):
        short = "\n".join(CONLLU_BLOCK.splitlines()[:4])
        files = self._files(tmp_path, block=short)
        with pytest.raises(CorpusFormatError, match="4 annotation rows for 5 tokens"):
            load_conllu(*files)

    def test_head_out_of_range(self, tmp_path):
        bad = CONLLU_BLOCK.replace("5\tyour\tyour\tPRON\tPRP$\t_\t4", "5\tyour\tyour\tPRON\tPRP$\t_\t7")
        files = self._files(tmp_path, block=bad)
        with pytest.raises(CorpusFormatError, match="head index 7 out of range"):
            load_conllu(*files)

    def test_surface_mismatch_names_entry_and_position(self, tmp_path):
        bad = CONLLU_BLOCK.replace("2\tway", "2\tpath")
        files = self._files(tmp_path, block=bad)
        with pytest.raises(CorpusFormatError, match="token 1"):
            load_conllu(*files)

    def test_wrong_column_count(self, tmp_path):
        files = self._files(tmp_path, block="1\tanother\tDET\n")
        with pytest.raises(CorpusFormatError, match="10 tab-separated columns"):
            load_conllu(*files)

    def test_block_count_mismatch(self, tmp_path):
        corpus_path, ann_path = self._files(tmp_path)
        ann_path.write_text(CONLLU_BLOCK + "\n" + CONLLU_BLOCK + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="2 annotation blocks for 1 entries"):
            load_conllu(corpus_path, ann_path)

    def test_write_then_reload_round_trip(self, tmp_path):
        corpus = load_conllu(*self._files(tmp_path))
        out = tmp_path / "out.conllu"
        write_conllu(corpus, out)
        corpus_path, _ = self._files(tmp_path)
        again = load_conllu(corpus_path, out)
        assert again == corpus


class TestVariantPair:
    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            VariantPair(informal="same", formal="Same", score=1.0, method="baseline")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            VariantPair(informal="a", formal="b", score=1.0, method="magic")

    def test_baseline_score_pinned(self):
        with pytest.raises(ValueError):
            VariantPair(informal="a", formal="b", score=0.5, method="baseline")

    def test_bootstrap_score_non_negative(self):
        with pytest.raises(ValueError):
            VariantPair(informal="a", formal="b", score=-0.1, method="bootstrap")
        VariantPair(informal="a", formal="b", score=3.2, method="bootstrap")

    @pytest.mark.parametrize("score", [-0.01, 1.01])
    def test_crf_score_is_probability(self, score):
        with pytest.raises(ValueError):
            VariantPair(informal="a", formal="b", score=score, method="crf")

    @pytest.mark.parametrize("method, score", [
        ("bootstrap", math.nan), ("bootstrap", math.inf), ("crf", math.nan),
        ("baseline", math.nan),
    ])
    def test_score_must_be_finite(self, method, score):
        with pytest.raises(ValueError, match=f"score {score!r} is not finite"):
            VariantPair(informal="a", formal="b", score=score, method=method)

    @pytest.mark.parametrize("field", ["informal", "formal", "source_entry", "rule_id"])
    @pytest.mark.parametrize("breaking", ["\t", "\n", "\r"])
    def test_field_with_a_tab_or_line_break_rejected(self, field, breaking):
        fields = {"informal": "a", "formal": "b", "source_entry": "e1", "rule_id": "r1"}
        fields[field] += breaking + "x"
        with pytest.raises(ValueError, match=f"field '{field}' holds a tab or line break"):
            VariantPair(score=1.0, method="baseline", **fields)


class TestPairsTsv:
    def test_round_trip(self, tmp_path):
        pairs = [
            VariantPair(informal="aye", formal="yes", score=1.0, method="baseline",
                        rule_id="way_of_saying_dq", source_entry="e1"),
            VariantPair(informal="ur", formal="your", score=1.5, method="bootstrap",
                        iteration=2, source_entry="e2"),
            VariantPair(informal="m8", formal="mate", score=0.93, method="crf",
                        iteration=1, source_entry="e3"),
        ]
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        again = read_pairs_tsv(path)
        assert again == pairs

    @pytest.mark.parametrize("method", ["bootstrap", "crf"])
    @pytest.mark.parametrize("origin", ["r", "-3", "1.0", "+1", "\u00b2"])
    def test_origin_must_be_an_iteration_number(self, tmp_path, method, origin):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"ur\tyour\t0.5\t{method}\t1\te1\n"
                        f"m8\tmate\t0.5\t{method}\t{origin}\te2\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as info:
            read_pairs_tsv(path)
        assert str(info.value) == (
            f"{path}: line 2: origin {origin!r} is not an iteration number")

    def test_absent_origin_reads_as_zero(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("ur\tyour\t0.5\tcrf\nm8\tmate\t2.5\tbootstrap\t\te2\n",
                        encoding="utf-8")
        assert [pair.iteration for pair in read_pairs_tsv(path)] == [0, 0]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("ur\tyour\t0.5\tcrf\n\n \t \nm8\tmate\t2.5\tbootstrap\t1\te2\n",
                        encoding="utf-8")
        assert [(p.informal, p.formal) for p in read_pairs_tsv(path)] == [
            ("ur", "your"), ("m8", "mate")]

    def test_numeric_rule_id_round_trips(self, tmp_path):
        pairs = [VariantPair(informal="aye", formal="yes", score=1.0, method="baseline",
                             rule_id="7", source_entry="e1")]
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        assert read_pairs_tsv(path) == pairs

    def test_read_rejects_bad_row(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("only-one-column\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 1"):
            read_pairs_tsv(path)


class TestWordLists:
    def test_stopwords_skip_comments_and_case_fold(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nThe\n\nof\n", encoding="utf-8")
        assert read_word_list(path) == frozenset({"the", "of"})

    def test_seed_pairs(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text("# seeds\nAye\tYes\nur\tyour\n", encoding="utf-8")
        assert read_seed_pairs(path) == [("aye", "yes"), ("ur", "your")]

    def test_seed_pairs_reject_single_column(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text("solo\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 1"):
            read_seed_pairs(path)


    @pytest.mark.parametrize("text", ["", "# seeds\n\n"])
    def test_seed_file_without_a_pair_rejected(self, tmp_path, text):
        path = tmp_path / "seeds.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusFormatError) as info:
            read_seed_pairs(path)
        assert str(info.value) == f"{path}: no seed pairs"


# Each loader with two good lines and what it makes of them.
LOADERS = {
    "corpus": (load_jsonl, [b'{"word": "ur", "definition": "your"}\n'] * 2,
               lambda corpus: [e.headword for e in corpus]),
    "stopwords": (read_word_list, [b"the\n", b"of\n"], sorted),
    "seeds": (read_seed_pairs, [b"aye\tyes\n", b"ur\tyour\n"], list),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
class TestLoaderEncoding:
    def test_undecodable_byte_names_file_and_line(self, tmp_path, name):
        load, lines, _ = LOADERS[name]
        path = tmp_path / name
        path.write_bytes(lines[0] * 2000 + lines[1][:1] + b"\xff" + lines[1][1:] + lines[0])
        with pytest.raises(CorpusFormatError) as info:
            load(path)
        assert str(info.value) == f"{path}: line 2001: not UTF-8: byte 0xff"

    def test_byte_order_mark_dropped(self, tmp_path, name):
        load, lines, view = LOADERS[name]
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(b"".join(lines))
        marked.write_bytes(b"\xef\xbb\xbf" + b"".join(lines))
        assert view(load(marked)) == view(load(plain))
