"""Tests for the planted-truth corpus generators."""

from __future__ import annotations

import pytest

from spellvar.bootstrap import normalized_levenshtein
from spellvar.synthetic import (
    BOOTSTRAP_TEMPLATES,
    SELFTRAIN_CONTEXTS,
    TRAP_STOPWORDS,
    bootstrap_fixture,
    selftrain_fixture,
)


class TestBootstrapFixture:
    def test_sizes(self):
        fixture = bootstrap_fixture(n_entries=200, n_pairs=40, n_seeds=5, n_traps=6)
        assert len(fixture.corpus) == 200
        assert len(fixture.truth) == 40
        assert len(fixture.seeds) == 5
        assert len(fixture.traps) == 6

    def test_seeds_are_planted_pairs(self):
        fixture = bootstrap_fixture()
        assert set(fixture.seeds) <= set(fixture.truth)

    def test_every_pair_planted_under_every_template(self):
        fixture = bootstrap_fixture(n_entries=150, n_pairs=10, n_seeds=3, n_traps=2)
        texts_by_headword: dict[str, list[str]] = {}
        for entry in fixture.corpus:
            texts_by_headword.setdefault(entry.headword, []).append(entry.definition_text)
        for informal, formal in fixture.truth:
            texts = texts_by_headword[informal]
            for template in BOOTSTRAP_TEMPLATES:
                assert template.format(formal) in texts

    def test_trap_formals_are_stopwords_and_edit_far(self):
        fixture = bootstrap_fixture()
        for informal, formal in fixture.traps:
            assert formal in TRAP_STOPWORDS
            assert normalized_levenshtein(informal, formal) >= 0.5

    def test_pairs_are_edit_close(self):
        for informal, formal in bootstrap_fixture().truth:
            assert informal != formal
            assert normalized_levenshtein(informal, formal) < 0.5

    def test_deterministic(self):
        assert bootstrap_fixture(seed=3) == bootstrap_fixture(seed=3)

    def test_seed_changes_output(self):
        assert bootstrap_fixture(seed=0).truth != bootstrap_fixture(seed=1).truth

    @pytest.mark.parametrize("kwargs", [
        {"n_seeds": 0},
        {"n_seeds": 41},
        {"n_traps": 7},
        {"n_traps": -1},
        {"n_entries": 10},
    ])
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            bootstrap_fixture(**kwargs)


class TestSelftrainFixture:
    def test_sizes(self):
        fixture = selftrain_fixture(
            n_gold_positive=20, n_gold_negative=20,
            n_waves=3, wave_size=6, n_distractors=12,
        )
        assert len(fixture.gold) == 40
        assert len(fixture.unlabeled) == 3 * 6 + 12
        assert len(fixture.truth) == 18
        assert sorted(fixture.waves) == ["wave0", "wave1", "wave2"]
        assert all(len(ids) == 6 for ids in fixture.waves.values())

    def test_gold_tags_align_and_mark_the_slot(self):
        fixture = selftrain_fixture()
        positives = 0
        for entry, tags in fixture.gold:
            assert len(tags) == len(entry.definition)
            if "I" in tags:
                positives += 1
                assert tags.count("I") == 1
                assert tags[-1] == "I"
        assert positives == 20

    def test_wave_entries_use_their_context_words(self):
        fixture = selftrain_fixture()
        entries = {entry.entry_id: entry for entry in fixture.unlabeled}
        for wave, ids in fixture.waves.items():
            context = SELFTRAIN_CONTEXTS[int(wave.removeprefix("wave"))]
            for entry_id in ids:
                lowers = [tok.lower for tok in entries[entry_id].definition]
                assert tuple(lowers[:3]) == context

    def test_truth_matches_planted_entries(self):
        fixture = selftrain_fixture()
        by_headword = {entry.headword: entry for entry in fixture.unlabeled}
        for informal, formal in fixture.truth:
            entry = by_headword[informal]
            assert entry.definition[-1].lower == formal

    def test_deterministic(self):
        assert selftrain_fixture(seed=5) == selftrain_fixture(seed=5)

    @pytest.mark.parametrize("n_waves", [1, 5])
    def test_wave_count_bounds(self, n_waves):
        with pytest.raises(ValueError, match="n_waves"):
            selftrain_fixture(n_waves=n_waves)

    def test_gold_and_unlabeled_ids_disjoint(self):
        fixture = selftrain_fixture()
        gold_ids = {entry.entry_id for entry, _ in fixture.gold}
        unlabeled_ids = {entry.entry_id for entry in fixture.unlabeled}
        assert gold_ids.isdisjoint(unlabeled_ids)
