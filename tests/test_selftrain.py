"""Tests for self-training, pair extraction from taggings, and tuning."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from spellvar import selftrain
from spellvar.corpus import Corpus, CorpusFormatError, load_conllu
from spellvar.crf import TrainConfig, extract_features, marginals, viterbi_decode
from spellvar.crf.optimizer import _TOLERANCE
from spellvar.selftrain import (
    SearchSpace,
    SelfTrainConfig,
    pairs_from_tagging,
    random_search,
    self_train,
    token_f1,
)
from spellvar.synthetic import selftrain_fixture

from conftest import ABOVE_ONE_FEATURES, above_one_model, make_entry

# ``spellvar.crf`` rebinds ``train`` to the function; this is the module.
crf_train = importlib.import_module("spellvar.crf.train")

# Penalties sized so three known context words clear tau=0.9 but two do not
# until the easier wave has been absorbed into the training set.
CASCADE_TRAIN = TrainConfig(l1=0.02, l2=0.03)
CASCADE_CONFIG = SelfTrainConfig(max_iterations=5, confidence_tau=0.9, window=3,
                                 train=CASCADE_TRAIN)


class TestTokenF1:
    def test_perfect(self):
        assert token_f1([("I", "O")], [("I", "O")]) == 1.0

    def test_nothing_to_find(self):
        assert token_f1([("O", "O")], [("O", "O")]) == 1.0

    def test_all_wrong(self):
        assert token_f1([("I", "O")], [("O", "I")]) == 0.0

    def test_partial(self):
        assert token_f1([("I", "O")], [("I", "I")]) == pytest.approx(2 / 3)

    def test_pools_over_sequences(self):
        gold = [("I",), ("O", "I")]
        pred = [("O",), ("O", "I")]
        assert token_f1(gold, pred) == pytest.approx(2 / 3)


def _uniform(n, p=0.95):
    return [{"I": p, "O": 1 - p}] * n


class TestPairsFromTagging:
    def test_single_run(self):
        entry = make_entry("m8", "shorter way to say mate")
        labels = ("O", "O", "O", "O", "I")
        confidences = _uniform(5)
        (pair,) = pairs_from_tagging(entry, labels, confidences, iteration=2)
        assert (pair.informal, pair.formal) == ("m8", "mate")
        assert pair.score == pytest.approx(0.95)
        assert pair.method == "crf"
        assert pair.iteration == 2
        assert pair.source_entry == "e1"

    def test_all_o(self):
        entry = make_entry("m8", "shorter way to say mate")
        assert pairs_from_tagging(entry, ("O",) * 5, _uniform(5)) == []

    def test_two_runs_give_two_pairs(self):
        entry = make_entry("x", "alpha beta gap gamma")
        labels = ("I", "I", "O", "I")
        confidences = [
            {"I": 0.99, "O": 0.01},
            {"I": 0.91, "O": 0.09},
            {"I": 0.10, "O": 0.90},
            {"I": 0.97, "O": 0.03},
        ]
        pairs = pairs_from_tagging(entry, labels, confidences)
        assert [(p.formal, p.score) for p in pairs] == [
            ("alpha beta", pytest.approx(0.91)),
            ("gamma", pytest.approx(0.97)),
        ]

    def test_run_score_is_minimum_marginal(self):
        entry = make_entry("x", "alpha beta")
        confidences = [{"I": 0.99, "O": 0.01}, {"I": 0.92, "O": 0.08}]
        (pair,) = pairs_from_tagging(entry, ("I", "I"), confidences)
        assert pair.score == pytest.approx(0.92)

    def test_identity_pair_dropped(self):
        entry = make_entry("mate", "mate again")
        assert pairs_from_tagging(entry, ("I", "O"), _uniform(2)) == []

    def test_marginals_rounding_above_one_score_one(self):
        model = above_one_model()
        entry = make_entry("hw", " ".join(f for (f,) in ABOVE_ONE_FEATURES))
        labels, _ = viterbi_decode(model, ABOVE_ONE_FEATURES)
        (pair,) = pairs_from_tagging(entry, labels, marginals(model, ABOVE_ONE_FEATURES))
        assert (pair.formal, pair.score) == ("f g", 1.0)


def separable_tagging_data(n=12):
    data = []
    for i in range(n):
        entry = make_entry("hw", f"junk{i % 4} target", entry_id=f"s{i}")
        feats = extract_features(entry, window=1)
        data.append((feats, ("O", "I")))
    return data


class TestSearchSpace:
    def test_trials_and_folds(self):
        with pytest.raises(ValueError, match="trials"):
            SearchSpace(trials=0)
        with pytest.raises(ValueError, match="folds"):
            SearchSpace(folds=1)


class TestRandomSearch:
    def test_single_trial_returns_its_sample(self):
        data = separable_tagging_data()
        space = SearchSpace(trials=1, folds=3, seed=4)
        result = random_search(data, space)
        assert len(result.trials) == 1
        assert result.trials[0][:2] == (result.l1, result.l2)
        assert len(result.fold_scores) == 3

    def test_seeded_runs_identical(self):
        data = separable_tagging_data()
        space = SearchSpace(trials=3, folds=3, seed=11)
        assert random_search(data, space) == random_search(data, space)

    def test_separable_data_reaches_perfect_f1(self):
        data = separable_tagging_data()
        space = SearchSpace(trials=4, folds=3, seed=0)
        result = random_search(data, space)
        assert sum(result.fold_scores) / len(result.fold_scores) == 1.0

    def test_seeded_result_is_pinned(self):
        # Eleven noisy sequences in three folds of 4, 4 and 3 that each score
        # differently, so the values pin which sequences go to which fold.
        definitions = ["way of saying yes", "short for mate", "yes mate", "saying mate yes",
                       "short way to say yes", "mate of mine", "for yes", "way to say mate",
                       "say yes for short", "saying of mine", "mate"]
        data = []
        for i, text in enumerate(definitions):
            tags = tuple("I" if (word in ("yes", "mate")) != (j == i % 3) else "O"
                         for j, word in enumerate(text.split()))
            data.append((extract_features(make_entry("x", text, entry_id=f"s{i}"), 1), tags))
        result = random_search(data, SearchSpace(trials=3, folds=3, seed=3))
        assert (result.l1, result.l2) == (0.4491112409343899, 0.03760385003046944)
        assert result.fold_scores == (7 / 8, 10 / 13, 6 / 11)
        assert [mean for _, _, mean in result.trials] == [
            0.0, 0.7298951048951049, 0.6011695906432748]

    def test_best_mean_then_smallest_penalties_win(self):
        # On separable data one trial's penalties are too large to fit, and
        # the others tie at a perfect mean, the first of them not the smallest.
        result = random_search(separable_tagging_data(), SearchSpace(trials=6, folds=3, seed=0))
        best = max(mean for _, _, mean in result.trials)
        tied = [(l1, l2) for l1, l2, mean in result.trials if mean == best]
        assert 1 < len(tied) < len(result.trials) and tied[0] != min(tied)
        assert (result.l1, result.l2) == min(tied)
        assert sum(result.fold_scores) / len(result.fold_scores) == best

    def test_too_few_sequences_rejected(self):
        data = separable_tagging_data(2)
        with pytest.raises(ValueError, match="3-fold"):
            random_search(data, SearchSpace(folds=3))


@pytest.fixture(scope="module")
def staircase():
    return selftrain_fixture(seed=0)


@pytest.fixture(scope="module")
def cascade(staircase):
    return self_train(staircase.gold, staircase.unlabeled, CASCADE_CONFIG)


class TestSelfTrain:
    def test_easy_wave_promoted_first(self, staircase, cascade):
        first = set(cascade.trace[0]["promoted_ids"])
        assert set(staircase.waves["wave0"]) <= first

    def test_harder_wave_needs_absorbed_silver(self, staircase, cascade):
        first = set(cascade.trace[0]["promoted_ids"])
        second = set(cascade.trace[1]["promoted_ids"])
        assert first.isdisjoint(set(staircase.waves["wave1"]))
        assert set(staircase.waves["wave1"]) <= second

    def test_far_wave_never_promoted(self, staircase, cascade):
        promoted = {pid for record in cascade.trace
                    for pid in record.get("promoted_ids", [])}
        assert promoted.isdisjoint(set(staircase.waves["wave2"]))

    def test_all_pairs_are_planted(self, staircase, cascade):
        truth = dict(staircase.truth)
        assert cascade.pairs
        for pair in cascade.pairs:
            assert truth.get(pair.informal) == pair.formal

    def test_promotions_disjoint_across_iterations(self, cascade):
        seen: set[str] = set()
        for record in cascade.trace:
            ids = set(record["promoted_ids"])
            assert seen.isdisjoint(ids)
            seen |= ids

    def test_labeled_plus_remaining_is_constant(self, staircase, cascade):
        total = len(staircase.gold) + len(staircase.unlabeled)
        for record in cascade.trace:
            assert record["labeled_size"] + record["remaining_unlabeled"] == total

    def test_promoted_marginals_clear_threshold(self, cascade):
        for record in cascade.trace:
            if record["promoted"]:
                assert record["min_promoted_marginal"] > CASCADE_CONFIG.confidence_tau
        for pair in cascade.pairs:
            assert pair.score > CASCADE_CONFIG.confidence_tau

    def test_cumulative_pairs_non_decreasing(self, cascade):
        totals = [r["pairs_total"] for r in cascade.trace if "pairs_total" in r]
        assert totals == sorted(totals)

    def test_stops_early_once_nothing_qualifies(self, cascade):
        assert cascade.trace[-1]["early_stop"] is True
        assert len(cascade.trace) < CASCADE_CONFIG.max_iterations

    def test_model_records_feature_window(self, staircase, cascade):
        assert cascade.model.window == CASCADE_CONFIG.window == 3
        assert any(f.startswith("+3:") for f in cascade.model.feature_index)
        untrained = SelfTrainConfig(max_iterations=0, window=2, train=CASCADE_TRAIN)
        assert self_train(staircase.gold, staircase.unlabeled, untrained).model.window == 2

    def test_trace_records_optimizer_end_state(self, cascade):
        for record in cascade.trace:
            assert record["converged"] is True
            assert isinstance(record["iterations"], int) and record["iterations"] >= 1
        last = cascade.trace[-1]
        assert (last["converged"], last["iterations"]) == (
            cascade.model.converged, cascade.model.iterations)

    def test_empty_definitions_are_never_promoted(self, staircase, cascade):
        blank = make_entry("blank", "", entry_id="blank1")
        unlabeled = Corpus(entries=(blank, *staircase.unlabeled.entries))
        result = self_train(staircase.gold, unlabeled, CASCADE_CONFIG)
        assert result.pairs == cascade.pairs
        assert [r["promoted_ids"] for r in result.trace] == [
            r["promoted_ids"] for r in cascade.trace]

    def test_deterministic(self, staircase, cascade):
        again = self_train(staircase.gold, staircase.unlabeled, CASCADE_CONFIG)
        assert again.trace == cascade.trace
        assert again.pairs == cascade.pairs

    def test_tau_one_promotes_nothing(self, staircase):
        config = SelfTrainConfig(max_iterations=3, confidence_tau=1.0, window=3,
                                 train=CASCADE_TRAIN)
        result = self_train(staircase.gold, staircase.unlabeled, config)
        assert result.pairs == []
        assert result.trace[0]["promoted"] == 0
        assert result.trace[0]["early_stop"] is True

    def test_zero_iterations_still_trains(self, staircase):
        config = SelfTrainConfig(max_iterations=0, train=CASCADE_TRAIN)
        result = self_train(staircase.gold, staircase.unlabeled, config)
        assert result.pairs == []
        assert result.trace == []
        entry, tags = staircase.gold[0]
        path, _ = viterbi_decode(result.model, extract_features(entry, config.window))
        assert path == list(tags)

    def test_empty_gold_rejected(self, staircase):
        with pytest.raises(ValueError, match="gold"):
            self_train([], staircase.unlabeled, CASCADE_CONFIG)

    def test_id_clash_rejected(self, staircase):
        entry, _ = staircase.gold[0]
        clashing = Corpus(entries=(entry,))
        with pytest.raises(ValueError, match=entry.entry_id):
            self_train(staircase.gold, clashing, CASCADE_CONFIG)

    def test_duplicate_gold_ids_rejected(self, staircase):
        with pytest.raises(CorpusFormatError, match="duplicate entry_id"):
            self_train(staircase.gold[:1] * 2, staircase.unlabeled, CASCADE_CONFIG)

    def test_parsed_annotations_reach_the_features(self, staircase, tmp_path, monkeypatch):
        # One unparsed lemma in the file fills that lemma alone; the parse stays.
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text('{"word": "ur", "definition": "saying your"}\n'
                               '{"word": "m8", "definition": "mate"}\n', encoding="utf-8")
        annotations = tmp_path / "annotations.conllu"
        annotations.write_text("1\tsaying\tsay\tVERB\tVBG\t_\t0\troot\t_\t_\n"
                               "2\tyour\tyour\tPRON\tPRP$\t_\t1\tobj\t_\t_\n\n"
                               "1\tmate\t_\tNOUN\tNN\t_\t0\troot\t_\t_\n", encoding="utf-8")
        seen = {}

        def recording(entry, window):
            seen[entry.entry_id] = features = extract_features(entry, window)
            return features

        monkeypatch.setattr(selftrain, "extract_features", recording)
        config = SelfTrainConfig(max_iterations=0, train=CASCADE_TRAIN)
        self_train(staircase.gold, load_conllu(corpus_path, annotations), config)
        assert {"tag_=VBG", "dep_=root", "lemma_=say"} <= set(seen["e1"][0])
        assert {"tag_=PRP$", "dep_=obj", "head_tag=VBG"} <= set(seen["e1"][1])
        assert {"tag_=NN", "dep_=root", "lemma_=mate", "pos_=NOUN"} <= set(seen["e2"][0])

    def test_tag_length_mismatch_rejected(self, staircase):
        entry, _ = staircase.gold[0]
        bad = [(entry, ("I",))]
        with pytest.raises(ValueError, match=entry.entry_id):
            self_train(bad, staircase.unlabeled, CASCADE_CONFIG)


def recorded(run, *, cold=False):
    """``run()``'s result, the start point of every optimizer call it made
    and every model that ``spellvar.selftrain`` trained, in call order; with
    ``cold`` each training drops its start model."""
    starts, models = [], []
    real_minimize, real_train = crf_train.minimize, selftrain.train

    def minimize(fun_grad, x0, **kwargs):
        starts.append(np.array(x0))
        return real_minimize(fun_grad, x0, **kwargs)

    def train(data, config, *, start=None):
        models.append(real_train(data, config, start=None if cold else start))
        return models[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crf_train, "minimize", minimize)
        patch.setattr(selftrain, "train", train)
        return run(), starts, models


def weights(model):
    return np.concatenate([model.state.ravel(), model.transitions.ravel()])


@pytest.fixture(scope="module")
def warm(staircase):
    return recorded(lambda: self_train(staircase.gold, staircase.unlabeled, CASCADE_CONFIG))


@pytest.fixture(scope="module")
def cold(staircase):
    return recorded(lambda: self_train(staircase.gold, staircase.unlabeled, CASCADE_CONFIG),
                    cold=True)


class TestWarmStart:
    def test_rounds_start_at_the_last_rounds_weights(self, warm):
        result, starts, models = warm
        assert len(starts) == len(models) == len(result.trace) > 1
        assert not starts[0].any()
        for previous, start, model in zip(models, starts[1:], models[1:]):
            n_old, n_new = len(previous.feature_index), len(model.feature_index)
            assert n_new > n_old
            state = start[:-4].reshape(n_new, 2)
            np.testing.assert_array_equal(state[:n_old], previous.state)
            assert not state[n_old:].any()
            np.testing.assert_array_equal(start[-4:].reshape(2, 2), previous.transitions)

    def test_each_rounds_features_begin_with_the_last_rounds(self, warm):
        _, _, models = warm
        for previous, model in zip(models, models[1:]):
            columns = list(model.feature_index.items())
            assert columns[:len(previous.feature_index)] == list(previous.feature_index.items())

    def test_cold_and_warm_rounds_agree(self, warm, cold):
        (warm_result, _, warm_models), (cold_result, _, cold_models) = warm, cold
        assert [(p.informal, p.formal, p.iteration, p.source_entry) for p in warm_result.pairs] \
            == [(p.informal, p.formal, p.iteration, p.source_entry) for p in cold_result.pairs]
        assert [p.score for p in warm_result.pairs] == pytest.approx(
            [p.score for p in cold_result.pairs], abs=1e-6)
        assert [r["promoted_ids"] for r in warm_result.trace] == [
            r["promoted_ids"] for r in cold_result.trace]
        # With l2 > 0 the objective is l2-strongly convex, so a point whose
        # pseudo-gradient has max-norm below the tolerance lies within
        # sqrt(n) * tolerance / l2 of the one minimizer.
        for ours, theirs in zip(warm_models, cold_models, strict=True):
            assert ours.feature_index == theirs.feature_index
            assert ours.converged and theirs.converged
            bound = 2 * math.sqrt(len(weights(ours))) * _TOLERANCE / CASCADE_TRAIN.l2
            assert np.linalg.norm(weights(ours) - weights(theirs)) <= bound
        assert sum(m.iterations for m in warm_models[1:]) < sum(
            m.iterations for m in cold_models[1:])

    def test_random_search_trains_from_zero(self):
        space = SearchSpace(trials=2, folds=3, seed=0)
        _, starts, models = recorded(lambda: random_search(separable_tagging_data(), space))
        assert len(starts) == len(models) == space.trials * space.folds
        assert not any(start.any() for start in starts)

    def test_zero_rounds_train_from_zero(self, staircase):
        config = SelfTrainConfig(max_iterations=0, train=CASCADE_TRAIN)
        _, starts, _ = recorded(lambda: self_train(staircase.gold, staircase.unlabeled, config))
        assert len(starts) == 1 and not starts[0].any()


class TestSelfTrainConfig:
    @pytest.mark.parametrize("tau", [0.69, 1.01])
    def test_tau_range(self, tau):
        with pytest.raises(ValueError, match="confidence_tau"):
            SelfTrainConfig(confidence_tau=tau)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            SelfTrainConfig(max_iterations=-1)

    def test_window_positive(self):
        with pytest.raises(ValueError, match="window"):
            SelfTrainConfig(window=0)
