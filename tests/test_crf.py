"""Tests for the sequence tagger: features, objective, training, decoding."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from spellvar.corpus import DictEntry, Token
from spellvar.crf import (
    LABELS,
    CrfModel,
    ModelFormatError,
    TrainConfig,
    encode_dataset,
    extract_features,
    load_model,
    log_likelihood_and_gradient,
    marginals,
    minimize,
    read_labeled_file,
    save_model,
    train,
    viterbi_decode,
    write_labeled_file,
)
from spellvar.crf.kernel import encode, forward_backward, viterbi
from spellvar.crf.model import FORMAT_VERSION, decode_batch

from conftest import make_entry


def annotated_entry() -> DictEntry:
    rows = [
        ("another", "another", "DET", "DT", 1, "det"),
        ("way", "way", "NOUN", "NN", 1, "root"),
        ("of", "of", "ADP", "IN", 3, "mark"),
        ("saying", "say", "VERB", "VBG", 1, "acl"),
        ("your", "your", "PRON", "PRP$", 3, "obj"),
    ]
    tokens = tuple(
        Token(surface=s, lower=s, lemma=lemma, upos=upos, xpos=xpos, dep=dep,
              head=head, is_title=False, is_digit=False)
        for s, lemma, upos, xpos, head, dep in rows
    )
    return DictEntry(
        headword="ur",
        definition=tokens,
        definition_text="another way of saying your",
        entry_id="e1",
    )


class TestExtractFeatures:
    def test_target_position_features(self):
        feats = extract_features(annotated_entry(), window=1)[4]
        expected = {
            "word.lower=your",
            "-1:word.lower=saying",
            "-1:pos_=VERB",
            "-1:tag_=VBG",
            "+1:EOS",
            "head_pos=VERB",
            "head_tag=VBG",
        }
        assert expected <= set(feats)

    def test_bias_everywhere(self):
        for feats in extract_features(annotated_entry(), window=1):
            assert "bias" in feats

    def test_single_token_has_both_boundaries(self):
        entry = make_entry("w", "mate")
        (feats,) = extract_features(entry, window=1)
        assert "-1:BOS" in feats
        assert "+1:EOS" in feats

    def test_boundaries_only_at_edges(self):
        feats = extract_features(annotated_entry(), window=1)
        for i, position in enumerate(feats):
            assert ("-1:BOS" in position) == (i == 0)
            assert ("+1:EOS" in position) == (i == len(feats) - 1)

    def test_sentinel_fields_skipped(self):
        entry = make_entry("w", "some words here")
        for feats in extract_features(entry, window=1):
            for feature in feats:
                assert "pos_=" not in feature
                assert "dep_=" not in feature
                assert "lemma_=" not in feature

    def test_window_two_reaches_further(self):
        feats = extract_features(annotated_entry(), window=2)[4]
        assert "-2:word.lower=of" in feats

    def test_window_one_has_no_offset_two(self):
        for feats in extract_features(annotated_entry(), window=1):
            for feature in feats:
                assert not feature.startswith(("-2:", "+2:"))


def _simple_data():
    return [
        ((["bias", "word.lower=mate"], ["bias", "word.lower=yes"]), ("I", "O")),
        ((["bias", "word.lower=your"],), ("I",)),
        ((["bias", "word.lower=the"], ["bias", "word.lower=mate"]), ("O", "I")),
    ]


class TestEncodeDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 tags"):
            encode_dataset([(([""], [""], [""]), ("I", "O"))])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            encode_dataset([((), ())])

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="B"):
            encode_dataset([((["f"],), ("B",))])

    def test_duplicate_features_counted_once(self):
        dataset = encode_dataset([((["f", "f"],), ("I",))])
        assert dataset.matrix.toarray().tolist() == [[1.0]]

    def test_transition_counts(self):
        dataset = encode_dataset(_simple_data())
        assert dataset.transition_counts[LABELS.index("I"), LABELS.index("O")] == 1
        assert dataset.transition_counts[LABELS.index("O"), LABELS.index("I")] == 1


class TestObjective:
    def test_zero_weights_is_uniform_over_paths(self):
        data = [((["a"], ["b"], ["c"]), ("I", "O", "I"))]
        dataset = encode_dataset(data)
        value, _ = log_likelihood_and_gradient(np.zeros(dataset.n_parameters), dataset)
        assert value == pytest.approx(-math.log(8), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        vocab = [f"f{i}" for i in range(8)]
        data = []
        for _ in range(10):
            length = int(rng.integers(1, 6))
            feats = tuple(
                ["bias"] + list(rng.choice(vocab, size=2, replace=False)) for _ in range(length)
            )
            tags = tuple(rng.choice(LABELS) for _ in range(length))
            data.append((feats, tags))
        dataset = encode_dataset(data)
        weights = rng.normal(scale=0.5, size=dataset.n_parameters)
        _, analytic = log_likelihood_and_gradient(weights, dataset, l2=0.3)
        step = 1e-5
        for k in range(dataset.n_parameters):
            bump = np.zeros_like(weights)
            bump[k] = step
            up, _ = log_likelihood_and_gradient(weights + bump, dataset, l2=0.3)
            down, _ = log_likelihood_and_gradient(weights - bump, dataset, l2=0.3)
            numeric = (up - down) / (2 * step)
            assert abs(numeric - analytic[k]) <= 1e-4 * max(1.0, abs(numeric))

    def test_l2_term_is_exact(self):
        dataset = encode_dataset(_simple_data())
        rng = np.random.default_rng(3)
        weights = rng.normal(size=dataset.n_parameters)
        bare_value, bare_grad = log_likelihood_and_gradient(weights, dataset, l2=0.0)
        value, grad = log_likelihood_and_gradient(weights, dataset, l2=0.7)
        assert value == pytest.approx(bare_value - 0.35 * float(weights @ weights), rel=1e-12)
        np.testing.assert_allclose(grad, bare_grad - 0.7 * weights, rtol=1e-12)


def random_model(rng, n_features: int = 6) -> CrfModel:
    state = {
        (f"f{i}", label): float(rng.normal())
        for i in range(n_features)
        for label in LABELS
    }
    transitions = {
        (a, b): float(rng.normal()) for a in LABELS for b in LABELS
    }
    return CrfModel.from_weights(state, transitions)


def random_features(rng, length: int, n_features: int = 6):
    return [
        [f"f{int(i)}" for i in rng.choice(n_features, size=2, replace=False)]
        for _ in range(length)
    ]


def enumerate_scores(model: CrfModel, features) -> dict[tuple[str, ...], float]:
    """Score every label path by brute force."""
    emissions = model.emission_scores(features)
    scores: dict[tuple[str, ...], float] = {}
    for path in itertools.product(range(len(model.labels)), repeat=len(features)):
        total = sum(emissions[t, y] for t, y in enumerate(path))
        total += sum(
            model.transitions[path[t - 1], path[t]] for t in range(1, len(path))
        )
        scores[tuple(model.labels[y] for y in path)] = float(total)
    return scores


class TestViterbi:
    def test_zero_weights_tie_breaks_to_o(self):
        model = CrfModel.from_weights({("f0", "I"): 0.0})
        labels, score = viterbi_decode(model, [["f0"], ["f0"], ["f0"]])
        assert labels == ["O", "O", "O"]
        assert score == 0.0

    def test_empty_sequence(self):
        model = CrfModel.from_weights({("f0", "I"): 1.0})
        assert viterbi_decode(model, []) == ([], 0.0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            model = random_model(rng)
            features = random_features(rng, length=int(rng.integers(1, 9)))
            labels, score = viterbi_decode(model, features)
            best_path, best_score = max(
                enumerate_scores(model, features).items(), key=lambda kv: kv[1]
            )
            assert score == pytest.approx(best_score, abs=1e-9)
            assert list(best_path) == labels

    def test_beats_random_paths(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        features = random_features(rng, length=12)
        _, score = viterbi_decode(model, features)
        emissions = model.emission_scores(features)
        for _ in range(1000):
            path = rng.integers(0, len(LABELS), size=12)
            random_score = emissions[np.arange(12), path].sum()
            random_score += model.transitions[path[:-1], path[1:]].sum()
            assert score >= random_score - 1e-9

    def test_strong_state_weight_tags_target(self):
        model = CrfModel.from_weights({("word.lower=your", "I"): 5.0})
        features = extract_features(annotated_entry(), window=1)
        labels, _ = viterbi_decode(model, features)
        assert labels == ["O", "O", "O", "O", "I"]

    def test_unknown_features_contribute_nothing(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        features = random_features(rng, length=6)
        with_extra = [feats + [f"unseen{i}"] for i, feats in enumerate(features)]
        assert viterbi_decode(model, features) == viterbi_decode(model, with_extra)


class TestMarginals:
    def test_zero_weights_uniform(self):
        model = CrfModel.from_weights({("f0", "I"): 0.0})
        for row in marginals(model, [["f0"], ["f0"]]):
            assert row["I"] == pytest.approx(0.5, abs=1e-12)
            assert row["O"] == pytest.approx(0.5, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            model = random_model(rng)
            features = random_features(rng, length=int(rng.integers(1, 7)))
            scores = enumerate_scores(model, features)
            z = sum(math.exp(s) for s in scores.values())
            got = marginals(model, features)
            for t in range(len(features)):
                for label in LABELS:
                    want = sum(
                        math.exp(s) for path, s in scores.items() if path[t] == label
                    ) / z
                    assert got[t][label] == pytest.approx(want, abs=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        model = random_model(rng)
        for row in marginals(model, random_features(rng, length=9)):
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_length_one_is_softmax(self):
        model = CrfModel.from_weights({("f0", "I"): 1.25, ("f0", "O"): -0.5})
        (row,) = marginals(model, [["f0"]])
        scores = np.array([1.25, -0.5])
        soft = np.exp(scores - scores.max())
        soft /= soft.sum()
        assert row["I"] == pytest.approx(float(soft[0]), abs=1e-12)
        assert row["O"] == pytest.approx(float(soft[1]), abs=1e-12)

    def test_empty_sequence(self):
        model = CrfModel.from_weights({("f0", "I"): 1.0})
        assert marginals(model, []) == []


# --- per-sequence oracles -------------------------------------------------
#
# The tagger's inference as it was before the batched kernel: a dict loop for
# emissions, one sequence at a time for Viterbi and forward-backward.  The
# kernel must agree with them on every sequence of a padded batch.


def oracle_emission_scores(model: CrfModel, features) -> np.ndarray:
    scores = np.zeros((len(features), len(model.labels)))
    for t, feats in enumerate(features):
        for feature in feats:
            row = model.feature_index.get(feature)
            if row is not None:
                scores[t] += model.state[row]
    return scores


def _argmax_last(values: np.ndarray, axis: int = 0):
    flipped = np.flip(values, axis=axis)
    return values.shape[axis] - 1 - np.argmax(flipped, axis=axis)


def oracle_viterbi(model: CrfModel, features) -> tuple[list[str], float]:
    n = len(features)
    if n == 0:
        return [], 0.0
    emissions = oracle_emission_scores(model, features)
    n_labels = len(model.labels)
    delta = emissions[0].copy()
    back = np.zeros((n, n_labels), dtype=int)
    for t in range(1, n):
        step = delta[:, None] + model.transitions
        best_prev = _argmax_last(step, axis=0)
        back[t] = best_prev
        delta = step[best_prev, np.arange(n_labels)] + emissions[t]
    last = int(_argmax_last(delta))
    path = [last]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return [model.labels[i] for i in path], float(delta[last])


def oracle_forward_backward(emissions: np.ndarray, transitions: np.ndarray):
    n = emissions.shape[0]
    alpha = np.empty_like(emissions)
    beta = np.zeros_like(emissions)
    alpha[0] = emissions[0]
    for t in range(1, n):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + transitions, axis=0) + emissions[t]
    for t in range(n - 2, -1, -1):
        beta[t] = logsumexp(transitions + (emissions[t + 1] + beta[t + 1])[None, :], axis=1)
    return alpha, beta, float(logsumexp(alpha[-1]))


KNOWN = [f"f{i}" for i in range(6)]
_position = st.lists(st.sampled_from(KNOWN + ["unseen0", "unseen1"]), max_size=4, unique=True)
_batches = st.lists(st.lists(_position, min_size=1, max_size=9), min_size=1, max_size=6)


@st.composite
def _models(draw) -> CrfModel:
    if draw(st.booleans()):
        # Every path ties, so Viterbi must answer all O.
        return CrfModel.from_weights({(f, label): 0.0 for f in KNOWN for label in LABELS})
    return random_model(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


class TestKernelAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(_models(), _batches)
    def test_emissions(self, model, batch):
        emissions = encode(batch, model.feature_index).emissions(model.state)
        for k, features in enumerate(batch):
            want = oracle_emission_scores(model, features)
            np.testing.assert_allclose(emissions[k, :len(features)], want, rtol=0, atol=1e-12)
            assert not emissions[k, len(features):].any()
            np.testing.assert_allclose(model.emission_scores(features), want, rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(_models(), _batches)
    def test_viterbi(self, model, batch):
        encoded = encode(batch, model.feature_index)
        paths, scores = viterbi(encoded.emissions(model.state), encoded.mask, model.transitions)
        tagged = decode_batch(model, batch)
        for k, features in enumerate(batch):
            want_labels, want_score = oracle_viterbi(model, features)
            assert [model.labels[i] for i in paths[k, :len(features)]] == want_labels
            assert scores[k] == pytest.approx(want_score, abs=1e-12)
            assert tagged[k][0] == want_labels
            assert tagged[k][1] == pytest.approx(want_score, abs=1e-12)
            labels, score = viterbi_decode(model, features)
            assert labels == want_labels
            assert score == pytest.approx(want_score, abs=1e-12)
            if not model.state.any():
                assert want_labels == ["O"] * len(features)

    @settings(max_examples=150, deadline=None)
    @given(_models(), _batches)
    def test_marginals(self, model, batch):
        encoded = encode(batch, model.feature_index)
        log_z, probs, _ = forward_backward(
            encoded.emissions(model.state), encoded.mask, model.transitions
        )
        tagged = decode_batch(model, batch)
        for k, features in enumerate(batch):
            alpha, beta, want_log_z = oracle_forward_backward(
                oracle_emission_scores(model, features), model.transitions
            )
            want = np.exp(alpha + beta - want_log_z)
            assert log_z[k] == pytest.approx(want_log_z, abs=1e-12)
            np.testing.assert_allclose(probs[k, :len(features)], want, rtol=0, atol=1e-12)
            for rows in (tagged[k][2], marginals(model, features)):
                got = np.array([[row[label] for label in LABELS] for row in rows])
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_batches, st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_objective(self, batch, seed, l2):
        rng = np.random.default_rng(seed)
        data = [(features, tuple(rng.choice(LABELS, size=len(features)))) for features in batch]
        dataset = encode_dataset(data)
        weights = rng.normal(size=dataset.n_parameters)
        value, gradient = log_likelihood_and_gradient(weights, dataset, l2=l2)

        n_state = dataset.n_features * len(LABELS)
        model = CrfModel(feature_index=dataset.feature_index,
                         state=weights[:n_state].reshape(-1, len(LABELS)),
                         transitions=weights[n_state:].reshape(len(LABELS), len(LABELS)))
        want_value = -0.5 * l2 * float(weights @ weights)
        want_state = -l2 * model.state
        want_transitions = -l2 * model.transitions
        for features, tags in data:
            gold = [LABELS.index(tag) for tag in tags]
            emissions = oracle_emission_scores(model, features)
            alpha, beta, log_z = oracle_forward_backward(emissions, model.transitions)
            want_value += sum(emissions[t, y] for t, y in enumerate(gold)) - log_z
            want_value += sum(model.transitions[a, b] for a, b in zip(gold, gold[1:]))
            probs = np.exp(alpha + beta - log_z)
            for t, feats in enumerate(features):
                for feature in set(feats):
                    want_state[dataset.feature_index[feature]] -= probs[t]
                    want_state[dataset.feature_index[feature], gold[t]] += 1
            for t in range(1, len(features)):
                want_transitions[gold[t - 1], gold[t]] += 1
                want_transitions -= np.exp(alpha[t - 1][:, None] + model.transitions
                                           + (emissions[t] + beta[t])[None, :] - log_z)
        assert value == pytest.approx(want_value, abs=1e-9)
        np.testing.assert_allclose(gradient[:n_state], want_state.ravel(), rtol=0, atol=1e-9)
        np.testing.assert_allclose(gradient[n_state:], want_transitions.ravel(), rtol=0, atol=1e-9)


class TestDecodeBatch:
    def test_empty_sequences_mixed_in(self):
        model = random_model(np.random.default_rng(41))
        batch = [[], [["f0"], ["f1", "f2"]], [], [["f3"]]]
        tagged = decode_batch(model, batch)
        assert tagged[0] == ([], 0.0, []) and tagged[2] == ([], 0.0, [])
        for features, (labels, score, rows) in zip(batch, tagged):
            assert (labels, score) == viterbi_decode(model, features)
            assert rows == marginals(model, features)

    def test_empty_batch(self):
        model = random_model(np.random.default_rng(43))
        assert decode_batch(model, []) == []

    def test_repeated_feature_counts_once(self):
        model = CrfModel.from_weights({("f0", "I"): 1.5})
        np.testing.assert_array_equal(model.emission_scores([["f0", "f0"]]), [[1.5, 0.0]])


def separable_data(n: int = 50):
    """Sequences where the target feature alone decides the label."""
    rng = np.random.default_rng(23)
    fillers = [f"word.lower=w{i}" for i in range(12)]
    data = []
    for _ in range(n):
        length = int(rng.integers(3, 7))
        target_at = int(rng.integers(0, length))
        feats, tags = [], []
        for i in range(length):
            if i == target_at:
                feats.append(["bias", "word.lower=target"])
                tags.append("I")
            else:
                feats.append(["bias", str(rng.choice(fillers))])
                tags.append("O")
        data.append((tuple(feats), tuple(tags)))
    return data


class TestTrain:
    def test_separable_data_fits_perfectly(self):
        data = separable_data()
        model = train(data, TrainConfig(l1=0.1, l2=0.01))
        assert not model.degenerate
        for feats, tags in data:
            labels, _ = viterbi_decode(model, feats)
            assert labels == list(tags)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="no training data"):
            train([])

    def test_single_label_data_flagged_degenerate(self):
        data = [((["f1"], ["f2"]), ("O", "O"))]
        model = train(data, TrainConfig(l1=0.0, l2=0.1))
        assert model.degenerate

    def test_deterministic(self):
        data = separable_data(20)
        first = train(data, TrainConfig(l1=0.5, l2=0.1))
        second = train(data, TrainConfig(l1=0.5, l2=0.1))
        np.testing.assert_array_equal(first.state, second.state)
        np.testing.assert_array_equal(first.transitions, second.transitions)

    def test_huge_l1_zeroes_state_weights(self):
        model = train(separable_data(30), TrainConfig(l1=100.0, l2=0.0))
        assert np.count_nonzero(model.state) == 0

    def test_weight_norm_shrinks_with_l2(self):
        data = separable_data(30)
        norms = [
            float(np.linalg.norm(
                np.concatenate([
                    train(data, TrainConfig(l1=0.0, l2=l2)).state.ravel(),
                    train(data, TrainConfig(l1=0.0, l2=l2)).transitions.ravel(),
                ])
            ))
            for l2 in (0.01, 0.1, 1.0)
        ]
        assert norms[0] >= norms[1] >= norms[2]

    def test_model_reports_optimizer_end_state(self):
        data = separable_data(20)
        model = train(data, TrainConfig(l1=0.5, l2=0.1))
        assert model.converged is True
        assert model.iterations >= 1
        capped = train(data, TrainConfig(l1=0.5, l2=0.1, max_optimizer_iterations=1))
        assert (capped.converged, capped.iterations) == (False, 1)

    def test_pre_encoded_dataset_trains_identically(self):
        data = separable_data(20)
        config = TrainConfig(l1=0.5, l2=0.1)
        direct = train(data, config)
        shared = train(encode_dataset(data), config)
        np.testing.assert_array_equal(direct.state, shared.state)
        np.testing.assert_array_equal(direct.transitions, shared.transitions)
        assert direct.feature_index == shared.feature_index

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="non-negative"):
            TrainConfig(l1=-1.0)
        with pytest.raises(ValueError, match="iterations"):
            TrainConfig(max_optimizer_iterations=0)


class TestMinimize:
    def test_quadratic_converges(self):
        target = np.array([1.0, -2.0, 3.0])

        def fun(x):
            d = x - target
            return 0.5 * float(d @ d), d

        result = minimize(fun, np.zeros(3))
        assert result.converged
        np.testing.assert_allclose(result.x, target, atol=1e-4)

    def test_history_never_increases(self):
        rng = np.random.default_rng(29)
        matrix = rng.normal(size=(6, 6))
        quad = matrix.T @ matrix + np.eye(6)
        linear = rng.normal(size=6)

        def fun(x):
            return 0.5 * float(x @ quad @ x) + float(linear @ x), quad @ x + linear

        result = minimize(fun, rng.normal(size=6), l1=0.3)
        for before, after in zip(result.history, result.history[1:]):
            assert after <= before + 1e-12

    def test_l1_reaches_exact_zero(self):
        def fun(x):
            d = x - 0.5
            return 0.5 * float(d @ d), d

        result = minimize(fun, np.array([2.0]), l1=1.0)
        assert result.x[0] == 0.0

    def test_l1_shrinks_optimum(self):
        def fun(x):
            d = x - 3.0
            return 0.5 * float(d @ d), d

        result = minimize(fun, np.array([0.0]), l1=1.0)
        assert result.x[0] == pytest.approx(2.0, abs=1e-4)

    def test_non_finite_start_rejected(self):
        def fun(x):
            return float("inf"), x

        with pytest.raises(ValueError, match="not finite"):
            minimize(fun, np.zeros(2))


class TestModelIo:
    def test_round_trip_preserves_decoding(self, tmp_path):
        data = separable_data(30)
        model = train(data, TrainConfig(l1=0.5, l2=0.1))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(31)
        for _ in range(100):
            features = random_features(rng, length=int(rng.integers(1, 8)))
            assert viterbi_decode(loaded, features) == viterbi_decode(model, features)
        np.testing.assert_array_equal(loaded.state, model.state)
        assert loaded.window == model.window
        assert loaded.final_objective == pytest.approx(model.final_objective)

    def test_optimizer_state_round_trips(self, tmp_path):
        model = train(separable_data(20), TrainConfig(l1=0.5, l2=0.1))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.converged, loaded.iterations) == (model.converged, model.iterations)
        assert model.iterations >= 1

    def test_file_without_optimizer_keys_loads(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(CrfModel.from_weights({("f0", "I"): 1.0}), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["converged"], payload["iterations"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_model(path)
        assert (loaded.converged, loaded.iterations) == (None, None)
        assert viterbi_decode(loaded, [["f0"]]) == (["I"], 1.0)

    @pytest.mark.parametrize("edit", [
        lambda p: p["states"]["f0"].__setitem__(0, float("nan")),
        lambda p: p["states"]["f0"].__setitem__(1, float("inf")),
        lambda p: p["transitions"][1].__setitem__(0, float("-inf")),
        lambda p: p["states"]["f0"].append(0.5),
        lambda p: p["states"].__setitem__("f1", 2.0),
        lambda p: p["transitions"].append([0.0, 0.0]),
        lambda p: p["transitions"][0].pop(),
        lambda p: p.__setitem__("converged", "yes"),
        lambda p: p.__setitem__("iterations", -1),
        lambda p: p.__setitem__("iterations", 2.5),
    ], ids=["nan-state", "inf-state", "inf-transition", "long-state-row", "scalar-state-row",
            "extra-transition-row", "short-transition-row", "converged-string",
            "negative-iterations", "fractional-iterations"])
    def test_malformed_weights_rejected(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(CrfModel.from_weights({("f0", "I"): 1.0}), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="corrupt"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = CrfModel.from_weights({("f0", "I"): 1.0})
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
        with pytest.raises(ModelFormatError, match="unreadable"):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        model = CrfModel.from_weights({("f0", "I"): 1.0})
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = path.read_text(encoding="utf-8")
        path.write_text(
            payload.replace(f'"version": {FORMAT_VERSION}', '"version": 99'),
            encoding="utf-8",
        )
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"something": "else"}', encoding="utf-8")
        with pytest.raises(ModelFormatError, match="not a"):
            load_model(path)


class TestLabeledFile:
    def test_round_trip(self, tmp_path):
        blocks = [
            (("shorter", "way", "to", "say", "mate"), ("O", "O", "O", "O", "I")),
            (("yes",), ("I",)),
        ]
        path = tmp_path / "gold.tags"
        write_labeled_file(blocks, path)
        assert read_labeled_file(path) == blocks

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "gold.tags"
        path.write_text("mate\tB\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            read_labeled_file(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "gold.tags"
        path.write_text("just-a-word\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            read_labeled_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "gold.tags"
        path.write_text("", encoding="utf-8")
        assert read_labeled_file(path) == []
