"""Tests for the sequence tagger: features, objective, training, decoding."""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import deque
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import spellvar.crf.features as crf_features
import spellvar.crf.model as crf_model
from spellvar.corpus import SENTINEL, Corpus, DictEntry, Token, annotate
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
from spellvar.crf.kernel import (
    Batch,
    FeatureIds,
    Padding,
    backward,
    expected_transitions,
    forward,
    posteriors,
    viterbi,
)
from spellvar.crf.features import feature_ids
from spellvar.crf.model import FORMAT_VERSION, decode_batch
from spellvar.crf.train import TaggedIds
from spellvar.crf.optimizer import _TOLERANCE, _pseudo_gradient

from conftest import ABOVE_ONE_FEATURES, above_one_model, feature_names, make_entry


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

    def test_window_wider_than_the_entry_reaches_every_token(self):
        entry = annotated_entry()
        widest = extract_features(entry, window=len(entry.definition) - 1)
        assert extract_features(entry, window=10**5) == widest
        assert f"+{len(entry.definition) - 1}:word.lower=your" in widest[0]


_SURFACES = ["ur", "Mate", "u", "2", "way"]
# Annotation values; the sentinel leaves a template out.
_fields = st.sampled_from([SENTINEL, "NOUN", "obj"])


@st.composite
def _tokens(draw) -> Token:
    """A token whose head is its own index or another one below 5."""
    surface = draw(st.sampled_from(_SURFACES))
    return Token(surface, surface.casefold(), draw(_fields), draw(_fields), draw(_fields),
                 draw(_fields), draw(st.integers(0, 4)), surface.istitle(), surface.isdigit())


@st.composite
def _feature_corpora(draw) -> list[DictEntry]:
    """Entries of 0-6 tokens drawn from a few token objects, so that one
    object often stands in several entries and at several places, with a
    different head token in each.  A token whose head lies past its entry's
    end is replaced by an unparsed copy that is its own head."""
    pool = draw(st.lists(_tokens(), min_size=1, max_size=6))
    entries = []
    for k in range(draw(st.integers(0, 6))):
        n = draw(st.integers(0, 6))
        picks = [draw(st.sampled_from(pool)) for _ in range(n)]
        definition = tuple(tok if tok.head < n else replace(tok, head=i, dep=SENTINEL)
                           for i, tok in enumerate(picks))
        entries.append(DictEntry("hw", definition, " ".join(t.surface for t in definition),
                                 f"e{k}"))
    if draw(st.booleans()):
        entries = list(annotate(Corpus(entries=tuple(entries))).entries)
    return entries


def interned_features(entries, window) -> list[list[list[str]]]:
    """The string oracle: each entry's features once :func:`annotate` has
    filled it, interned and read back."""
    filled = annotate(Corpus(entries=tuple(entries))).entries
    return feature_names(FeatureIds().intern(extract_features(e, window) for e in filled))


class TestFeatureIds:
    @settings(max_examples=300, deadline=None)
    @given(_feature_corpora(), st.integers(1, 4), st.sampled_from([1, 3, 1 << 14]))
    def test_ids_name_the_oracle_features(self, entries, window, chunk):
        with mock.patch.object(crf_features, "_ASSEMBLY_CHUNK", chunk):
            got = feature_ids(entries, window)
        names = feature_names(got)
        assert names == interned_features(entries, window)
        assert got.ids.dtype == got.counts.dtype == got.lengths.dtype == np.int32
        if len(got.ids):
            # Every interned string is listed somewhere.
            listed = {f for features in names for feats in features for f in feats}
            assert sorted(got.vocabulary.names()) == sorted(listed)

    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_a_shared_token_with_different_heads(self, window):
        # ``shared`` heads its first token in one entry and is its own head
        # in the other; the parsed entry of annotated_entry() joins them.
        shared = Token("your", "your", SENTINEL, "PRON", SENTINEL, "obj", 0, False, False)
        first = Token("saying", "saying", "say", "VERB", "VBG", "root", 0, False, False)
        root = Token("Mate", "mate", SENTINEL, SENTINEL, SENTINEL, SENTINEL, 1, True, False)
        entries = [DictEntry("ur", (first, shared), "saying your", "a"),
                   DictEntry("m8", (shared,), "your", "b"),
                   DictEntry("x", (), "", "c"),
                   DictEntry("y", (first, root, shared), "saying Mate your", "d"),
                   annotated_entry()]
        got = feature_names(feature_ids(entries, window))
        assert got == interned_features(entries, window)
        assert "head_text=saying" in got[0][1] and "head_text=your" in got[1][0]
        # ``shared`` has no lemma; its features have the filled one.
        assert "lemma_=your" in got[1][0]

    @pytest.mark.parametrize("n_entries", [0, 2])
    def test_no_tokens(self, n_entries):
        entries = [DictEntry("hw", (), "", f"e{k}") for k in range(n_entries)]
        got = feature_ids(entries, 3)
        assert got.lengths.tolist() == [0] * n_entries
        assert len(got.ids) == len(got.counts) == 0


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

    @pytest.mark.parametrize("data, message", [
        ([((["f"],), ("I",)), ((["f"],), ("B",)), ((["f"], ["g"]), ("I",))], "unknown tag 'B'"),
        ([((["f"], ["g"], ["h"]), ("I", "B")), ((["f"],), ("B",))],
         "sequence has 3 feature lists but 2 tags"),
        ([((["f"],), ("O",)), ((), ()), ((["f"],), ("X",))], "empty sequences"),
        ([((["f"], ["g"]), ("O", "Q", "R"))], "sequence has 2 feature lists but 3 tags"),
    ], ids=["unknown-first", "mismatch-first", "empty-first", "mismatch-before-tags"])
    def test_the_first_faulty_sequence_is_reported(self, data, message):
        with pytest.raises(ValueError, match=message):
            encode_dataset(data)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6), min_size=1,
                    max_size=8))
    def test_gold_and_transitions_equal_a_loop(self, tag_lists):
        dataset = encode_dataset([([["f"]] * len(tags), tags) for tags in tag_lists])
        counts = np.zeros((len(LABELS), len(LABELS)))
        for tags in tag_lists:
            for prev, cur in zip(tags, tags[1:]):
                counts[LABELS.index(prev), LABELS.index(cur)] += 1
        assert same_bytes(dataset.transition_counts, counts)
        gold = [LABELS.index(tag) for tags in tag_lists for tag in tags]
        assert same_bytes(dataset.gold, np.array(gold, dtype=int))

    def test_duplicate_features_counted_once(self):
        dataset = encode_dataset([((["f", "f"],), ("I",))])
        assert dataset.batch.slots.tolist() == [[0]]

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
    for path in itertools.product(range(len(LABELS)), repeat=len(features)):
        total = sum(emissions[t, y] for t, y in enumerate(path))
        total += sum(
            model.transitions[path[t - 1], path[t]] for t in range(1, len(path))
        )
        scores[tuple(LABELS[y] for y in path)] = float(total)
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

    def test_posterior_rounding_above_one_is_clamped(self):
        model = above_one_model()
        assert viterbi_decode(model, ABOVE_ONE_FEATURES)[0] == ["I", "I", "O"]
        rows = marginals(model, ABOVE_ONE_FEATURES)
        assert [row["I"] for row in rows[:2]] == [1.0, 1.0]


# --- string-facing calls of the id kernel --------------------------------
#
# The kernel takes interned feature ids and runs the forward and backward
# recursions separately; these helpers give the tests the string batches and
# the combined results they were written against.


def oracle_encode(sequences, feature_index) -> Batch:
    """The string encoder the id tables replaced, kept verbatim: each
    position's features mapped to columns of ``feature_index``, unknown
    features dropped and a feature repeated within a position counted once."""
    columns: list[int] = []
    counts: list[int] = []
    for features in sequences:
        for feats in features:
            known = [c for c in dict.fromkeys(map(feature_index.get, feats)) if c is not None]
            columns.extend(known)
            counts.append(len(known))
    per_position = np.array(counts, dtype=np.intp)
    table = np.full((len(counts), per_position.max(initial=0)), len(feature_index), dtype=np.intp)
    table[np.arange(table.shape[1]) < per_position[:, None]] = columns
    lengths = np.array([len(features) for features in sequences], dtype=int)
    return Batch(np.ascontiguousarray(table.T), lengths)


def encode(sequences, feature_index) -> Batch:
    """String sequences interned, then mapped through ``feature_index``."""
    interned = FeatureIds().intern(sequences)
    return interned.encode(interned.vocabulary.columns(feature_index), len(feature_index))


def time_major(values: np.ndarray) -> np.ndarray:
    """A batch-major (sequences, positions, labels) array in the kernel's
    contiguous (positions, labels, sequences) layout."""
    return np.ascontiguousarray(np.moveaxis(values, 0, -1))


def batch_major(values: np.ndarray) -> np.ndarray:
    """A kernel array, (positions, labels, sequences) or a path's
    (positions, sequences), viewed with the sequences first."""
    return np.moveaxis(values, -1, 0)


def forward_backward(emissions, padding, transitions):
    """Log partitions, batch-major posteriors and expected transitions."""
    alpha, log_z = forward(emissions, padding, transitions)
    beta = backward(emissions, padding, transitions)
    return (log_z, batch_major(posteriors(alpha, beta, log_z, padding)),
            expected_transitions(emissions, alpha, beta, log_z, padding, transitions))


def decode_strings(model: CrfModel, batch) -> list[tuple[list[str], float, list[dict]]]:
    """``decode_batch`` of string sequences, split into each sequence's
    labels, score and per-position posterior dicts."""
    labels, scores, probs = decode_batch(model, FeatureIds().intern(batch))
    out, start = [], 0
    for features, score in zip(batch, scores.tolist()):
        stop = start + len(features)
        out.append(([LABELS[i] for i in labels[start:stop].tolist()], score,
                    [dict(zip(LABELS, row)) for row in probs[start:stop].tolist()]))
        start = stop
    return out


def deferred(fun_grad):
    """An objective returning arrays, in the optimizer's convention of a
    value and a function that returns the gradient."""
    def fun(x):
        value, gradient = fun_grad(x)
        return value, lambda: gradient
    return fun


# --- per-sequence oracles -------------------------------------------------
#
# The tagger's inference as it was before the batched kernel: a dict loop for
# emissions, one sequence at a time for Viterbi and forward-backward.  The
# kernel must agree with them on every sequence of a padded batch.


def oracle_emission_scores(model: CrfModel, features) -> np.ndarray:
    scores = np.zeros((len(features), len(LABELS)))
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
    n_labels = len(LABELS)
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
    return [LABELS[i] for i in path], float(delta[last])


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
        emissions = batch_major(encode(batch, model.feature_index).emissions(model.state))
        for k, features in enumerate(batch):
            want = oracle_emission_scores(model, features)
            np.testing.assert_allclose(emissions[k, :len(features)], want, rtol=0, atol=1e-12)
            assert not emissions[k, len(features):].any()
            np.testing.assert_allclose(model.emission_scores(features), want, rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(_models(), _batches)
    def test_viterbi(self, model, batch):
        encoded = encode(batch, model.feature_index)
        paths, scores = viterbi(encoded.emissions(model.state), encoded, model.transitions)
        tagged = decode_strings(model, batch)
        for k, features in enumerate(batch):
            want_labels, want_score = oracle_viterbi(model, features)
            assert [LABELS[i] for i in batch_major(paths)[k, :len(features)]] == want_labels
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
            encoded.emissions(model.state), encoded, model.transitions
        )
        tagged = decode_strings(model, batch)
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


# --- exact sums ------------------------------------------------------------
#
# Emission scores and the gradient's feature totals add floats in a fixed
# order: each position's known features in listed order, and each feature's
# positions in batch order.  The kernel must reproduce these sequential loops
# to the last bit, so a score or a trained weight cannot depend on how the
# arrays are laid out.


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


def loop_emissions(state: np.ndarray, feature_index, features) -> list[list[float]]:
    scores = []
    for feats in features:
        row = [0.0] * state.shape[1]
        for feature in dict.fromkeys(feats):
            column = feature_index.get(feature)
            if column is not None:
                for k in range(state.shape[1]):
                    row[k] += float(state[column, k])
        scores.append(row)
    return scores


_weights = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# Up to 12 known features per position, enough for a sum in another order
# (NumPy's pairwise sums unroll blocks of 8) to round differently; repeats are
# allowed within a position, and ``unseen*`` never has a column.
_listed = st.lists(st.sampled_from([f"f{i}" for i in range(12)] + ["unseen0", "unseen1"]),
                   max_size=16)


def _weight_rows(n_rows: int):
    return st.lists(_weights, min_size=2 * n_rows, max_size=2 * n_rows).map(
        lambda flat: np.array(flat, dtype=float).reshape(n_rows, 2))


@st.composite
def _emission_cases(draw):
    """A state of 0-12 features and a batch of 0-5 sequences of 0-7 positions."""
    state = draw(st.integers(0, 12).flatmap(_weight_rows))
    return state, draw(st.lists(st.lists(_listed, max_size=7), max_size=5))


@st.composite
def _training_cases(draw):
    """Training sequences of known features, and one value row per position."""
    known = _listed.map(lambda feats: [f for f in feats if not f.startswith("unseen")])
    batch = draw(st.lists(st.lists(known, min_size=1, max_size=7), min_size=1, max_size=5))
    return batch, draw(_weight_rows(sum(map(len, batch))))


class TestExactSums:
    @settings(max_examples=200, deadline=None)
    @given(_emission_cases())
    @example((np.zeros((0, 2)), [[["f0"], []], []]))
    @example((np.array([[-0.0, 1e6], [0.1, -0.0]]), []))
    @example((np.array([[-0.0, -0.0], [1e-9, 0.7]]),
              [[["unseen0", "unseen1"], ["f0", "f0"], ["f1", "unseen0", "f0", "f1"]], []]))
    @example((np.random.default_rng(3).normal(size=(12, 2)) * 10.0 ** np.arange(-6, 6)[:, None],
              [[[f"f{i}" for i in range(12)], [f"f{i}" for i in range(11, -1, -1)]]]))
    def test_emissions_equal_a_per_feature_loop(self, case):
        state, batch = case
        feature_index = {f"f{i}": i for i in range(len(state))}
        emissions = batch_major(encode(batch, feature_index).emissions(state))
        assert emissions.shape[0] == len(batch)
        for k, features in enumerate(batch):
            want = np.array(loop_emissions(state, feature_index, features)).reshape(-1, 2)
            assert bits(emissions[k, :len(features)]) == bits(want)
            assert bits(emissions[k, len(features):]) == bits(
                np.zeros_like(emissions[k, len(features):]))

    @settings(max_examples=200, deadline=None)
    @given(_training_cases())
    @example(([[[], []], [[]]], np.ones((3, 2))))
    @example(([[["f0", "f1", "f0"], ["f1"]], [["f1", "f1"]]],
              np.array([[1e6, -0.0], [0.1, -0.0], [-1e6, 0.3]])))
    def test_feature_totals_equal_a_scatter_add(self, case):
        batch, values = case
        dataset = encode_dataset([(features, ("O",) * len(features)) for features in batch])
        want = [[0.0, 0.0] for _ in dataset.feature_index]
        rows = iter(values.tolist())
        for features in batch:
            for feats in features:
                row = next(rows)
                for feature in dict.fromkeys(feats):
                    for k in range(2):
                        want[dataset.feature_index[feature]][k] += row[k]
        totals = dataset.feature_totals(values)
        assert totals.shape == (dataset.n_features, 2) and totals.dtype == float
        assert bits(totals) == bits(np.array(want).reshape(-1, 2))


# --- bit-for-bit oracles ---------------------------------------------------
#
# The general-label batched kernel, objective and pseudo-gradient as they were
# before the two-label kernel, kept verbatim.  Every output of the current
# code must equal theirs to the last bit, padding and signed zeros included,
# so training trajectories, models and decoded pairs cannot move.


def oracle_batched_forward_backward(emissions, mask, transitions):
    logsumexp_ = np.logaddexp.reduce
    alpha = np.empty_like(emissions)
    alpha[:, 0] = emissions[:, 0]
    for t in range(1, emissions.shape[1]):
        step = logsumexp_(alpha[:, t - 1, :, None] + transitions, axis=1) + emissions[:, t]
        alpha[:, t] = np.where(mask[:, t, None], step, alpha[:, t - 1])
    log_z = logsumexp_(alpha[:, -1], axis=-1)

    beta = np.zeros_like(emissions)
    for t in range(emissions.shape[1] - 2, -1, -1):
        step = logsumexp_(transitions + (emissions[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
        beta[:, t] = np.where(mask[:, t + 1, None], step, beta[:, t + 1])

    joint = (
        alpha[:, :-1, :, None]
        + transitions
        + (emissions[:, 1:] + beta[:, 1:])[:, :, None, :]
        - log_z[:, None, None, None]
    )
    expected_transitions = np.exp(joint[mask[:, 1:]]).sum(axis=0)
    return log_z, np.exp(alpha + beta - log_z[:, None, None]), expected_transitions


def oracle_batched_viterbi(emissions, mask, transitions):
    n_seqs, width, n_labels = emissions.shape
    seqs = np.arange(n_seqs)
    labels = np.arange(n_labels)
    delta = emissions[:, 0]
    back = np.broadcast_to(labels, emissions.shape).copy()
    for t in range(1, width):
        step = delta[:, :, None] + transitions
        best_prev = _argmax_last(step, axis=1)
        live = mask[:, t]
        back[live, t] = best_prev[live]
        delta = np.where(live[:, None], step[seqs[:, None], best_prev, labels] + emissions[:, t],
                         delta)
    paths = np.empty((n_seqs, width), dtype=int)
    paths[:, -1] = _argmax_last(delta, axis=1)
    for t in range(width - 1, 0, -1):
        paths[:, t - 1] = back[seqs, t, paths[:, t]]
    return paths, delta[seqs, paths[:, -1]]


def oracle_objective(weights, dataset, l2=0.0):
    n_state = dataset.n_features * dataset.n_labels
    state = weights[:n_state].reshape(dataset.n_features, dataset.n_labels)
    transitions = weights[n_state:].reshape(dataset.n_labels, dataset.n_labels)
    emissions = batch_major(dataset.batch.emissions(state))
    log_z, posteriors, expected_transitions = oracle_batched_forward_backward(
        emissions, dataset.batch.mask, transitions
    )
    flat_rows = np.arange(dataset.gold.shape[0])
    gold_score = float(emissions[dataset.batch.mask][flat_rows, dataset.gold].sum())
    gold_score += float((dataset.transition_counts * transitions).sum())

    value = gold_score - float(log_z.sum())
    value -= 0.5 * l2 * (float((state * state).sum()) + float((transitions * transitions).sum()))

    gold_onehot = np.eye(dataset.n_labels)[dataset.gold]
    grad_state = (dataset.feature_totals(gold_onehot - posteriors[dataset.batch.mask])
                  - l2 * state)
    grad_transitions = dataset.transition_counts - expected_transitions - l2 * transitions
    gradient = np.concatenate([grad_state.ravel(), grad_transitions.ravel()])
    return value, gradient


def oracle_pseudo_gradient(x, grad, l1):
    if l1 == 0.0:
        return grad
    pseudo = np.where(x > 0, grad + l1, np.where(x < 0, grad - l1, 0.0))
    at_zero = x == 0
    up = grad + l1
    down = grad - l1
    pseudo = np.where(at_zero & (down > 0), down, pseudo)
    pseudo = np.where(at_zero & (up < 0), up, pseudo)
    return pseudo


def oracle_two_loop(pseudo, s_list, y_list, rho_list):
    q = pseudo.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def oracle_minimize(fun_grad, x0, l1=0.0, max_iterations=200, tolerance=1e-5, memory=10):
    """The optimizer's accepted iterates, penalized values and end state."""
    x = np.array(x0, dtype=float)
    f, grad = fun_grad(x)
    penalized = f + l1 * float(np.abs(x).sum())
    history = [penalized]
    s_list, y_list, rho_list = deque(maxlen=memory), deque(maxlen=memory), deque(maxlen=memory)
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        pseudo = oracle_pseudo_gradient(x, grad, l1)
        if float(np.abs(pseudo).max(initial=0.0)) < tolerance:
            converged = True
            iteration -= 1
            break
        direction = oracle_two_loop(pseudo, s_list, y_list, rho_list)
        if l1 > 0.0:
            direction = np.where(direction * pseudo < 0, direction, 0.0)
        if float(direction @ pseudo) >= 0.0:
            direction = -pseudo
        orthant = np.where(x != 0, np.sign(x), -np.sign(pseudo))
        if not s_list:
            norm = float(np.linalg.norm(direction))
            alpha = 1.0 / norm if norm > 1.0 else 1.0
        else:
            alpha = 1.0
        accepted = False
        for _ in range(60):
            x_new = x + alpha * direction
            if l1 > 0.0:
                x_new = np.where(x_new * orthant < 0, 0.0, x_new)
            f_new, grad_new = fun_grad(x_new)
            penalized_new = f_new + l1 * float(np.abs(x_new).sum())
            step = float(pseudo @ (x_new - x))
            if (np.isfinite(penalized_new) and penalized_new <= penalized + 1e-4 * step
                    and penalized_new <= penalized):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-10:
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
        x, f, grad, penalized = x_new, f_new, grad_new, penalized_new
        history.append(penalized)
    return x, penalized, iteration, converged, history


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and (
        got.tobytes() == want.tobytes())


# Weights from Hypothesis (zeros, signed zeros, extremes) or from a seeded
# normal of a drawn scale, always within +-1e6.
_big = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _weight_array(draw, shape):
    size = int(np.prod(shape))
    if draw(st.booleans()):
        return np.array(draw(st.lists(_big, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e6]))
    return np.clip(rng.normal(scale=scale, size=shape), -1e6, 1e6)


@st.composite
def _padded_batches(draw):
    """Emissions of 1-8 sequences of 1-9 positions padded to the longest, the
    padding filled with arbitrary values, its mask and a transition matrix."""
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    emissions = draw(_weight_array((len(lengths), max(lengths), 2)))
    mask = np.arange(max(lengths))[None, :] < np.array(lengths)[:, None]
    return emissions, mask, draw(_weight_array((2, 2)))


_ONE_POSITION = (np.array([[[0.5, -0.25]]]), np.ones((1, 1), dtype=bool),
                 np.array([[1.0, -2.0], [0.0, 3.0]]))
_MIXED_LENGTHS = (np.random.default_rng(5).normal(size=(4, 9, 2)),
                  np.arange(9)[None, :] < np.array([[1], [9], [4], [1]]),
                  np.random.default_rng(6).normal(size=(2, 2)))
_TIED = (np.zeros((3, 5, 2)), np.arange(5)[None, :] < np.array([[5], [1], [3]]),
         np.array([[-0.0, 0.0], [0.0, -0.0]]))


@st.composite
def _objective_cases(draw):
    """Training sequences of 1-8 entries of 1-9 positions, one a single
    position, gold tags, weights and an L2 penalty (zero included)."""
    lengths = draw(st.lists(st.integers(1, 9), min_size=0, max_size=7)) + [1]
    order = draw(st.permutations(range(len(lengths))))
    features = [[draw(_position) for _ in range(lengths[k])] for k in order]
    tags = [tuple(draw(st.lists(st.sampled_from(LABELS), min_size=len(seq), max_size=len(seq))))
            for seq in features]
    dataset = encode_dataset(list(zip(features, tags)))
    weights = draw(_weight_array((dataset.n_parameters,)))
    return dataset, weights, draw(st.sampled_from([0.0, 0.03, 1.0]) | st.floats(0.0, 10.0))


@st.composite
def _optimizer_cases(draw):
    """Iterates with exact and signed zeros, gradients tied with ``+-l1``,
    infinite or NaN."""
    l1 = draw(st.sampled_from([0.0, 0.02, 1.0, 2.35]) | st.floats(0.0, 1e3))
    n = draw(st.integers(0, 24))
    x = draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5, math.inf, -math.inf]) | _big,
                      min_size=n, max_size=n))
    grad = draw(st.lists(st.sampled_from([l1, -l1, 0.0, -0.0, l1 / 2, -l1 / 2, math.inf,
                                          -math.inf, math.nan]) | _big,
                         min_size=n, max_size=n))
    return np.array(x, dtype=float), np.array(grad, dtype=float), l1


class TestBitForBitOracles:
    @settings(max_examples=300, deadline=None)
    @given(_padded_batches())
    @example(_ONE_POSITION)
    @example(_MIXED_LENGTHS)
    @example(_TIED)
    def test_forward_backward(self, case):
        emissions, mask, transitions = case
        log_z, posteriors, expected = forward_backward(time_major(emissions),
                                                       Padding(mask.sum(axis=1)), transitions)
        want_log_z, want_posteriors, want_expected = oracle_batched_forward_backward(
            emissions, mask, transitions)
        assert same_bytes(log_z, want_log_z)
        assert same_bytes(posteriors[mask], want_posteriors[mask])
        assert same_bytes(expected, want_expected)

    @settings(max_examples=300, deadline=None)
    @given(_padded_batches())
    @example(_ONE_POSITION)
    @example(_MIXED_LENGTHS)
    @example(_TIED)
    def test_viterbi(self, case):
        emissions, mask, transitions = case
        paths, scores = viterbi(time_major(emissions), Padding(mask.sum(axis=1)), transitions)
        want_paths, want_scores = oracle_batched_viterbi(emissions, mask, transitions)
        assert np.array_equal(batch_major(paths), want_paths)
        assert same_bytes(scores, want_scores)

    @settings(max_examples=200, deadline=None)
    @given(_objective_cases())
    def test_objective(self, case):
        dataset, weights, l2 = case
        value, gradient = log_likelihood_and_gradient(weights, dataset, l2)
        want_value, want_gradient = oracle_objective(weights, dataset, l2)
        assert type(value) is float
        assert same_bytes(value, want_value)
        assert same_bytes(gradient, want_gradient)
        value, complete = log_likelihood_and_gradient(weights, dataset, l2, deferred=True)
        assert same_bytes(value, want_value)
        assert same_bytes(complete(), want_gradient)

    @settings(max_examples=300, deadline=None)
    @given(_optimizer_cases())
    @example((np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]),
              np.array([0.5, -0.5, -0.5, 0.5, -0.5, 0.5]), 0.5))
    @example((np.array([0.0, -0.0, 2.0]), np.array([-0.0, 0.0, -0.0]), 0.0))
    def test_pseudo_gradient(self, case):
        x, grad, l1 = case
        assert same_bytes(_pseudo_gradient(x, grad, l1), oracle_pseudo_gradient(x, grad, l1))

    @settings(max_examples=40, deadline=None)
    @given(_objective_cases(), st.sampled_from([0.0, 0.02, 0.5, 2.35]))
    def test_minimize_follows_the_same_iterates(self, case, l1):
        dataset, _, l2 = case

        def fun_grad(weights):
            value, gradient = oracle_objective(weights, dataset, l2)
            return -value, -gradient

        x0 = np.zeros(dataset.n_parameters)
        result = minimize(deferred(fun_grad), x0, l1=l1, max_iterations=40)
        x, fun, iterations, converged, history = oracle_minimize(
            fun_grad, x0, l1=l1, max_iterations=40)
        assert same_bytes(result.x, x)
        assert same_bytes(result.fun, fun) and same_bytes(result.history, history)
        assert (result.iterations, result.converged) == (iterations, converged)


@st.composite
def _bounded_models(draw) -> CrfModel:
    """Every state and transition weight of the KNOWN features in [-50, 50]."""
    weight = st.floats(-50.0, 50.0)
    return CrfModel.from_weights({(f, label): draw(weight) for f in KNOWN for label in LABELS},
                                 {(a, b): draw(weight) for a in LABELS for b in LABELS})


class TestDecodeBatch:
    def test_empty_sequences_mixed_in(self):
        model = random_model(np.random.default_rng(41))
        batch = [[], [["f0"], ["f1", "f2"]], [], [["f3"]]]
        tagged = decode_strings(model, batch)
        assert tagged[0] == ([], 0.0, []) and tagged[2] == ([], 0.0, [])
        for features, (labels, score, rows) in zip(batch, tagged):
            assert (labels, score) == viterbi_decode(model, features)
            assert rows == marginals(model, features)

    def test_empty_batch(self):
        model = random_model(np.random.default_rng(43))
        labels, scores, probs = decode_batch(model, FeatureIds().intern([]))
        assert labels.shape == scores.shape == (0,) and probs.shape == (0, len(LABELS))

    @settings(max_examples=100, deadline=None)
    @given(_models(), st.lists(st.lists(_position, max_size=9), max_size=12),
           st.lists(st.lists(_position, max_size=4), max_size=4))
    def test_arrays_equal_per_sequence_calls(self, model, batch, before):
        # Sequences taken out of a corpus whose other entries were interned
        # first decode like each sequence on its own.
        corpus = FeatureIds().intern(before + batch)
        labels, scores, probs = decode_batch(model, corpus.take(range(len(before), len(corpus))))
        n_positions = sum(map(len, batch))
        assert labels.shape == (n_positions,) and probs.shape == (n_positions, len(LABELS))
        assert scores.shape == (len(batch),)
        start = 0
        for k, features in enumerate(batch):
            stop = start + len(features)
            want_labels, want_score = viterbi_decode(model, features)
            assert [LABELS[i] for i in labels[start:stop].tolist()] == want_labels
            assert same_bytes(scores[k], want_score)
            want_rows = [[row[label] for label in LABELS] for row in marginals(model, features)]
            assert same_bytes(probs[start:stop], np.array(want_rows).reshape(-1, len(LABELS)))
            start = stop

    @settings(max_examples=200, deadline=None)
    @given(_bounded_models(), st.lists(st.lists(_position, max_size=9), max_size=6))
    @example(above_one_model(), [ABOVE_ONE_FEATURES])
    def test_posteriors_lie_in_the_unit_interval(self, model, batch):
        _, _, probs = decode_batch(model, FeatureIds().intern(batch))
        assert ((0.0 <= probs) & (probs <= 1.0)).all()

    @settings(max_examples=150, deadline=None)
    @given(_models(), st.lists(st.lists(_position, max_size=9), max_size=12), st.data(),
           st.sampled_from([1, 5, 16, 1 << 13]))
    def test_a_subset_decodes_like_its_taken_sequences(self, model, batch, data, chunk):
        corpus = FeatureIds().intern(batch)
        order = data.draw(st.permutations(range(len(batch))))
        subset = np.array(order[:data.draw(st.integers(0, len(batch)))], dtype=np.intp)
        with mock.patch.object(crf_model, "DECODE_CHUNK", chunk):
            got = decode_batch(model, corpus, subset)
            want = decode_batch(model, corpus.take(subset))
        for ours, theirs in zip(got, want):
            assert same_bytes(ours, theirs)

    def test_repeated_feature_counts_once(self):
        model = CrfModel.from_weights({("f0", "I"): 1.5})
        np.testing.assert_array_equal(model.emission_scores([["f0", "f0"]]), [[1.5, 0.0]])

    @settings(max_examples=100, deadline=None)
    @given(_models(), st.lists(st.lists(_position, max_size=9), max_size=12),
           st.sampled_from([1, 5, 16]))
    def test_chunks_change_no_bit(self, model, batch, chunk):
        def exact(tagged):
            return [(labels, score.hex(), [[row[label].hex() for label in LABELS] for row in rows])
                    for labels, score, rows in tagged]

        whole = decode_strings(model, batch)
        with mock.patch.object(crf_model, "DECODE_CHUNK", chunk):
            assert exact(decode_strings(model, batch)) == exact(whole)
        for features, result in zip(batch, whole):
            assert exact([result]) == exact(decode_strings(model, [features]))


_FEATURES = [f"f{i}" for i in range(8)] + ["u0", "u1"]
# Positions may repeat a feature; sequences may be empty.
_id_batches = st.lists(st.lists(st.lists(st.sampled_from(_FEATURES), max_size=6), max_size=5),
                       max_size=6)


@st.composite
def _feature_indexes(draw) -> dict[str, int]:
    """Some of f0-f7 in any column order; u0 and u1 are never known."""
    known = draw(st.lists(st.sampled_from(_FEATURES[:8]), unique=True))
    return {feature: column for column, feature in enumerate(known)}


class TestIdBatches:
    @settings(max_examples=300, deadline=None)
    @given(_feature_indexes(), _id_batches, _id_batches, st.randoms(use_true_random=False))
    @example({"f0": 0}, [[["f0", "u0", "f0"], []], []], [[["u1", "f1"]]], None)
    def test_slots_equal_the_string_encoder(self, feature_index, batch, before, rnd):
        # ``before`` interns first, so some ids belong to features the batch
        # never lists, and the batch is taken out of the whole corpus.
        vocabulary = FeatureIds()
        corpus = vocabulary.intern(before + batch)
        order = list(range(len(before), len(before) + len(batch)))
        if rnd is not None:
            rnd.shuffle(order)
        got = corpus.take(order).encode(vocabulary.columns(feature_index), len(feature_index))
        want = oracle_encode([(before + batch)[k] for k in order], feature_index)
        assert same_bytes(got.slots, want.slots)
        assert same_bytes(got.lengths, want.lengths)

    @settings(max_examples=100, deadline=None)
    @given(_id_batches, _id_batches)
    def test_interned_dataset_equals_the_string_one(self, batch, before):
        batch = [features for features in batch if features]
        assume(batch)
        tags = [("O",) * len(features) for features in batch]
        corpus = FeatureIds().intern(before + batch)
        got = encode_dataset(TaggedIds(corpus.take(range(len(before), len(corpus))), tags))
        want = encode_dataset(list(zip(batch, tags)))
        assert list(got.feature_index.items()) == list(want.feature_index.items())
        oracle_index = dict.fromkeys(f for features in batch for feats in features for f in feats)
        assert list(got.feature_index) == list(oracle_index)
        want_slots = oracle_encode(batch, got.feature_index).slots
        got, want = got.batch, want.batch
        assert same_bytes(got.slots, want_slots)
        assert same_bytes(got.slots, want.slots) and same_bytes(got.lengths, want.lengths)


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

    def test_start_model_sets_the_first_point(self):
        data = separable_data(20)
        config = TrainConfig(l1=0.5, l2=0.1)
        start = train(data[:5], config)
        starts = []

        def recording(fun_grad, x0, **kwargs):
            starts.append(np.array(x0))
            return minimize(fun_grad, x0, **kwargs)

        with mock.patch.object(sys.modules["spellvar.crf.train"], "minimize", recording):
            warm = train(data, config, start=start)
        n_old, n_new = len(start.feature_index), len(warm.feature_index)
        assert list(warm.feature_index)[:n_old] == list(start.feature_index) and n_new > n_old
        state = starts[0][:-4].reshape(n_new, 2)
        np.testing.assert_array_equal(state[:n_old], start.state)
        assert not state[n_old:].any()
        np.testing.assert_array_equal(starts[0][-4:].reshape(2, 2), start.transitions)
        cold = train(data, config)
        assert warm.converged and cold.converged
        bound = 2 * math.sqrt(warm.state.size + 4) * _TOLERANCE / config.l2
        gap = np.concatenate([(warm.state - cold.state).ravel(),
                              (warm.transitions - cold.transitions).ravel()])
        assert np.linalg.norm(gap) <= bound

    @pytest.mark.parametrize("names,first", [
        (["word.lower=target"], "word.lower=target"),
        (["bias", "word.lower=nowhere"], "word.lower=nowhere"),
    ])
    def test_start_model_features_must_begin_the_data(self, names, first):
        start = CrfModel.from_weights({(name, "I"): 1.0 for name in names})
        with pytest.raises(ValueError, match=f"feature {first!r} is not column"):
            train(separable_data(20), TrainConfig(l1=0.5, l2=0.1), start=start)

    def test_start_model_features_beyond_the_data_rejected(self):
        data = separable_data(20)
        model = train(data, TrainConfig(l1=0.5, l2=0.1))
        extra = CrfModel.from_weights({(name, "O"): 0.0 for name in [*model.feature_index, "f"]})
        with pytest.raises(ValueError, match="feature 'f' is not column"):
            train(data, TrainConfig(l1=0.5, l2=0.1), start=extra)

    def test_start_model_transitions_must_be_two_by_two(self):
        data = separable_data(20)
        model = train(data[:5], TrainConfig(l1=0.5, l2=0.1))
        bad = replace(model, transitions=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="transitions are \\(3, 3\\), not 2 x 2"):
            train(data, TrainConfig(l1=0.5, l2=0.1), start=bad)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="non-negative"):
            TrainConfig(l1=-1.0)
        for l1, l2 in ((math.nan, 0.1), (0.1, math.inf), (math.inf, 0.1), (0.1, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(l1=l1, l2=l2)
        with pytest.raises(ValueError, match="iterations"):
            TrainConfig(max_optimizer_iterations=0)


class TestMinimize:
    def test_quadratic_converges(self):
        target = np.array([1.0, -2.0, 3.0])

        def fun(x):
            d = x - target
            return 0.5 * float(d @ d), d

        result = minimize(deferred(fun), np.zeros(3))
        assert result.converged
        np.testing.assert_allclose(result.x, target, atol=1e-4)

    def test_history_never_increases(self):
        rng = np.random.default_rng(29)
        matrix = rng.normal(size=(6, 6))
        quad = matrix.T @ matrix + np.eye(6)
        linear = rng.normal(size=6)

        def fun(x):
            return 0.5 * float(x @ quad @ x) + float(linear @ x), quad @ x + linear

        result = minimize(deferred(fun), rng.normal(size=6), l1=0.3)
        for before, after in zip(result.history, result.history[1:]):
            assert after <= before + 1e-12

    def test_l1_reaches_exact_zero(self):
        def fun(x):
            d = x - 0.5
            return 0.5 * float(d @ d), d

        result = minimize(deferred(fun), np.array([2.0]), l1=1.0)
        assert result.x[0] == 0.0

    def test_l1_shrinks_optimum(self):
        def fun(x):
            d = x - 3.0
            return 0.5 * float(d @ d), d

        result = minimize(deferred(fun), np.array([0.0]), l1=1.0)
        assert result.x[0] == pytest.approx(2.0, abs=1e-4)

    def test_rejected_trial_points_never_complete_a_gradient(self):
        dataset = encode_dataset(separable_data(20))
        evaluated, completed = [], []

        def fun_grad(weights):
            value, gradient = log_likelihood_and_gradient(weights, dataset, 0.1, deferred=True)
            point = weights.copy()
            evaluated.append(point)

            def complete():
                completed.append(point)
                return -gradient()
            return -value, complete

        result = minimize(fun_grad, np.zeros(dataset.n_parameters), l1=0.5)
        # The start and each accepted iterate, once each; the line search
        # rejected some trial points, which were evaluated but not completed.
        assert result.converged
        assert len(completed) == len(result.history) == result.iterations + 1
        assert len(evaluated) > len(completed)
        # Completed points are evaluated ones, each once and in order, from
        # the start point to the result.
        at = [next(i for i, point in enumerate(evaluated) if point is done) for done in completed]
        assert at == sorted(set(at)) and at[0] == 0
        assert same_bytes(completed[-1], result.x)

    def test_uphill_gradient_leaves_the_start_point(self):
        # f(x) = x, with a gradient of -1: every step along it goes uphill.
        def fun(x):
            return float(x[0]), -np.ones(1)

        start = np.array([0.0])
        result = minimize(deferred(fun), start)
        assert not result.converged
        assert same_bytes(result.x, start)
        assert result.history == [0.0]

    def test_non_finite_start_rejected(self):
        def fun(x):
            return float("inf"), x

        with pytest.raises(ValueError, match="not finite"):
            minimize(deferred(fun), np.zeros(2))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10 ** 400, -(10 ** 400), "f0", "I", "O"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
MODEL_KEYS = ["format", "version", "labels", "window", "degenerate", "final_objective",
              "converged", "iterations", "features_seen", "features_kept", "transitions",
              "states"]
MODEL_EDITS = st.tuples(st.sampled_from(["set", "delete", "state", "weight"]),
                        st.sampled_from(MODEL_KEYS + ["f0", "f1", "f2"]), JSON_VALUES)
MODEL_SPLICES = ["[" * 2_000, "}", ",", '"', "\\ud800", "NaN", "\x00", "\ufeff", "1" * 5_000]


def edit_payload(payload, kind, key, value):
    """Set or delete a top-level key, or set a state row or the first
    transition weight, wherever the payload still has one."""
    if kind == "set":
        payload[key] = value
    elif kind == "delete":
        payload.pop(key, None)
    elif kind == "state" and isinstance(payload.get("states"), dict):
        payload["states"][key] = value
    elif kind == "weight":
        rows = payload.get("transitions")
        if isinstance(rows, list) and rows and isinstance(rows[0], list) and rows[0]:
            rows[0][0] = value


class TestModelIo:
    def test_round_trip_preserves_decoding(self, tmp_path):
        data = separable_data(30)
        model = train(data, TrainConfig(l1=0.5, l2=0.1))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        # Each position draws from the model's own features and unknown ones.
        drawn = [*model.feature_index, "f0", "f1", "f2"]
        rng = np.random.default_rng(31)
        for _ in range(100):
            features = [[drawn[i] for i in rng.choice(len(drawn), int(rng.integers(1, 4)),
                                                       replace=False)]
                        for _ in range(int(rng.integers(1, 8)))]
            assert viterbi_decode(loaded, features) == viterbi_decode(model, features)
        for feature, row in model.feature_index.items():
            if feature in loaded.feature_index:
                np.testing.assert_array_equal(loaded.state[loaded.feature_index[feature]],
                                              model.state[row])
            else:
                assert not model.state[row].any()
        assert len(loaded.feature_index) < len(model.feature_index)
        assert loaded.window == model.window
        assert loaded.final_objective == pytest.approx(model.final_objective)

    @settings(max_examples=25, deadline=None)
    @given(l1=st.sampled_from([0.0]) | st.floats(0.001, 5.0),
           l2=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 16))
    def test_reloaded_model_decodes_bit_identically(self, tmp_path_factory, l1, l2, seed):
        data = separable_data(12)
        model = train(data, TrainConfig(l1=l1, l2=l2))
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert json.loads(path.read_text(encoding="utf-8"))["features_seen"] == len(
            model.feature_index)
        # The training sequences, and random ones mixing known and unknown features.
        rng = np.random.default_rng(seed)
        known = list(model.feature_index) + ["unknown"]
        sequences = [features for features, _ in data] + [
            [list(rng.choice(known, size=int(rng.integers(0, 4)), replace=False))
             for _ in range(int(rng.integers(1, 6)))] for _ in range(10)]
        ids = FeatureIds().intern(sequences)
        for ours, theirs in zip(decode_batch(model, ids), decode_batch(loaded, ids)):
            assert same_bytes(ours, theirs)

    def test_saving_a_loaded_model_rewrites_the_file(self, tmp_path):
        model = train(separable_data(30), TrainConfig(l1=0.5, l2=0.1))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        save_model(load_model(first), second)
        payload = json.loads(first.read_text(encoding="utf-8"))
        assert payload["features_seen"] == len(model.feature_index) > payload["features_kept"]
        assert second.read_bytes() == first.read_bytes()

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
        lambda p: p.__setitem__("labels", ["O", "I"]),
        lambda p: p.__setitem__("labels", "IO"),
        lambda p: p.__setitem__("labels", ["I", "O", "B"]),
        lambda p: p.__setitem__("window", 2.7),
        lambda p: p.__setitem__("window", 0),
        lambda p: p.__setitem__("window", True),
        lambda p: p.__setitem__("window", "3"),
        lambda p: p.__setitem__("states", []),
        lambda p: p.__setitem__("states", "f0"),
        lambda p: p["states"]["f0"].__setitem__(0, 10 ** 400),
        lambda p: p.__setitem__("final_objective", 10 ** 400),
        lambda p: p["states"].__setitem__("f0", ["2.5", True]),
        lambda p: p["states"]["f0"].__setitem__(0, "2.5"),
        lambda p: p["states"]["f0"].__setitem__(1, True),
        lambda p: p["transitions"][0].__setitem__(1, "0.5"),
        lambda p: p["transitions"][1].__setitem__(0, False),
        lambda p: p.__setitem__("degenerate", "false"),
        lambda p: p.__setitem__("degenerate", 0),
        lambda p: p.__setitem__("final_objective", "inf"),
        lambda p: p.__setitem__("final_objective", True),
        lambda p: p.__setitem__("final_objective", float("inf")),
        lambda p: p.__setitem__("features_kept", 2),
        lambda p: p.__setitem__("features_kept", True),
        lambda p: p.__setitem__("features_seen", 0),
        lambda p: p.__setitem__("features_seen", "1"),
    ], ids=["nan-state", "inf-state", "inf-transition", "long-state-row", "scalar-state-row",
            "extra-transition-row", "short-transition-row", "converged-string",
            "negative-iterations", "fractional-iterations", "swapped-labels", "label-string",
            "extra-label", "fractional-window", "zero-window", "boolean-window",
            "string-window", "states-array", "states-string", "huge-state", "huge-objective",
            "string-and-boolean-state-row", "string-state", "boolean-state",
            "string-transition", "boolean-transition", "degenerate-string",
            "degenerate-integer", "objective-string", "objective-boolean",
            "infinite-objective", "kept-count-mismatch", "kept-count-boolean",
            "seen-below-kept", "seen-count-string"])
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

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5_000],
                             ids=["deeply-nested", "long-integer"])
    def test_unparseable_json_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ModelFormatError, match="unreadable"):
            load_model(path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_model_file_loads_or_is_a_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(CrfModel.from_weights({("f0", "I"): 1.0, ("f1", "O"): -0.5}), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        for edit in data.draw(st.lists(MODEL_EDITS, max_size=3)):
            edit_payload(payload, *edit)
        text = json.dumps(payload)
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(MODEL_SPLICES)) + text[at:]
        path.write_text(text, encoding="utf-8")
        try:
            model = load_model(path)
        except ModelFormatError:
            return
        assert model.state.shape == (len(model.feature_index), len(LABELS))

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
