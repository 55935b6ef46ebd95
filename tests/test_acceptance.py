"""Acceptance suite: one test per shipped guarantee.

Each test is a single function so the verbose run prints one pass/fail line
per criterion.  Oracles are restated locally so a bug in library code cannot
silently agree with itself.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import numpy as np
import pytest

from spellvar.baseline import extract_baseline, load_rules
from spellvar.bootstrap import (
    BootstrapConfig,
    TupleStats,
    bootstrap_run,
    normalized_levenshtein,
    rlogf,
    score_tuple,
)
from spellvar.cli import main
from spellvar.corpus import Corpus, DictEntry, VariantPair, tokenize
from spellvar.crf import (
    LABELS,
    CrfModel,
    TrainConfig,
    encode_dataset,
    log_likelihood_and_gradient,
    marginals,
    train,
    viterbi_decode,
)
from spellvar.evalsim import evaluate_pairs, make_table, pearson
from spellvar.selftrain import SearchSpace, SelfTrainConfig, random_search, self_train
from spellvar.synthetic import bootstrap_fixture, selftrain_fixture

STOPWORDS = frozenset({"the", "something", "someone", "this", "that", "with"})


def test_c01_scoring_matches_direct_formulas():
    rng = random.Random(101)
    started = time.monotonic()
    for _ in range(1000):
        n_total = rng.randint(0, 60)
        f = rng.randint(0, n_total) if n_total else 0
        if f >= 2 and n_total >= 1:
            expected = (f / n_total) * math.log2(f)
        else:
            expected = 0.0
        assert abs(rlogf(f, n_total) - expected) <= 1e-12

        counts = {f"p{i}": rng.randint(0, 40) for i in range(rng.randint(1, 6))}
        occurrences = rng.randint(1, 30)
        candidate = TupleStats(
            informal="a", formal="b", matching_patterns=set(counts),
            occurrence_count=occurrences, first_entry="e1",
        )
        base = sum(math.log2(c + 1) for c in counts.values()) / len(counts)
        assert abs(score_tuple(candidate, counts) - base) <= 1e-12
        variant = base * math.log2(occurrences)
        assert abs(score_tuple(candidate, counts, use_count=True) - variant) <= 1e-12
    assert time.monotonic() - started < 1.0


def _levenshtein_oracle(a: str, b: str) -> float:
    m, n = len(a), len(b)
    if m + n == 0:
        return 0.0
    dist = list(range(n + 1))
    for i in range(1, m + 1):
        previous, dist = dist, [i] + [0] * n
        for j in range(1, n + 1):
            dist[j] = min(previous[j] + 1, dist[j - 1] + 1,
                          previous[j - 1] + (a[i - 1] != b[j - 1]))
    return dist[n] / (m + n)


def test_c02_levenshtein_matches_dp_oracle():
    assert normalized_levenshtein("ur", "your") == pytest.approx(1 / 3, abs=1e-12)
    assert normalized_levenshtein("m8", "mate") == 0.5

    short = [
        "".join(chars)
        for length in range(5)
        for chars in itertools.product("abc", repeat=length)
    ]
    for a in short:
        for b in short:
            assert normalized_levenshtein(a, b) == _levenshtein_oracle(a, b)

    rng = random.Random(2)
    for _ in range(10000):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(5, 10)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
        assert normalized_levenshtein(a, b) == _levenshtein_oracle(a, b)


def test_c03_bootstrap_recovers_planted_corpus():
    started = time.monotonic()
    fixture = bootstrap_fixture(n_entries=200, n_pairs=40, n_seeds=5, n_traps=6, seed=0)

    def run(stopwords):
        config = BootstrapConfig(
            seeds=fixture.seeds, max_iterations=8, window=3,
            top_n_tuples=10, top_n_patterns=10, levenshtein_tau=0.5,
            stopwords=stopwords,
        )
        return bootstrap_run(fixture.corpus, config)

    constrained = run(STOPWORDS)
    truth = set(fixture.truth)
    recovered = truth & constrained.pools.tuple_pool
    recall = len(recovered) / len(truth)
    emitted = {(p.informal, p.formal) for p in constrained.pairs}
    precision = len(emitted & truth) / len(emitted)
    assert recall >= 0.875
    assert precision >= 0.95

    unconstrained = run(frozenset())
    raw = {(p.informal, p.formal) for p in unconstrained.pairs}
    raw_precision = len(raw & truth) / len(raw)
    assert precision >= raw_precision
    assert time.monotonic() - started < 30.0


def _random_crf_instance(rng, n_sequences=6):
    vocab = [f"f{i}" for i in range(7)]
    data = []
    for _ in range(n_sequences):
        length = int(rng.integers(1, 5))
        feats = tuple(
            ["bias"] + list(rng.choice(vocab, size=2, replace=False))
            for _ in range(length)
        )
        tags = tuple(rng.choice(LABELS) for _ in range(length))
        data.append((feats, tags))
    return encode_dataset(data)


def _random_model_and_features(rng, length, n_features=6):
    state = {
        (f"f{i}", label): float(rng.normal())
        for i in range(n_features)
        for label in LABELS
    }
    transitions = {(a, b): float(rng.normal()) for a in LABELS for b in LABELS}
    model = CrfModel.from_weights(state, transitions)
    features = [
        [f"f{int(i)}" for i in rng.choice(n_features, size=2, replace=False)]
        for _ in range(length)
    ]
    return model, features


def _enumerate_scores(model, features):
    emissions = model.emission_scores(features)
    scores = {}
    for path in itertools.product(range(len(LABELS)), repeat=len(features)):
        total = sum(emissions[t, y] for t, y in enumerate(path))
        total += sum(model.transitions[path[t - 1], path[t]] for t in range(1, len(path)))
        scores[tuple(LABELS[y] for y in path)] = float(total)
    return scores


def test_c04_crf_inference_and_training_are_correct():
    rng = np.random.default_rng(107)

    # (a) analytic gradient vs central finite differences
    for _ in range(20):
        dataset = _random_crf_instance(rng)
        weights = rng.normal(scale=0.5, size=dataset.n_parameters)
        _, analytic = log_likelihood_and_gradient(weights, dataset, l2=0.2)
        step = 1e-5
        for k in range(dataset.n_parameters):
            bump = np.zeros_like(weights)
            bump[k] = step
            up, _ = log_likelihood_and_gradient(weights + bump, dataset, l2=0.2)
            down, _ = log_likelihood_and_gradient(weights - bump, dataset, l2=0.2)
            numeric = (up - down) / (2 * step)
            assert abs(numeric - analytic[k]) < 1e-4 * max(1.0, abs(numeric))

    # (b) Viterbi equals exhaustive enumeration on length-8 chains
    for _ in range(100):
        model, features = _random_model_and_features(rng, length=8)
        labels, score = viterbi_decode(model, features)
        best_path, best_score = max(_enumerate_scores(model, features).items(),
                                    key=lambda kv: kv[1])
        assert labels == list(best_path)
        assert score == pytest.approx(best_score, abs=1e-9)

    # (c) marginals match enumeration and normalize
    for _ in range(20):
        model, features = _random_model_and_features(rng, length=int(rng.integers(1, 7)))
        scores = _enumerate_scores(model, features)
        z = sum(math.exp(s) for s in scores.values())
        got = marginals(model, features)
        for t in range(len(features)):
            assert abs(sum(got[t].values()) - 1.0) <= 1e-9
            for label in LABELS:
                want = sum(math.exp(s) for path, s in scores.items()
                           if path[t] == label) / z
                assert abs(got[t][label] - want) <= 1e-9

    # (d) separable data fits perfectly within the iteration cap
    data = []
    for i in range(50):
        feats, tags = [], []
        for j in range(4):
            if (i + j) % 4 == 0:
                feats.append(["bias", "word.lower=target"])
                tags.append("I")
            else:
                feats.append(["bias", f"word.lower=w{(i + j) % 9}"])
                tags.append("O")
        data.append((tuple(feats), tuple(tags)))
    model = train(data, TrainConfig(l1=0.1, l2=0.01, max_optimizer_iterations=200))
    for feats, tags in data:
        assert viterbi_decode(model, feats)[0] == list(tags)


def _toy_training_data(n=30):
    rng = np.random.default_rng(109)
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
                feats.append(["bias", f"word.lower=w{int(rng.integers(0, 12))}"])
                tags.append("O")
        data.append((tuple(feats), tuple(tags)))
    return data


def test_c05_elastic_net_sparsity_and_shrinkage():
    data = _toy_training_data()
    sparse_model = train(data, TrainConfig(l1=100.0, l2=0.0))
    zero_fraction = float(np.mean(sparse_model.state == 0.0))
    assert zero_fraction >= 0.5

    norms = []
    for l2 in (0.01, 0.1, 1.0):
        model = train(data, TrainConfig(l1=0.0, l2=l2))
        norms.append(float(np.linalg.norm(
            np.concatenate([model.state.ravel(), model.transitions.ravel()])
        )))
    assert norms[0] >= norms[1] >= norms[2]


def test_c06_self_training_invariants():
    fixture = selftrain_fixture(n_waves=2, seed=0)
    config = SelfTrainConfig(
        max_iterations=5, confidence_tau=0.9, window=3,
        train=TrainConfig(l1=0.02, l2=0.03),
    )
    result = self_train(fixture.gold, fixture.unlabeled, config)

    total = len(fixture.gold) + len(fixture.unlabeled)
    promoted_so_far: set[str] = set()
    for record in result.trace:
        ids = set(record["promoted_ids"])
        assert promoted_so_far.isdisjoint(ids)
        promoted_so_far |= ids
        assert record["labeled_size"] + record["remaining_unlabeled"] == total

    totals = [r["pairs_total"] for r in result.trace if "pairs_total" in r]
    assert totals == sorted(totals)

    assert result.pairs
    for record in result.trace:
        if record["promoted"]:
            assert record["min_promoted_marginal"] > 0.9
    for pair in result.pairs:
        assert pair.score > 0.9

    strict = SelfTrainConfig(
        max_iterations=5, confidence_tau=1.0, window=3,
        train=TrainConfig(l1=0.02, l2=0.03),
    )
    nothing = self_train(fixture.gold, fixture.unlabeled, strict)
    assert nothing.pairs == []
    assert all(record["promoted"] == 0 for record in nothing.trace)


def test_c07_random_search_is_deterministic_and_fast():
    rng = np.random.default_rng(113)
    data = []
    for _ in range(200):
        length = int(rng.integers(2, 5))
        target_at = int(rng.integers(0, length))
        feats, tags = [], []
        for i in range(length):
            if i == target_at:
                feats.append(["bias", "word.lower=target"])
                tags.append("I")
            else:
                feats.append(["bias", f"word.lower=w{int(rng.integers(0, 10))}"])
                tags.append("O")
        data.append((tuple(feats), tuple(tags)))

    space = SearchSpace(trials=50, folds=3, seed=9)
    started = time.monotonic()
    first = random_search(data, space)
    assert time.monotonic() - started < 60.0
    second = random_search(data, space)
    third = random_search(data, space)
    assert (first.l1, first.l2) == (second.l1, second.l2) == (third.l1, third.l2)


def test_c08_embedding_evaluation_on_planted_table():
    rng = np.random.default_rng(127)
    words, rows = [], []
    for i in range(20):
        direction = rng.normal(size=10)
        words.extend([f"inf{i}", f"frm{i}"])
        rows.extend([direction, direction.copy()])
    for i in range(60):
        words.append(f"bg{i}")
        rows.append(rng.normal(size=10))
    table = make_table(words, np.array(rows))
    assert len(table) == 100

    pairs = [
        VariantPair(informal=f"inf{i}", formal=f"frm{i}", score=1.0, method="baseline")
        for i in range(20)
    ]
    vocab = frozenset(f"frm{i}" for i in range(20))
    report = evaluate_pairs(table, pairs, vocab, ks=(1, 20, 50, 100))
    assert report.accuracy[1] == 1.0
    values = [report.accuracy[k] for k in (1, 20, 50, 100)]
    assert values == sorted(values)

    def oracle(informal, formal):
        query = table.vector(informal)
        cosines = {
            w: float(np.dot(table.vector(w), query)
                     / (np.linalg.norm(table.vector(w)) * np.linalg.norm(query)))
            for w in table.words if w != informal
        }
        return 1 + sum(1 for v in cosines.values() if v > cosines[formal])

    for outcome in report.per_pair:
        assert outcome.rank == oracle(outcome.informal, outcome.formal)


def test_c09_pearson_pinned_values():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)
    xs = [1.0, 2.0, 4.0, 8.0]
    assert pearson(xs, [3 * x - 2 for x in xs]) == 1.0
    assert pearson(xs, [-x for x in xs]) == -1.0


def test_c10_stock_rules_extract_their_example_tuples():
    cases = [
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
    rules = {rule.rule_id: rule for rule in load_rules()}
    assert len(rules) == 10
    passing = 0
    for rule_id, headword, definition, formal in cases:
        entry = DictEntry(headword=headword, definition=tokenize(definition),
                          definition_text=definition, entry_id="e1")
        pairs = extract_baseline(Corpus(entries=(entry,)), [rules[rule_id]])
        if [(p.informal, p.formal) for p in pairs] == [(headword, formal)]:
            passing += 1
    assert passing == 10


def test_c11_bootstrap_cli_runs_are_byte_identical(tmp_path):
    planted = tmp_path / "planted"
    assert main(["gen-synthetic", "--kind", "bootstrap", "--out", str(planted),
                 "--entries", "120", "--n-pairs", "20", "--n-seeds", "4",
                 "--n-traps", "3", "--seed", "1"]) == 0

    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["extract", "--method", "bootstrap",
                     "--corpus", str(planted / "corpus.jsonl"),
                     "--seeds", str(planted / "seeds.tsv"),
                     "--seed", "1", "--out", str(out)]) == 0
        outputs.append(out)

    for name in ("pairs.tsv", "trace.jsonl", "manifest.json"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
