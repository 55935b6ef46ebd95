"""Iterative self-training of the tagger plus hyperparameter search.

Each round trains on the labeled set, tags the remaining unlabeled entries,
and promotes whole entries whose Viterbi-I tokens all clear the marginal
confidence threshold.  Promoted silver labels are frozen; promoted entries
leave the unlabeled set for good.

Every entry's features are interned to integer ids once per run; each
round's labeled set and remaining entries are taken from those ids, and the
decoded arrays are turned into per-position values only for promoted entries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from spellvar.corpus import Corpus, DictEntry, VariantPair, annotate
from spellvar.crf.features import FeatureSet, extract_features
from spellvar.crf.kernel import FeatureIds
# ``marginals`` and ``viterbi_decode`` are unused here but stay importable
# under these names, which perfbench/tracer.py wraps.
from spellvar.crf.model import (  # noqa: F401
    LABELS,
    CrfModel,
    decode_batch,
    marginals,
    viterbi_decode,
)
from spellvar.crf.train import TaggedIds, TrainConfig, encode_dataset, train

LabeledEntry = tuple[DictEntry, tuple[str, ...]]


@dataclass(frozen=True)
class SelfTrainConfig:
    max_iterations: int = 5
    confidence_tau: float = 0.9
    window: int = 3
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0.7 <= self.confidence_tau <= 1.0:
            raise ValueError("confidence_tau must lie in [0.7, 1]")
        if self.window < 1:
            raise ValueError("window must be >= 1")


#: Each trial of the penalty search draws l1 and l2 log-uniformly from here.
PENALTY_RANGE = (0.01, 10.0)


@dataclass(frozen=True)
class SearchSpace:
    """Trials, folds and seed of the search over the elastic-net penalties."""

    trials: int = 50
    folds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass
class SearchResult:
    l1: float
    l2: float
    fold_scores: tuple[float, ...]
    trials: tuple[tuple[float, float, float], ...]


@dataclass
class SelfTrainResult:
    model: CrfModel
    pairs: list[VariantPair]
    trace: list[dict]


def token_f1(
    gold: Sequence[Sequence[str]], predicted: Sequence[Sequence[str]]
) -> float:
    """Token-level F1 on the I label, pooled over all sequences.

    When there are no I tokens to find and none were predicted the score is
    1.0: nothing was missed.
    """
    tp = fp = fn = 0
    for gold_tags, pred_tags in zip(gold, predicted):
        for g, p in zip(gold_tags, pred_tags):
            if p == "I" and g == "I":
                tp += 1
            elif p == "I":
                fp += 1
            elif g == "I":
                fn += 1
    denominator = 2 * tp + fp + fn
    if denominator == 0:
        return 1.0
    return 2 * tp / denominator


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def random_search(
    data: Sequence[tuple[FeatureSet, Sequence[str]]],
    space: SearchSpace,
) -> SearchResult:
    """Cross-validated random search over (l1, l2).

    Sequences are shuffled once with the seeded generator, split into
    contiguous folds, and every trial is scored by mean token F1 on I over
    the held-out folds.  Ties go to the lexicographically smaller (l1, l2).
    """
    if len(data) < space.folds:
        raise ValueError(
            f"need at least {space.folds} sequences for {space.folds}-fold search, "
            f"got {len(data)}"
        )
    rng = random.Random(space.seed)
    order = list(range(len(data)))
    rng.shuffle(order)
    folds = np.array_split(order, space.folds)

    # Every trial trains on the same splits, so each is encoded once.
    sequences = FeatureIds().intern(features for features, _ in data)
    splits = []
    for k, held_out in enumerate(folds):
        kept = np.concatenate(folds[:k] + folds[k + 1:])
        training = TaggedIds(sequences.take(kept), [data[i][1] for i in kept])
        gold_tags = [tag for i in held_out for tag in data[i][1]]
        splits.append((encode_dataset(training), sequences.take(held_out), gold_tags))

    trials: list[tuple[float, float, float, tuple[float, ...]]] = []  # (mean, l1, l2, scores)
    for _ in range(space.trials):
        l1 = _log_uniform(rng, *PENALTY_RANGE)
        l2 = _log_uniform(rng, *PENALTY_RANGE)
        config = TrainConfig(l1=l1, l2=l2)
        scores: list[float] = []
        for train_split, held_out, gold_tags in splits:
            labels, _, _ = decode_batch(train(train_split, config), held_out)
            # F1 pools every token, so the held-out fold is one sequence here.
            scores.append(token_f1([gold_tags], [[LABELS[i] for i in labels.tolist()]]))
        trials.append((sum(scores) / len(scores), l1, l2, tuple(scores)))

    best = max(trials, key=lambda t: (t[0], -t[1], -t[2]))
    return SearchResult(l1=best[1], l2=best[2], fold_scores=best[3],
                        trials=tuple((l1, l2, mean) for mean, l1, l2, _ in trials))


def pairs_from_tagging(
    entry: DictEntry,
    labels: Sequence[str],
    confidences: Sequence[dict[str, float]],
    iteration: int = 0,
) -> list[VariantPair]:
    """Turn maximal I runs into pairs scored by the run's weakest marginal."""
    pairs: list[VariantPair] = []
    i = 0
    n = len(labels)
    while i < n:
        if labels[i] != "I":
            i += 1
            continue
        j = i
        while j < n and labels[j] == "I":
            j += 1
        formal = " ".join(tok.lower for tok in entry.definition[i:j])
        score = min(confidences[t]["I"] for t in range(i, j))
        if entry.headword.casefold() != formal.casefold():
            pairs.append(VariantPair(
                informal=entry.headword,
                formal=formal,
                score=score,
                method="crf",
                iteration=iteration,
                source_entry=entry.entry_id,
            ))
        i = j
    return pairs


def self_train(
    gold: Sequence[LabeledEntry],
    unlabeled: Corpus,
    config: SelfTrainConfig = SelfTrainConfig(),
) -> SelfTrainResult:
    """Run up to ``config.max_iterations`` train/tag/promote rounds.

    A token counts as confident when Viterbi labels it I and its marginal
    P(I) strictly exceeds ``confidence_tau``; entries with at least one
    confident token are promoted whole, everything else tagged O.  Gold and
    unlabeled entries go through :func:`annotate` as one corpus, which fills
    only missing lemmas and UPOS tags and rejects a repeated entry id.
    """
    if not gold:
        raise ValueError("self-training needs gold data")
    entries = annotate(Corpus(entries=(*(entry for entry, _ in gold), *unlabeled))).entries
    labeled_tags = [tuple(tags) for _, tags in gold]
    for entry, tags in zip(entries, labeled_tags):
        if len(tags) != len(entry.definition):
            raise ValueError(f"entry {entry.entry_id!r}: {len(tags)} tags for "
                             f"{len(entry.definition)} tokens")

    corpus = FeatureIds().intern(extract_features(entry, config.window) for entry in entries)
    labeled = list(range(len(gold)))
    remaining = np.arange(len(gold), len(entries))
    is_i = LABELS.index("I")
    pairs: list[VariantPair] = []
    trace: list[dict] = []
    model: CrfModel | None = None

    for iteration in range(1, config.max_iterations + 1):
        model = train(TaggedIds(corpus.take(labeled), labeled_tags), config.train)
        tagged = corpus.take(remaining)
        labels, _, probs = decode_batch(model, tagged)
        p_i = probs[:, is_i]
        confident = (labels == is_i) & (p_i > config.confidence_tau)
        owner = np.repeat(np.arange(len(tagged)), tagged.lengths)
        promoted = np.zeros(len(tagged), dtype=bool)
        promoted[owner[confident]] = True
        promoted_at = np.flatnonzero(promoted)

        record: dict = {
            "iteration": iteration,
            "promoted": len(promoted_at),
            "promoted_ids": [entries[k].entry_id for k in remaining[promoted_at].tolist()],
            "remaining_unlabeled": len(remaining) - len(promoted_at),
            "labeled_size": len(labeled) + len(promoted_at),
            "objective": model.final_objective,
            "converged": model.converged,
            "iterations": model.iterations,
        }
        if not len(promoted_at):
            record["early_stop"] = True
            trace.append(record)
            break

        for k, start, length in zip(remaining[promoted_at].tolist(),
                                    tagged.starts[promoted_at].tolist(),
                                    tagged.lengths[promoted_at].tolist()):
            silver = tuple("I" if c else "O" for c in confident[start:start + length].tolist())
            margs = [{"I": p} for p in p_i[start:start + length].tolist()]
            labeled.append(k)
            labeled_tags.append(silver)
            pairs.extend(pairs_from_tagging(entries[k], silver, margs, iteration=iteration))
        remaining = remaining[~promoted]
        record["min_promoted_marginal"] = min(1.0, float(p_i[confident].min()))
        record["pairs_total"] = len(pairs)
        trace.append(record)

    if model is None:
        model = train(TaggedIds(corpus.take(labeled), labeled_tags), config.train)
    # Training sees only feature lists; the window they were extracted with is ours.
    model = replace(model, window=config.window)
    return SelfTrainResult(model=model, pairs=pairs, trace=trace)
