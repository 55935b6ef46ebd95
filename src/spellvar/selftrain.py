"""Iterative self-training of the tagger plus hyperparameter search.

Each round trains on the labeled set, tags the remaining unlabeled entries,
and promotes whole entries whose Viterbi-I tokens all clear the marginal
confidence threshold.  Promoted silver labels are frozen; promoted entries
leave the unlabeled set for good.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Sequence

from spellvar.corpus import SENTINEL, Corpus, DictEntry, VariantPair, annotate
from spellvar.crf.features import FeatureSet, extract_features
# ``marginals`` and ``viterbi_decode`` are unused here but stay importable
# under these names, which perfbench/tracer.py wraps.
from spellvar.crf.model import CrfModel, decode_batch, marginals, viterbi_decode  # noqa: F401
from spellvar.crf.train import TrainConfig, encode_dataset, train

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


@dataclass(frozen=True)
class SearchSpace:
    """Log-uniform sampling ranges for the elastic-net penalties."""

    l1_range: tuple[float, float] = (0.01, 10.0)
    l2_range: tuple[float, float] = (0.01, 10.0)
    trials: int = 50
    folds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("l1_range", "l2_range"):
            low, high = getattr(self, name)
            if not 0 < low <= high:
                raise ValueError(f"{name} must satisfy 0 < low <= high")
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
    base: TrainConfig = TrainConfig(),
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
    base_size, remainder = divmod(len(order), space.folds)
    folds: list[list[int]] = []
    start = 0
    for k in range(space.folds):
        size = base_size + (1 if k < remainder else 0)
        folds.append(order[start:start + size])
        start += size

    # Every trial trains on the same splits, so each is encoded once.
    splits = []
    for held_out in folds:
        held_set = set(held_out)
        splits.append((encode_dataset([data[i] for i in order if i not in held_set]), held_out))

    best: tuple[float, float, float] | None = None  # (mean, l1, l2)
    best_scores: tuple[float, ...] = ()
    history: list[tuple[float, float, float]] = []
    for _ in range(space.trials):
        l1 = _log_uniform(rng, *space.l1_range)
        l2 = _log_uniform(rng, *space.l2_range)
        config = replace(base, l1=l1, l2=l2)
        scores: list[float] = []
        for train_split, held_out in splits:
            model = train(train_split, config)
            gold_tags = [tuple(data[i][1]) for i in held_out]
            tagged = decode_batch(model, [data[i][0] for i in held_out])
            pred_tags = [labels for labels, _, _ in tagged]
            scores.append(token_f1(gold_tags, pred_tags))
        mean = sum(scores) / len(scores)
        history.append((l1, l2, mean))
        if (
            best is None
            or mean > best[0]
            or (mean == best[0] and (l1, l2) < (best[1], best[2]))
        ):
            best = (mean, l1, l2)
            best_scores = tuple(scores)

    assert best is not None
    return SearchResult(l1=best[1], l2=best[2], fold_scores=best_scores,
                        trials=tuple(history))


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


def _ensure_annotated_entry(entry: DictEntry) -> DictEntry:
    if all(tok.upos != SENTINEL and tok.lemma != SENTINEL for tok in entry.definition):
        return entry
    single = Corpus(entries=(entry,))
    return annotate(single).entries[0]


def self_train(
    gold: Sequence[LabeledEntry],
    unlabeled: Corpus,
    config: SelfTrainConfig = SelfTrainConfig(),
) -> SelfTrainResult:
    """Run up to ``config.max_iterations`` train/tag/promote rounds.

    A token counts as confident when Viterbi labels it I and its marginal
    P(I) strictly exceeds ``confidence_tau``; entries with at least one
    confident token are promoted whole, everything else tagged O.
    """
    if not gold:
        raise ValueError("self-training needs gold data")
    gold_entries = [(_ensure_annotated_entry(entry), tuple(tags)) for entry, tags in gold]
    for entry, tags in gold_entries:
        if len(tags) != len(entry.definition):
            raise ValueError(f"entry {entry.entry_id!r}: {len(tags)} tags for "
                             f"{len(entry.definition)} tokens")
    if not unlabeled.annotated:
        unlabeled = annotate(unlabeled)
    gold_ids = {entry.entry_id for entry, _ in gold_entries}
    clash = gold_ids & {entry.entry_id for entry in unlabeled}
    if clash:
        raise ValueError(f"entries present in both gold and unlabeled sets: {sorted(clash)}")

    labeled: list[tuple[FeatureSet, tuple[str, ...]]] = [
        (extract_features(entry, config.window), tags) for entry, tags in gold_entries
    ]
    remaining = [(entry, extract_features(entry, config.window)) for entry in unlabeled.entries]
    pairs: list[VariantPair] = []
    trace: list[dict] = []
    model: CrfModel | None = None

    for iteration in range(1, config.max_iterations + 1):
        model = train(labeled, config.train)
        tagged = decode_batch(model, [features for _, features in remaining])
        promotions: list[
            tuple[DictEntry, FeatureSet, tuple[str, ...], list[dict[str, float]]]
        ] = []
        for (entry, features), (path, _, margs) in zip(remaining, tagged):
            silver = tuple(
                "I" if tag == "I" and marg["I"] > config.confidence_tau else "O"
                for tag, marg in zip(path, margs)
            )
            if "I" in silver:
                promotions.append((entry, features, silver, margs))

        record: dict = {
            "iteration": iteration,
            "promoted": len(promotions),
            "promoted_ids": [entry.entry_id for entry, _, _, _ in promotions],
            "remaining_unlabeled": len(remaining) - len(promotions),
            "labeled_size": len(labeled) + len(promotions),
            "objective": model.final_objective,
            "converged": model.converged,
            "iterations": model.iterations,
        }
        if not promotions:
            record["early_stop"] = True
            trace.append(record)
            break

        promoted_ids = {entry.entry_id for entry, _, _, _ in promotions}
        remaining = [item for item in remaining if item[0].entry_id not in promoted_ids]
        min_marginal = 1.0
        for entry, features, silver, margs in promotions:
            labeled.append((features, silver))
            pairs.extend(pairs_from_tagging(entry, silver, margs, iteration=iteration))
            min_marginal = min(
                min_marginal,
                min(m["I"] for tag, m in zip(silver, margs) if tag == "I"),
            )
        record["min_promoted_marginal"] = min_marginal
        record["pairs_total"] = len(pairs)
        trace.append(record)

    if model is None:
        model = train(labeled, config.train)
    # Training sees only feature lists; the window they were extracted with is ours.
    model = replace(model, window=config.window)
    return SelfTrainResult(model=model, pairs=pairs, trace=trace)
