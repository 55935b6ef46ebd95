"""Penalized maximum-likelihood training for the tagger.

Training sequences are encoded once into one table of feature columns per
position, so emission scores are one gather-and-sum and expected feature
counts one scatter-add, and the penalized log-likelihood's recursions run
over all sequences at once in :mod:`spellvar.crf.kernel`.  The value needs
only the forward pass; the gradient's backward pass can be left to a
function that the optimizer calls only for the points it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from spellvar.crf.kernel import (
    Batch,
    FeatureIds,
    IdSequences,
    backward,
    expected_transitions,
    forward,
    posteriors,
    time_major,
)
from spellvar.crf.model import LABELS, CrfModel
from spellvar.crf.optimizer import minimize


class EncodedDataset(Batch):
    """A batch of training sequences with their gold labels, one per position,
    and the per-dataset constants of the objective: ``column_ids`` and
    ``row_ids`` are the flat (column, label) and (position, label) ids of
    every listed feature, in position order and listed order within a
    position; ``gold_onehot`` marks each position's gold label and
    ``gold_ids`` its flat id in the time-major emission scores."""

    n_labels = len(LABELS)

    def __init__(self, batch: Batch, feature_index: dict[str, int], gold: np.ndarray,
                 transition_counts: np.ndarray) -> None:
        super().__init__(batch.slots, batch.lengths)
        self.feature_index = feature_index
        self.gold = gold
        self.transition_counts = transition_counts
        table = batch.slots.T
        listed = table < len(feature_index)
        labels = np.arange(self.n_labels)
        self.column_ids = (table[listed][:, None] * self.n_labels + labels).ravel()
        self.row_ids = (np.nonzero(listed)[0][:, None] * self.n_labels + labels).ravel()
        self.gold_onehot = np.eye(self.n_labels)[gold]
        self.gold_ids = self.real_ids[np.arange(len(gold)), gold]

    @property
    def n_features(self) -> int:
        return len(self.feature_index)

    @property
    def n_parameters(self) -> int:
        return self.n_features * self.n_labels + self.n_labels * self.n_labels

    def feature_totals(self, values: np.ndarray) -> np.ndarray:
        """Sum of the rows of ``values`` (positions x labels) over the
        positions that list each feature, shaped (features, labels).
        ``np.bincount`` adds in id order, so each total adds its rows in
        position order, like a sequential scatter-add."""
        totals = np.bincount(self.column_ids, weights=values.take(self.row_ids),
                             minlength=self.n_features * self.n_labels)
        # Without any listed feature ``np.bincount`` returns integers.
        return totals.astype(float, copy=False).reshape(self.n_features, self.n_labels)


class TaggedIds(NamedTuple):
    """Interned training sequences and their tags, one tag sequence each."""

    sequences: IdSequences
    tags: Sequence[Sequence[str]]


TrainingData = Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]] | TaggedIds


def encode_dataset(data: TrainingData) -> EncodedDataset:
    """Index features in first-seen order and flatten sequences to arrays;
    (features, tags) pairs of strings are interned first."""
    if not isinstance(data, TaggedIds):
        data = TaggedIds(FeatureIds().intern(features for features, _ in data),
                         [tags for _, tags in data])
    if not len(data.sequences):
        raise ValueError("no training data")
    label_index = {label: i for i, label in enumerate(LABELS)}
    gold: list[int] = []
    transition_counts = np.zeros((len(LABELS), len(LABELS)))
    for length, tags in zip(data.sequences.lengths.tolist(), data.tags):
        if length != len(tags):
            raise ValueError(f"sequence has {length} feature lists but {len(tags)} tags")
        if length == 0:
            raise ValueError("empty sequences are not trainable")
        for tag in tags:
            if tag not in label_index:
                raise ValueError(f"unknown tag {tag!r}")
        current = [label_index[tag] for tag in tags]
        np.add.at(transition_counts, (current[:-1], current[1:]), 1)
        gold.extend(current)

    sequences = data.sequences
    ids, first = np.unique(sequences.ids, return_index=True)
    seen = ids[np.argsort(first)]
    columns = np.full(len(sequences.vocabulary), len(seen), dtype=np.intp)
    columns[seen] = np.arange(len(seen))
    names = sequences.vocabulary.names()
    feature_index = {names[i]: column for column, i in enumerate(seen.tolist())}
    return EncodedDataset(sequences.encode(columns, len(seen)), feature_index,
                          np.array(gold, dtype=int), transition_counts)


def unpack_weights(weights: np.ndarray, dataset: EncodedDataset) -> tuple[np.ndarray, np.ndarray]:
    n_state = dataset.n_features * dataset.n_labels
    state = weights[:n_state].reshape(dataset.n_features, dataset.n_labels)
    transitions = weights[n_state:].reshape(dataset.n_labels, dataset.n_labels)
    return state, transitions


def log_likelihood_and_gradient(
    weights: np.ndarray, dataset: EncodedDataset, l2: float = 0.0, *, deferred: bool = False
) -> tuple[float, np.ndarray | Callable[[], np.ndarray]]:
    """Sum over sequences of gold-path score minus log partition, minus the
    L2 term, together with its exact gradient (empirical minus expected
    counts minus ``l2 * weights``).  L1 is left to the optimizer.

    With ``deferred`` the gradient comes back as a function that completes
    it from this call's forward pass, so that a caller that discards the
    point never runs the backward pass."""
    state, transitions = unpack_weights(weights, dataset)
    emissions = dataset.emissions(state)
    alpha, log_z = forward(emissions, dataset, transitions)
    gold_score = float(time_major(emissions).take(dataset.gold_ids).sum())
    gold_score += float((dataset.transition_counts * transitions).sum())

    value = gold_score - float(log_z.sum())
    value -= 0.5 * l2 * (float((state * state).sum()) + float((transitions * transitions).sum()))

    def gradient() -> np.ndarray:
        beta = backward(emissions, dataset, transitions)
        probs = posteriors(alpha, beta, log_z, dataset).take(dataset.real_ids)
        grad_state = dataset.feature_totals(dataset.gold_onehot - probs) - l2 * state
        grad_transitions = (dataset.transition_counts
                            - expected_transitions(emissions, alpha, beta, log_z, dataset,
                                                   transitions)
                            - l2 * transitions)
        return np.concatenate([grad_state.ravel(), grad_transitions.ravel()])

    return value, gradient if deferred else gradient()


@dataclass(frozen=True)
class TrainConfig:
    """Elastic-net training settings; the defaults favour sparse models.

    The default penalties ``l1=2.35`` and ``l2=0.08`` date from the first
    version and have no recorded source.  They stay because no workload or
    test runs at them and changing them changes every default model; on the
    ``gen-synthetic --kind selftrain`` fixture they write no pairs.  Use
    ``--search-trials`` to pick penalties for a corpus.
    """

    l1: float = 2.35
    l2: float = 0.08
    max_optimizer_iterations: int = 200

    def __post_init__(self) -> None:
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("penalties must be non-negative")
        if self.max_optimizer_iterations < 1:
            raise ValueError("max_optimizer_iterations must be >= 1")


def train(
    data: TrainingData | EncodedDataset,
    config: TrainConfig = TrainConfig(),
) -> CrfModel:
    """Fit a model on (features, tags) sequences, on interned ones, or on a
    dataset already encoded by :func:`encode_dataset` when several trainings
    share one.

    Single-label data still trains but the returned model carries the
    ``degenerate`` flag.  A non-finite objective raises.
    """
    dataset = data if isinstance(data, EncodedDataset) else encode_dataset(data)
    degenerate = len(set(dataset.gold.tolist())) < 2

    def fun_grad(weights: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        value, gradient = log_likelihood_and_gradient(weights, dataset, config.l2,
                                                      deferred=True)
        return -value, lambda: -gradient()

    result = minimize(
        fun_grad,
        np.zeros(dataset.n_parameters),
        l1=config.l1,
        max_iterations=config.max_optimizer_iterations,
    )
    if not np.isfinite(result.fun):
        raise ValueError("training diverged to a non-finite objective")
    state, transitions = unpack_weights(result.x, dataset)
    return CrfModel(
        feature_index=dataset.feature_index,
        state=state,
        transitions=transitions,
        degenerate=degenerate,
        final_objective=-result.fun,
        converged=result.converged,
        iterations=result.iterations,
    )
