"""Penalized maximum-likelihood training for the tagger.

Training sequences are encoded once into one table of feature columns per
position, so emission scores are one gather-and-sum and expected feature
counts one scatter-add, and the penalized log-likelihood's recursions run
over all sequences at once in :mod:`spellvar.crf.kernel`.  The value needs
only the forward pass; the gradient's backward pass can be left to a
function that the optimizer calls only for the points it accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
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
)
from spellvar.crf.model import LABELS, CrfModel
from spellvar.crf.optimizer import minimize


class EncodedDataset:
    """Training sequences as one batch, with their gold labels, one per
    position, and the per-dataset constants of the objective: ``column_ids``
    and ``row_ids`` are the flat (column, label) and (position, label) ids of
    every listed feature, in position order and listed order within a
    position; ``gold_onehot`` marks each position's gold label and
    ``gold_ids`` its flat id in the batch's emission scores."""

    n_labels = len(LABELS)

    def __init__(self, batch: Batch, feature_index: dict[str, int], gold: np.ndarray,
                 transition_counts: np.ndarray) -> None:
        self.batch = batch
        self.feature_index = feature_index
        self.gold = gold
        self.transition_counts = transition_counts
        table = batch.slots.T
        listed = table < len(feature_index)
        labels = np.arange(self.n_labels)
        self.column_ids = (table[listed][:, None] * self.n_labels + labels).ravel()
        self.row_ids = (np.nonzero(listed)[0][:, None] * self.n_labels + labels).ravel()
        self.gold_onehot = np.eye(self.n_labels)[gold]
        self.gold_ids = batch.real_ids[np.arange(len(gold)), gold]

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
    sequences = data.sequences
    lengths = sequences.lengths
    n_tags = np.fromiter(map(len, data.tags), dtype=np.intp, count=len(data.tags))
    label_index = {label: i for i, label in enumerate(LABELS)}
    gold = np.fromiter(map(label_index.get, chain.from_iterable(data.tags), repeat(-1)),
                       dtype=int, count=n_tags.sum())
    # The first sequence with a fault, checked in the order the faults are named.
    unknown = np.zeros(len(n_tags), dtype=bool)
    unknown[np.repeat(np.arange(len(n_tags)), n_tags)[gold < 0]] = True
    faults = np.flatnonzero((lengths != n_tags) | (lengths == 0) | unknown)
    if len(faults):
        k = faults[0]
        if lengths[k] != n_tags[k]:
            raise ValueError(f"sequence has {lengths[k]} feature lists but {n_tags[k]} tags")
        if lengths[k] == 0:
            raise ValueError("empty sequences are not trainable")
        raise ValueError(f"unknown tag {next(t for t in data.tags[k] if t not in label_index)!r}")
    # Each step from one tag to the next inside a sequence.
    steps = np.ones(len(gold), dtype=bool)
    steps[sequences.starts] = False
    transitions = gold[:-1][steps[1:]] * len(LABELS) + gold[1:][steps[1:]]
    transition_counts = np.bincount(transitions, minlength=len(LABELS) ** 2).astype(float)

    ids, first = np.unique(sequences.ids, return_index=True)
    seen = ids[np.argsort(first)]
    columns = np.full(len(sequences.vocabulary), len(seen), dtype=np.intp)
    columns[seen] = np.arange(len(seen))
    names = sequences.vocabulary.names()
    feature_index = {names[i]: column for column, i in enumerate(seen.tolist())}
    return EncodedDataset(sequences.encode(columns, len(seen)), feature_index, gold,
                          transition_counts.reshape(len(LABELS), len(LABELS)))


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
    batch = dataset.batch
    emissions = batch.emissions(state)
    alpha, log_z = forward(emissions, batch, transitions)
    gold_score = float(emissions.take(dataset.gold_ids).sum())
    gold_score += float((dataset.transition_counts * transitions).sum())

    value = gold_score - float(log_z.sum())
    value -= 0.5 * l2 * (float((state * state).sum()) + float((transitions * transitions).sum()))

    def gradient() -> np.ndarray:
        beta = backward(emissions, batch, transitions)
        probs = posteriors(alpha, beta, log_z, batch).take(batch.real_ids)
        grad_state = dataset.feature_totals(dataset.gold_onehot - probs) - l2 * state
        grad_transitions = (dataset.transition_counts
                            - expected_transitions(emissions, alpha, beta, log_z, batch,
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
        if not (0 <= self.l1 < math.inf and 0 <= self.l2 < math.inf):
            raise ValueError("penalties must be non-negative and finite")
        if self.max_optimizer_iterations < 1:
            raise ValueError("max_optimizer_iterations must be >= 1")


def _start_point(start: CrfModel, dataset: EncodedDataset) -> np.ndarray:
    """The weights of ``start`` as a point of ``dataset``'s objective: its
    features must be, in order, the dataset's first ones, and every later
    feature starts at zero."""
    n_labels = dataset.n_labels
    if start.transitions.shape != (n_labels, n_labels):
        raise ValueError(f"start model's transitions are {start.transitions.shape}, "
                         f"not {n_labels} x {n_labels}")
    names = iter(dataset.feature_index)
    for column, name in enumerate(start.feature_index):
        if name != next(names, None):
            raise ValueError(f"start model's feature {name!r} is not column {column} "
                             f"of the training data")
    x0 = np.zeros(dataset.n_parameters)
    state, transitions = unpack_weights(x0, dataset)  # views of x0
    state[:len(start.feature_index)] = start.state[list(start.feature_index.values())]
    transitions[:] = start.transitions
    return x0


def train(
    data: TrainingData | EncodedDataset,
    config: TrainConfig = TrainConfig(),
    *,
    start: CrfModel | None = None,
) -> CrfModel:
    """Fit a model on (features, tags) sequences, on interned ones, or on a
    dataset already encoded by :func:`encode_dataset` when several trainings
    share one.

    The optimizer starts at zero, or with ``start`` at that model's weights:
    its features must be the dataset's first ones, in order, and the
    dataset's later features start at zero.  With ``l2 > 0`` the objective
    is ``l2``-strongly convex, so a converged run from either start ends
    within ``sqrt(n) * tol / l2`` of its one minimizer in 2-norm, for ``n``
    weights and the optimizer's stopping tolerance ``tol``.

    Single-label data still trains but the returned model carries the
    ``degenerate`` flag.  The objective is finite: :func:`minimize` raises
    on a non-finite start and accepts only finite points.
    """
    dataset = data if isinstance(data, EncodedDataset) else encode_dataset(data)
    degenerate = len(set(dataset.gold.tolist())) < 2
    x0 = np.zeros(dataset.n_parameters) if start is None else _start_point(start, dataset)

    def fun_grad(weights: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        value, gradient = log_likelihood_and_gradient(weights, dataset, config.l2,
                                                      deferred=True)
        return -value, lambda: -gradient()

    result = minimize(
        fun_grad,
        x0,
        l1=config.l1,
        max_iterations=config.max_optimizer_iterations,
    )
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
