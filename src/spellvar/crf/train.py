"""Penalized maximum-likelihood training for the tagger.

Training sequences are encoded into one sparse indicator matrix (positions x
features), so emission scores and expected feature counts are two sparse
matrix products, and the penalized log-likelihood's forward-backward runs
over all sequences at once in :mod:`spellvar.crf.kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spellvar.crf.kernel import Batch, encode, forward_backward
from spellvar.crf.model import LABELS, CrfModel
from spellvar.crf.optimizer import minimize


@dataclass
class EncodedDataset(Batch):
    """A batch of training sequences with their gold labels, one per row."""

    feature_index: dict[str, int]
    gold: np.ndarray
    transition_counts: np.ndarray
    n_labels: int = len(LABELS)

    @property
    def n_features(self) -> int:
        return len(self.feature_index)

    @property
    def n_parameters(self) -> int:
        return self.n_features * self.n_labels + self.n_labels * self.n_labels


def encode_dataset(
    data: Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]],
) -> EncodedDataset:
    """Index features in first-seen order and flatten sequences to arrays."""
    if not data:
        raise ValueError("no training data")
    label_index = {label: i for i, label in enumerate(LABELS)}
    gold: list[int] = []
    transition_counts = np.zeros((len(LABELS), len(LABELS)))
    for features, tags in data:
        if len(features) != len(tags):
            raise ValueError(
                f"sequence has {len(features)} feature lists but {len(tags)} tags"
            )
        if len(features) == 0:
            raise ValueError("empty sequences are not trainable")
        for tag in tags:
            if tag not in label_index:
                raise ValueError(f"unknown tag {tag!r}")
        current = [label_index[tag] for tag in tags]
        np.add.at(transition_counts, (current[:-1], current[1:]), 1)
        gold.extend(current)

    sequences = [features for features, _ in data]
    seen = dict.fromkeys(f for features in sequences for feats in features for f in feats)
    feature_index = {feature: column for column, feature in enumerate(seen)}
    return EncodedDataset(
        **vars(encode(sequences, feature_index)),
        feature_index=feature_index,
        gold=np.array(gold, dtype=int),
        transition_counts=transition_counts,
    )


def unpack_weights(weights: np.ndarray, dataset: EncodedDataset) -> tuple[np.ndarray, np.ndarray]:
    n_state = dataset.n_features * dataset.n_labels
    state = weights[:n_state].reshape(dataset.n_features, dataset.n_labels)
    transitions = weights[n_state:].reshape(dataset.n_labels, dataset.n_labels)
    return state, transitions


def log_likelihood_and_gradient(
    weights: np.ndarray, dataset: EncodedDataset, l2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Sum over sequences of gold-path score minus log partition, minus the
    L2 term, together with its exact gradient (empirical minus expected
    counts minus ``l2 * weights``).  L1 is left to the optimizer."""
    state, transitions = unpack_weights(weights, dataset)
    emissions = dataset.emissions(state)
    log_z, posteriors, expected_transitions = forward_backward(
        emissions, dataset.mask, transitions
    )
    flat_rows = np.arange(dataset.gold.shape[0])
    gold_score = float(emissions[dataset.mask][flat_rows, dataset.gold].sum())
    gold_score += float((dataset.transition_counts * transitions).sum())

    value = gold_score - float(log_z.sum())
    value -= 0.5 * l2 * (float((state * state).sum()) + float((transitions * transitions).sum()))

    gold_onehot = np.eye(dataset.n_labels)[dataset.gold]
    grad_state = np.asarray(dataset.matrix.T @ (gold_onehot - posteriors[dataset.mask]))
    grad_state -= l2 * state
    grad_transitions = dataset.transition_counts - expected_transitions - l2 * transitions
    gradient = np.concatenate([grad_state.ravel(), grad_transitions.ravel()])
    return value, gradient


@dataclass(frozen=True)
class TrainConfig:
    """Elastic-net training settings; the defaults favour sparse models."""

    l1: float = 2.35
    l2: float = 0.08
    max_optimizer_iterations: int = 200
    gradient_tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("penalties must be non-negative")
        if self.max_optimizer_iterations < 1:
            raise ValueError("max_optimizer_iterations must be >= 1")


def train(
    data: Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]] | EncodedDataset,
    config: TrainConfig = TrainConfig(),
) -> CrfModel:
    """Fit a model on (features, tags) sequences, or on a dataset already
    encoded by :func:`encode_dataset` when several trainings share one.

    Single-label data still trains but the returned model carries the
    ``degenerate`` flag.  A non-finite objective raises.
    """
    dataset = data if isinstance(data, EncodedDataset) else encode_dataset(data)
    degenerate = len(set(dataset.gold.tolist())) < 2

    def fun_grad(weights: np.ndarray) -> tuple[float, np.ndarray]:
        value, gradient = log_likelihood_and_gradient(weights, dataset, config.l2)
        return -value, -gradient

    result = minimize(
        fun_grad,
        np.zeros(dataset.n_parameters),
        l1=config.l1,
        max_iterations=config.max_optimizer_iterations,
        tolerance=config.gradient_tolerance,
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
