"""Batched linear-chain CRF inference, shared by training and decoding.

Emission scores of a whole batch are one sparse product; forward-backward and
Viterbi run over all sequences at once, padded to the longest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

# Pairwise max-shifted log-sums: on a handful of labels a fraction of the cost
# of ``scipy.special.logsumexp``, most of which is array-API dispatch.
logsumexp = np.logaddexp.reduce


@dataclass
class Batch:
    """Sequences compiled to a positions x features indicator matrix, with
    rows in sequence order; ``mask`` marks the real positions of the padded
    (sequences x max length) layout."""

    matrix: sparse.csr_matrix
    lengths: np.ndarray
    mask: np.ndarray

    def emissions(self, state: np.ndarray) -> np.ndarray:
        """Per-position label scores, shaped (sequences, max length, labels)
        and zero at padded positions."""
        padded = np.zeros(self.mask.shape + (state.shape[1],))
        padded[self.mask] = self.matrix @ state
        return padded


def encode(sequences: Sequence[Sequence[Sequence[str]]], feature_index: dict[str, int]) -> Batch:
    """Map each position's features to columns of ``feature_index``; unknown
    features are dropped and a feature repeated within a position counts once."""
    indices: list[int] = []
    indptr = [0]
    for features in sequences:
        for feats in features:
            columns = dict.fromkeys(map(feature_index.get, feats))
            indices.extend(column for column in columns if column is not None)
            indptr.append(len(indices))
    # Columns stay in listed order (unsorted): each emission score then adds the
    # weights in the order a per-feature loop would, to the last bit, so
    # near-tied Viterbi paths break the same way however a batch is formed.
    matrix = sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(len(indptr) - 1, len(feature_index))
    )
    lengths = np.array([len(features) for features in sequences], dtype=int)
    # At least one column, so empty sequences and empty batches need no branch.
    mask = np.arange(max(1, lengths.max(initial=0)))[None, :] < lengths[:, None]
    return Batch(matrix=matrix, lengths=lengths, mask=mask)


def forward_backward(
    emissions: np.ndarray, mask: np.ndarray, transitions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sequence's log partition, the posterior label probabilities at
    every position (meaningless where padded), and the expected count of each
    label transition summed over the batch."""
    alpha = np.empty_like(emissions)
    alpha[:, 0] = emissions[:, 0]
    for t in range(1, emissions.shape[1]):
        step = logsumexp(alpha[:, t - 1, :, None] + transitions, axis=1) + emissions[:, t]
        alpha[:, t] = np.where(mask[:, t, None], step, alpha[:, t - 1])
    log_z = logsumexp(alpha[:, -1], axis=-1)

    beta = np.zeros_like(emissions)
    for t in range(emissions.shape[1] - 2, -1, -1):
        step = logsumexp(transitions + (emissions[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
        beta[:, t] = np.where(mask[:, t + 1, None], step, beta[:, t + 1])

    # Pairwise posteriors of every (t-1, t) step, summed in one masked pass.
    joint = (
        alpha[:, :-1, :, None]
        + transitions
        + (emissions[:, 1:] + beta[:, 1:])[:, :, None, :]
        - log_z[:, None, None, None]
    )
    expected_transitions = np.exp(joint[mask[:, 1:]]).sum(axis=0)
    return log_z, np.exp(alpha + beta - log_z[:, None, None]), expected_transitions


def _argmax_last(values: np.ndarray, axis: int) -> np.ndarray:
    """Argmax that resolves ties toward the highest index (the O label)."""
    return values.shape[axis] - 1 - np.argmax(np.flip(values, axis=axis), axis=axis)


def viterbi(
    emissions: np.ndarray, mask: np.ndarray, transitions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best label path of every sequence and its unnormalized score; ties
    resolve toward the highest label index.  Padding repeats the last label."""
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
