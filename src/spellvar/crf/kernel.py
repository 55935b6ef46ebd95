"""Batched two-label linear-chain CRF inference, shared by training and decoding.

The tagger has exactly two labels, I and O (``LABELS`` in
:mod:`spellvar.crf.model`; ``load_model`` rejects any other set), and the
kernel is written for them.

Sequences are padded to the longest one and laid out time-major and
label-major: arrays are (positions, labels, sequences), so that each step of
a recursion reads and writes rows as long as the batch.  Callers see
batch-major views (sequences, positions, labels) of those arrays.

Emission scores of a whole batch are one gather of weight rows and one
ordered sum, put into the padded layout.

Forward and backward recursions run in one loop, step t of the one beside
step width-1-t of the other, since both are one binary
``np.logaddexp(x0 + m0, x1 + m1)`` over the two labels of the neighbouring
position.  That equals, bit for bit, the ``np.logaddexp.reduce`` over a
length-2 axis that a general-label kernel uses: a reduce without an initial
value starts from the first element and applies the binary ufunc once, to
the first and the second.  The Viterbi step is one comparison that breaks
ties toward O, the higher label index, as an argmax over the flipped label
axis does.

Padding costs no step of its own.  The forward recursion runs through it
unmasked, and each sequence's log partition and final Viterbi score are read
at its last real position; only the backward messages and the Viterbi
back-pointers are masked, with masks and index arrays built once per batch
in :class:`Padding`.

Decoding (:func:`spellvar.crf.model.decode_batch`) sorts sequences by length
and runs the kernel on chunks of them instead of on one batch padded to the
longest entry of the corpus.  That changes no bit of a sequence's results:
every value at a real position is computed from that sequence's own cells,
extra padding columns only add cells that no real position reads, and the
trailing zero slots of a wider feature table add +0.0 to a sum that started
from +0.0, which is never -0.0, so x + 0.0 == x.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Offsets of the two labels in the ids of a label-major array, as a column.
_LABEL_ROWS = np.arange(2)[:, None]
# Back-pointer of a padded position: each label points at itself, so the
# backtrace repeats a sequence's last label through its padding.
_SELF = np.array([[False], [True]])


def time_major(values: np.ndarray) -> np.ndarray:
    """The contiguous (positions, labels, sequences) array behind a
    batch-major view; a copy only for arrays that were not built here."""
    return np.ascontiguousarray(values.transpose(1, 2, 0))


class Padding:
    """The padded layout of sequences of the given lengths: at least one
    position wide, so that empty sequences and empty batches need no branch.

    ``mask`` marks the real positions of the batch-major (sequences x width)
    view, and ``live`` the same positions time-major, shaped to broadcast over
    labels.  The id arrays address flat (positions, labels, sequences)
    arrays: ``real_ids`` the two labels of each real position, in sequence
    order, and ``last_ids`` those of each sequence's last position (its
    first when empty).  The ``chain_*`` ids address the (positions, 2, labels,
    sequences) buffer of :func:`forward_backward`: each sequence's last
    forward message, and the messages either side of every real step from
    one position to the next, in sequence order; ``step_seqs`` holds each
    such step's sequence.
    """

    def __init__(self, lengths: np.ndarray) -> None:
        self.lengths = lengths
        n_seqs = len(lengths)
        width = max(1, lengths.max(initial=0))
        live = np.arange(width)[:, None] < lengths
        self.live = live[:, None, :]
        self.dead = ~self.live
        self.mask = live.T
        seqs, positions = np.nonzero(self.mask)
        self.real_ids = (2 * n_seqs * positions + seqs)[:, None] + n_seqs * _LABEL_ROWS.T
        last = np.maximum(lengths, 1) - 1
        every = np.arange(n_seqs)
        self.last_ids = 2 * n_seqs * last + every + n_seqs * _LABEL_ROWS
        later = positions > 0
        steps, self.step_seqs = positions[later], seqs[later]
        self.chain_last = 4 * n_seqs * last + every + n_seqs * _LABEL_ROWS
        self.chain_prev = 4 * n_seqs * (steps - 1) + self.step_seqs + n_seqs * _LABEL_ROWS
        self.chain_ahead = (4 * n_seqs * (width - 1 - steps) + 2 * n_seqs + self.step_seqs
                            + n_seqs * _LABEL_ROWS)

    def real(self, values: np.ndarray) -> np.ndarray:
        """Rows of batch-major (sequences, positions, labels) ``values`` at the
        real positions, in sequence order."""
        return time_major(values).take(self.real_ids)


class Batch(Padding):
    """Sequences compiled to a (max features per position x positions) table
    of feature columns, positions in sequence order; a position's slots past
    its last feature hold the feature count, the row :meth:`emissions` adds
    as zeros."""

    def __init__(self, slots: np.ndarray, lengths: np.ndarray) -> None:
        super().__init__(lengths)
        self.slots = slots

    def emissions(self, state: np.ndarray) -> np.ndarray:
        """Per-position label scores, shaped (sequences, max length, labels)
        and zero at padded positions."""
        rows = np.concatenate([state, np.zeros((1, 2))]).take(self.slots, axis=0)
        width, _, n_seqs = self.live.shape
        scores = np.zeros((width, 2, n_seqs))
        # Slots are the outermost axis of the contiguous ``rows``, so the
        # reduction adds one slot after another, starting from 0.0 (a reduce
        # along a contiguous axis would sum pairwise): each score adds its
        # weights in listed order, to the last bit like a per-feature loop, so
        # near-tied Viterbi paths break the same way however a batch is formed.
        scores.put(self.real_ids, np.add.reduce(rows, axis=0, initial=0.0))
        return scores.transpose(2, 0, 1)


def encode(sequences: Sequence[Sequence[Sequence[str]]], feature_index: dict[str, int]) -> Batch:
    """Map each position's features to columns of ``feature_index``; unknown
    features are dropped and a feature repeated within a position counts once."""
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


def forward_backward(
    emissions: np.ndarray, padding: Padding, transitions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sequence's log partition, the posterior label probabilities at
    every position (zero where padded), and the expected count of each
    label transition summed over the batch."""
    scores = time_major(emissions)
    width, _, n_seqs = scores.shape
    # chain[k, 0] is the forward message at k, chain[k, 1] the backward one
    # into width-2-k plus the scores at width-1-k (scores + beta).
    chain = np.empty((width, 2, 2, n_seqs))
    beta = np.zeros(scores.shape)
    chain[0, 0] = scores[0]
    np.add(scores[-1], beta[-1], out=chain[0, 1])
    # Per direction, the transition weights from (forward) or into (backward)
    # label I and label O, one row per label of the position stepped to.
    from_i, from_o = np.array((transitions, transitions.T)).transpose(1, 0, 2)[:, :, :, None]
    lae, add, copyto = np.logaddexp, np.add, np.copyto
    for prev, cur, score_k, score_s, beta_s, live_next in zip(
            chain, chain[1:], scores[1:], scores[-2::-1], beta[-2::-1], padding.live[:0:-1]):
        step = lae(prev[:, :1] + from_i, prev[:, 1:] + from_o)
        add(step[0], score_k, out=cur[0])
        copyto(beta_s, step[1], where=live_next)
        add(score_s, beta_s, out=cur[1])
    final = chain.take(padding.chain_last)
    log_z = lae(final[0], final[1])

    # Pairwise posteriors of every real (t-1, t) step, shaped (label at t-1,
    # label at t, step) and copied step-major, so that the sum adds one step
    # after another in sequence order.
    joint = chain.take(padding.chain_prev)[:, None, :] + transitions[:, :, None]
    joint += chain.take(padding.chain_ahead)[None, :, :]
    joint -= log_z.take(padding.step_seqs)
    np.exp(joint, out=joint)
    expected_transitions = joint.reshape(4, -1).T.copy().sum(axis=0).reshape(2, 2)
    posteriors = np.exp(chain[:, 0] + beta - log_z, out=np.zeros(beta.shape),
                        where=padding.live)
    return log_z, posteriors.transpose(2, 0, 1), expected_transitions


def viterbi(
    emissions: np.ndarray, padding: Padding, transitions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best label path of every sequence and its unnormalized score; ties
    resolve toward O.  Padding repeats the last label."""
    scores = time_major(emissions)
    width, _, n_seqs = scores.shape
    delta = np.empty_like(scores)
    delta[0] = scores[0]
    # ``back[t, j, k]``: the best predecessor of label j at t is O.
    back = np.empty(scores.shape, dtype=bool)
    from_i, from_o = transitions[:, :, None]
    for prev, cur, back_t, score_t in zip(delta, delta[1:], back[1:], scores[1:]):
        via_i = prev[0] + from_i
        via_o = prev[1] + from_o
        np.greater_equal(via_o, via_i, out=back_t)
        np.add(np.where(back_t, via_o, via_i), score_t, out=cur)
    np.copyto(back, _SELF, where=padding.dead)
    final = delta.take(padding.last_ids)
    paths = np.empty((width, n_seqs), dtype=bool)
    paths[-1] = final[1] >= final[0]
    for label, prev, back_t in zip(paths[::-1], paths[-2::-1], back[:0:-1]):
        prev[...] = np.where(label, back_t[1], back_t[0])
    return paths.astype(int).T, np.where(paths[-1], final[1], final[0])
