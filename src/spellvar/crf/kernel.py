"""Batched two-label linear-chain CRF inference, shared by training and decoding.

The tagger has exactly two labels, I and O (``LABELS`` in
:mod:`spellvar.crf.model`; ``load_model`` rejects any other set), and the
kernel is written for them.

Features reach the kernel as integer ids.  :class:`FeatureIds` interns each
feature string once per run, in first-seen order, and keeps a position's
distinct features as ids in listed order (:class:`IdSequences`); the
strings themselves are not kept.  A model's id-to-column array then turns
any set of sequences into a :class:`Batch` with one ``np.take``: a table of
feature columns, positions in sequence order, known columns first in listed
order and features the model lacks dropped.

Sequences are padded to the longest one and laid out time-major and
label-major: arrays are (positions, labels, sequences), so that each step of
a recursion reads and writes rows as long as the batch.  Every function here
takes and returns arrays in this one layout.

Emission scores of a whole batch are one gather of weight rows and one
ordered sum, put into the padded layout.

The forward and the backward recursion run separately (:func:`forward`,
:func:`backward`), since neither reads the other's messages: the log
partition needs only the forward pass, so training gets the objective's value
without the backward pass, and decoding gets posteriors without the
pairwise term of :func:`expected_transitions`.  Each step is one binary
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
trailing pad slots of a wider feature table add +0.0 to a sum that started
from +0.0, which is never -0.0, so x + 0.0 == x.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# Offsets of the two labels in the ids of a label-major array, as a column.
_LABEL_ROWS = np.arange(2)[:, None]
# Back-pointer of a padded position: each label points at itself, so the
# backtrace repeats a sequence's last label through its padding.
_SELF = np.array([[False], [True]])


def ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``range(start, start + size)`` of each pair, concatenated."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1] if len(ends) else 0)


class FeatureIds:
    """Feature strings interned to integer ids in first-seen order."""

    def __init__(self) -> None:
        self._ids: defaultdict[str, int] = defaultdict()
        # A missing string gets the next id.
        self._ids.default_factory = self._ids.__len__

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, sequences: Iterable[Sequence[Sequence[str]]]) -> IdSequences:
        """Each position's distinct features as ids, in listed order.  The
        sequences are read one at a time, so a generator's feature lists can
        be dropped as soon as they are interned."""
        ids, counts, lengths = array("i"), array("i"), array("i")
        for features in sequences:
            distinct = list(map(dict.fromkeys, features))
            counts.extend(map(len, distinct))
            ids.extend(self.ids(chain.from_iterable(distinct)))
            lengths.append(len(features))
        return IdSequences(self, *(np.frombuffer(a, dtype=np.int32)
                                   for a in (ids, counts, lengths)))

    def ids(self, features: Iterable[str]) -> Iterator[int]:
        """The id of each feature, interning the ones not seen yet."""
        return map(self._ids.__getitem__, features)

    def names(self) -> list[str]:
        """The interned strings, indexed by id."""
        return list(self._ids)

    def columns(self, feature_index: Mapping[str, int]) -> np.ndarray:
        """The column of ``feature_index`` of every id; ``len(feature_index)``,
        the pad column, for a feature it lacks."""
        pad = len(feature_index)
        return np.fromiter(map(feature_index.get, self._ids, repeat(pad)), dtype=np.intp,
                           count=len(self._ids))


class IdSequences:
    """Sequences of positions, each a run of distinct feature ids of
    ``vocabulary``: ``ids`` holds every position's ids in order, ``counts``
    how many each position has, ``lengths`` the positions of each sequence
    and ``starts`` the index of each sequence's first position."""

    def __init__(self, vocabulary: FeatureIds, ids: np.ndarray, counts: np.ndarray,
                 lengths: np.ndarray) -> None:
        self.vocabulary = vocabulary
        self.ids = ids
        self.counts = counts
        self.lengths = lengths
        self.starts = np.cumsum(lengths) - lengths
        self._id_starts = np.cumsum(counts) - counts

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, order: Sequence[int] | np.ndarray) -> IdSequences:
        """The sequences at ``order``, in that order."""
        order = np.asarray(order, dtype=np.intp)
        positions = ranges(self.starts[order], self.lengths[order])
        counts = self.counts[positions]
        return IdSequences(self.vocabulary, self.ids[ranges(self._id_starts[positions], counts)],
                           counts, self.lengths[order])

    def encode(self, columns: np.ndarray, n_columns: int) -> Batch:
        """The batch of these sequences under the id-to-column array
        ``columns``, whose value ``n_columns`` marks a feature to drop."""
        mapped = columns.take(self.ids)
        known = mapped < n_columns
        kept = np.concatenate(([0], np.cumsum(known)))
        per_position = kept[self._id_starts + self.counts] - kept[self._id_starts]
        slots = np.full((per_position.max(initial=0), len(self.counts)), n_columns,
                        dtype=np.intp)
        slots.T[np.arange(len(slots)) < per_position[:, None]] = mapped[known]
        return Batch(slots, self.lengths.astype(int))


class Padding:
    """The padded layout of sequences of the given lengths: at least one
    position wide, so that empty sequences and empty batches need no branch.

    ``mask`` marks the real positions, a row per sequence, and ``live`` the
    same positions as (positions, 1, sequences), to broadcast over labels.
    The id arrays address flat (positions, labels, sequences) arrays:
    ``real_ids`` the two labels of each real position, in sequence order,
    and ``last_ids`` those of each sequence's last position (its first when
    empty).
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
        self.last_ids = 2 * n_seqs * last + np.arange(n_seqs) + n_seqs * _LABEL_ROWS

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every real step from one position to the next, in sequence order:
        the ids of the two labels at the position stepped from and at the
        one stepped to, and the step's sequence."""
        n_seqs = len(self.lengths)
        seqs, positions = np.nonzero(self.mask[:, 1:])
        from_ids = 2 * n_seqs * positions + seqs + n_seqs * _LABEL_ROWS
        return from_ids, from_ids + 2 * n_seqs, seqs


class Batch(Padding):
    """Sequences compiled to a (max features per position x positions) table
    of feature columns, positions in sequence order; a position's slots past
    its last feature hold the feature count, the row :meth:`emissions` adds
    as zeros."""

    def __init__(self, slots: np.ndarray, lengths: np.ndarray) -> None:
        super().__init__(lengths)
        self.slots = slots

    def emissions(self, state: np.ndarray) -> np.ndarray:
        """Per-position label scores, zero at padded positions."""
        rows = np.concatenate([state, np.zeros((1, 2))]).take(self.slots, axis=0)
        width, _, n_seqs = self.live.shape
        scores = np.zeros((width, 2, n_seqs))
        # Slots are the outermost axis of the contiguous ``rows``, so the
        # reduction adds one slot after another, starting from 0.0 (a reduce
        # along a contiguous axis would sum pairwise): each score adds its
        # weights in listed order, to the last bit like a per-feature loop, so
        # near-tied Viterbi paths break the same way however a batch is formed.
        scores.put(self.real_ids, np.add.reduce(rows, axis=0, initial=0.0))
        return scores


def forward(
    emissions: np.ndarray, padding: Padding, transitions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The forward messages and each sequence's log partition."""
    alpha = np.empty(emissions.shape)
    alpha[0] = emissions[0]
    # ``via[i, j]``: the message of label i plus the weight from i to j.
    weights = transitions[:, :, None]
    lae, add = np.logaddexp, np.add
    for prev, cur, score in zip(alpha, alpha[1:], emissions[1:]):
        via = prev[:, None] + weights
        add(lae(via[0], via[1]), score, out=cur)
    final = alpha.take(padding.last_ids)
    return alpha, lae(final[0], final[1])


def backward(emissions: np.ndarray, padding: Padding, transitions: np.ndarray) -> np.ndarray:
    """The backward messages: zero at each sequence's last position and in
    its padding."""
    beta = np.zeros(emissions.shape)
    # ``ahead`` holds emissions + beta of the position after the one stepped to,
    # and ``via[j, i]`` that of its label j plus the weight from i to j.
    ahead = emissions[-1] + beta[-1]
    weights = transitions.T[:, :, None]
    lae, add, copyto = np.logaddexp, np.add, np.copyto
    for score, cur, live_next in zip(emissions[-2::-1], beta[-2::-1], padding.live[:0:-1]):
        via = ahead[:, None] + weights
        copyto(cur, lae(via[0], via[1]), where=live_next)
        add(score, cur, out=ahead)
    return beta


def posteriors(
    alpha: np.ndarray, beta: np.ndarray, log_z: np.ndarray, padding: Padding
) -> np.ndarray:
    """Posterior label probabilities at every position, zero where padded."""
    return np.exp(alpha + beta - log_z, out=np.zeros(beta.shape), where=padding.live)


def expected_transitions(
    emissions: np.ndarray, alpha: np.ndarray, beta: np.ndarray, log_z: np.ndarray,
    padding: Padding, transitions: np.ndarray,
) -> np.ndarray:
    """The expected count of each label transition, summed over the batch."""
    from_ids, to_ids, step_seqs = padding.steps
    # Pairwise posteriors of every real (t-1, t) step, shaped (label at t-1,
    # label at t, step) and copied step-major, so that the sum adds one step
    # after another in sequence order.
    joint = alpha.take(from_ids)[:, None, :] + transitions[:, :, None]
    joint += (emissions.take(to_ids) + beta.take(to_ids))[None, :, :]
    joint -= log_z.take(step_seqs)
    np.exp(joint, out=joint)
    return joint.reshape(4, -1).T.copy().sum(axis=0).reshape(2, 2)


def viterbi(
    emissions: np.ndarray, padding: Padding, transitions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best label path of every sequence, shaped (positions, sequences), and
    its unnormalized score; ties resolve toward O.  Padding repeats the last
    label."""
    width, _, n_seqs = emissions.shape
    delta = np.empty_like(emissions)
    delta[0] = emissions[0]
    # ``back[t, j, k]``: the best predecessor of label j at t is O.
    back = np.empty(emissions.shape, dtype=bool)
    from_i, from_o = transitions[:, :, None]
    for prev, cur, back_t, score_t in zip(delta, delta[1:], back[1:], emissions[1:]):
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
    return paths.astype(int), np.where(paths[-1], final[1], final[0])
