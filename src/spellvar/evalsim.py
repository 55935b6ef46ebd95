"""Nearest-neighbour evaluation of word embeddings against variant pairs.

For each (informal, formal) pair the formal word is ranked among all table
words by cosine similarity to the informal word's vector; accuracy at k is
the fraction of evaluable pairs whose formal word ranks within the top k.

Memory is bounded by the table, not by its text or the number of pairs: a
table is read once and parsed :data:`LOAD_BLOCK` lines at a time into one
float64 array, whichever parser a block needs, and every pair is ranked
against blocks of unit-norm rows, one product of at most :data:`RANK_CELLS`
cells at a time.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from spellvar.corpus import VariantPair, read_lines


class EmbeddingFormatError(ValueError):
    """Malformed embedding file."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Words, their vectors, and precomputed norms."""

    words: tuple[str, ...]
    vectors: np.ndarray
    norms: np.ndarray
    index: dict[str, int]

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.index[word]]

    @cached_property
    def copy_groups(self) -> np.ndarray:
        """Per row, an id shared by exactly the rows whose vectors are equal
        (``-0.0`` equal to ``0.0``).

        Equal vectors have equal norm bits, so only the rows whose norm
        another row shares are compared, component by component; every
        other row is a group of its own."""
        groups = np.arange(len(self.norms))
        order = np.argsort(self.norms, kind="stable")
        shared = np.flatnonzero(np.diff(self.norms[order]) == 0.0)
        # A mask, not a plain ``np.unique``, which imports ``numpy.ma``.
        tied = np.zeros(len(groups), dtype=bool)
        tied[order[shared]] = tied[order[shared + 1]] = True
        candidates = np.flatnonzero(tied)
        if candidates.size:
            _, first, inverse = np.unique(self.vectors[candidates] + 0.0, axis=0,
                                          return_index=True, return_inverse=True)
            groups[candidates] = candidates[first][inverse.ravel()]
        return groups


def _table(words: tuple[str, ...], vectors: np.ndarray, index: dict[str, int],
           where: str = "") -> EmbeddingTable:
    """``words`` with their float64 ``vectors``, ``index`` and norms.  A zero
    or non-finite vector raises naming its word, prefixed by ``where``."""
    # Block by block, so that no temporary as large as the table is made; each
    # row's norm has the same bits as in one call over the whole table.
    norms = np.empty(len(vectors))
    for start in range(0, len(vectors), LOAD_BLOCK):
        norms[start:start + LOAD_BLOCK] = np.linalg.norm(vectors[start:start + LOAD_BLOCK], axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
    if bad.size:
        row = int(bad[0])
        if not np.isfinite(norms[row]):
            raise EmbeddingFormatError(f"{where}non-finite vector norm for word {words[row]!r}")
        raise EmbeddingFormatError(f"{where}zero vector for word {words[row]!r}")
    return EmbeddingTable(words, vectors, norms, index)


def make_table(words: Sequence[str], vectors: np.ndarray) -> EmbeddingTable:
    return _table(tuple(words), np.asarray(vectors, dtype=float),
                  {word: i for i, word in enumerate(words)})


#: Lines of component text parsed per NumPy call while loading a table.
LOAD_BLOCK = 8192


def _split_lines(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """``(line number, [word] or [word, component text])`` per non-blank line."""
    for line_no, line in read_lines(path, EmbeddingFormatError):
        if fields := line.split(maxsplit=1):
            yield line_no, fields


def _header(line_no: int, fields: list[str]) -> tuple[int, int] | None:
    """``(count, dimension)`` when line 1 is exactly two integer tokens."""
    if line_no == 1 and len(fields) == 2 and len(tokens := fields[1].split()) == 1:
        try:
            return int(fields[0]), int(tokens[0])
        except ValueError:
            pass
    return None


def _parse_bulk(texts: list[str], dimension: int | None) -> np.ndarray | None:
    """A block of lines' component text parsed in one ``np.loadtxt`` call, or
    None unless that is sure to equal ``float()`` on each ``str.split()`` token.

    NumPy's reader turns a field into a float as ``float()`` does
    (``PyOS_string_to_double``) and splits ASCII text where ``str.split()``
    does.  It rejects some spellings ``float()`` accepts (``1_000``,
    non-ASCII digits), skips lines that hold no field and rejects ragged
    rows, so its result is taken only for ASCII text with no empty line that
    gives exactly one row of the expected width per line.
    """
    if not texts or "" in texts or not all(map(str.isascii, texts)):
        return None
    try:
        values = np.loadtxt(texts, comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    width = len(texts[0].split()) if dimension is None else dimension
    return values if values.shape == (len(texts), width) else None


def _parse_each_line(
    path: str | Path, block: list[tuple[int, list[str]]], dimension: int | None
) -> np.ndarray:
    """A block's vectors, one ``float()`` per component, each row parsed
    straight into one block array, raising at the first line that does not
    parse."""
    values = np.empty((0, 0))
    for row, (line_no, fields) in enumerate(block):
        components = fields[1].split() if len(fields) == 2 else []
        if not components:
            raise EmbeddingFormatError(f"{path}: line {line_no}: no vector components")
        if dimension is not None and len(components) != dimension:
            raise EmbeddingFormatError(
                f"{path}: line {line_no}: expected {dimension} components, "
                f"got {len(components)}"
            )
        if not row:
            dimension = len(components)
            values = np.empty((len(block), dimension))
        try:
            values[row] = [float(c) for c in components]
        except ValueError as exc:
            raise EmbeddingFormatError(
                f"{path}: line {line_no}: non-numeric component: {exc}"
            ) from exc
    return values


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read whitespace-separated text embeddings in one pass.

    A first line of exactly two integer tokens is treated as a
    ``count dimension`` header, and its count must equal the number of
    vector lines.  The component text of every :data:`LOAD_BLOCK` lines is
    parsed in one NumPy call or, for a block that call cannot parse exactly
    as ``float()`` would, token by token, which accepts what Python accepts
    and names the line otherwise.  Either way the block's rows go into one
    float64 array, allocated for the header's count, but for no more rows
    than the file can hold at two bytes a component, or for one block
    without a header, and doubled in place when a block does not fit.  A
    repeated word keeps its first vector: its later rows are dropped before
    they are stored, and the dict that numbers the words becomes the
    table's index.
    """
    lines = _split_lines(path)
    opening = list(itertools.islice(lines, 1))
    header = _header(*opening[0]) if opening else None
    lines = itertools.chain(opening if header is None else [], lines)
    dimension = None if header is None else header[1]
    index: dict[str, int] = {}
    vectors = np.empty((0, 0))
    count = 0
    while block := list(itertools.islice(lines, LOAD_BLOCK)):
        values = _parse_bulk([fields[1] if len(fields) == 2 else "" for _, fields in block],
                             dimension)
        if values is None:
            values = _parse_each_line(path, block, dimension)
        dimension = values.shape[1]
        count += len(block)
        # A word keeps its first row; a later row of it is parsed, then dropped.
        filled, kept = len(index), []
        for row, (_, fields) in enumerate(block):
            if fields[0] not in index:
                index[fields[0]] = len(index)
                kept.append(row)
        if len(kept) < len(values):
            values = values[kept]
        if not filled:
            rows = LOAD_BLOCK if header is None else min(
                header[0], os.path.getsize(path) // (2 * dimension))
            vectors = np.empty((max(rows, len(values)), dimension))
        elif len(index) > len(vectors):
            vectors.resize((max(2 * len(vectors), len(index)), dimension), refcheck=False)
        vectors[filled:len(index)] = values
    if header is not None and header[0] != count:
        raise EmbeddingFormatError(
            f"{path}: line 1: header says {header[0]} vectors, found {count}"
        )
    if not index:
        raise EmbeddingFormatError(f"{path}: no vectors found")
    vectors.resize((len(index), dimension), refcheck=False)
    return _table(tuple(index), vectors, index, f"{path}: ")


#: Cells of one ranking product, a block of unit rows times the query
#: vectors: 8 MiB of float64, however many pairs or table rows there are.
RANK_CELLS = 1 << 20


def rank_of_formal(table: EmbeddingTable, queries: np.ndarray, formals: np.ndarray) -> np.ndarray:
    """1-based cosine rank of each ``formals[i]`` row for ``queries[i]``.

    A word ranks above the formal word only when its cosine is strictly
    greater (the optimistic reading of ties).  The query's own row never
    counts, and neither does a row whose vector equals the formal's exactly:
    BLAS may round bitwise-equal rows differently by where they sit in the
    table, and such a copy must tie however the product was blocked.

    The table is walked in blocks of ``RANK_CELLS // (queries + dimension)``
    rows (at least one, at most 65,535), each divided by its norms and
    multiplied once against the query vectors, so a product and its block
    hold at most :data:`RANK_CELLS` cells together; past ``RANK_CELLS``
    queries, the queries are taken in chunks as well.  A query's threshold
    is the row-wise dot of its vector with the formal's unit row, and the
    cells above it are counted.  Which cells count is the same whatever the
    block and chunk sizes, except where a row's cosine lies within a few
    ulps of the formal's: a product of another shape may round such a cell
    to the other side of the threshold, moving the rank by one per such row.
    """
    vectors, norms, groups = table.vectors, table.norms, table.copy_groups
    # Queries whose formal has an exact copy come first, so that their cells
    # are the leading columns of each product.
    copied = np.bincount(groups)[groups[formals]] > 1
    order = np.argsort(~copied, kind="stable")
    queries, formals = queries[order], formals[order]
    n_copied = int(copied.sum())
    # A block's counts are summed as uint16, which is faster than a wider sum.
    rows = min(max(1, RANK_CELLS // (len(queries) + table.dimension)), 0xFFFF)
    chunk = max(1, RANK_CELLS // rows - table.dimension)
    above = np.zeros(len(queries), dtype=np.int64)
    for start in range(0, len(queries), chunk):
        q, f = queries[start:start + chunk], formals[start:start + chunk]
        at = np.arange(len(q))
        query_vectors = vectors[q]
        thresholds = np.einsum("ij,ij->i", query_vectors, vectors[f] / norms[f, None])
        copy_of = groups[f[:max(0, n_copied - start)]]
        for low in range(0, len(vectors), rows):
            high = low + rows
            cells = (vectors[low:high] / norms[low:high, None]) @ query_vectors.T
            for own in (q, f):
                hit = (own >= low) & (own < high)
                cells[own[hit] - low, at[hit]] = -np.inf
            if len(copy_of):
                np.copyto(cells[:, :len(copy_of)], -np.inf,
                          where=groups[low:high, None] == copy_of)
            above[start:start + chunk] += np.add.reduce(
                (cells > thresholds).view(np.uint8), axis=0, dtype=np.uint16)
            del cells  # before the next product is made
    ranks = np.empty_like(above)
    ranks[order] = above + 1
    return ranks


#: Why a pair was left out of the accuracy denominator, in report order.
MISS_REASONS = ("formal-not-in-vocab", "informal-not-in-table", "formal-not-in-table")


@dataclass
class PairOutcome:
    informal: str
    formal: str
    rank: int | None
    miss: str | None = None


@dataclass
class EvalReport:
    matched_pairs: int
    hits: dict[int, int]
    accuracy: dict[int, float]
    per_pair: list[PairOutcome]

    def miss_counts(self) -> dict[str, int]:
        """Pairs left out, per reason of :data:`MISS_REASONS`, zeros included."""
        counts = dict.fromkeys(MISS_REASONS, 0)
        for outcome in self.per_pair:
            if outcome.miss is not None:
                counts[outcome.miss] += 1
        return counts


def evaluate_pairs(
    table: EmbeddingTable,
    pairs: Iterable[VariantPair],
    formal_vocab: frozenset[str],
    ks: Sequence[int] = (1, 20, 50, 100),
) -> EvalReport:
    """Rank every evaluable pair and report accuracy at each cutoff.

    Both pair sides are lowercased before lookup.  Pairs whose formal side is
    outside ``formal_vocab`` or whose words are missing from the table are
    recorded as misses and excluded from the accuracy denominator.  The
    evaluable pairs are ranked together, in one :func:`rank_of_formal` call.
    """
    ks = sorted(set(ks))
    if any(k < 1 for k in ks):
        raise ValueError("cutoffs must be >= 1")
    outcomes: list[PairOutcome] = []
    scored: list[PairOutcome] = []
    rows: list[tuple[int, int]] = []
    for pair in pairs:
        informal = pair.informal.casefold()
        formal = pair.formal.casefold()
        outcome = PairOutcome(informal, formal, None)
        if formal not in formal_vocab:
            outcome.miss = "formal-not-in-vocab"
        elif informal not in table:
            outcome.miss = "informal-not-in-table"
        elif formal not in table:
            outcome.miss = "formal-not-in-table"
        else:
            rows.append((table.index[informal], table.index[formal]))
            scored.append(outcome)
        outcomes.append(outcome)
    if not scored:
        raise ValueError("no evaluable pairs")
    queries, targets = np.array(rows).T
    hits = {k: 0 for k in ks}
    for outcome, rank in zip(scored, rank_of_formal(table, queries, targets).tolist()):
        outcome.rank = rank
        for k in ks:
            if rank <= k:
                hits[k] += 1
    matched = len(scored)
    accuracy = {k: hits[k] / matched for k in ks}
    return EvalReport(matched_pairs=matched, hits=hits, accuracy=accuracy, per_pair=outcomes)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; rejects mismatched, short, non-finite or
    constant input."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    if not all(map(math.isfinite, [*xs, *ys])):
        raise ValueError("non-finite input")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = sum(d * d for d in dx)
    var_y = sum(d * d for d in dy)
    if not (math.isfinite(var_x) and math.isfinite(var_y)):
        raise ValueError("input too large to correlate")
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("zero variance input")
    # Two square roots, not the root of the product: the product of two tiny
    # variances underflows to 0 or loses the digits that keep |r| <= 1.
    r = sum(a * b for a, b in zip(dx, dy)) / (math.sqrt(var_x) * math.sqrt(var_y))
    return max(-1.0, min(1.0, r))
