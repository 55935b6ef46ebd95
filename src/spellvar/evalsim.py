"""Nearest-neighbour evaluation of word embeddings against variant pairs.

For each (informal, formal) pair the formal word is ranked among all table
words by cosine similarity to the informal word's vector; accuracy at k is
the fraction of evaluable pairs whose formal word ranks within the top k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from spellvar.corpus import VariantPair


class EmbeddingFormatError(ValueError):
    """Malformed embedding file."""


class MissingWordError(KeyError):
    """A word required for ranking is not in the table."""

    def __init__(self, word: str, role: str) -> None:
        super().__init__(word)
        self.word = word
        self.role = role

    def __str__(self) -> str:
        return f"{self.role} word {self.word!r} not in table"


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


def make_table(words: Sequence[str], vectors: np.ndarray) -> EmbeddingTable:
    vectors = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=1)
    for word, norm, finite in zip(words, norms, np.isfinite(norms)):
        if not finite:
            raise EmbeddingFormatError(f"non-finite vector norm for word {word!r}")
        if norm == 0.0:
            raise EmbeddingFormatError(f"zero vector for word {word!r}")
    return EmbeddingTable(
        words=tuple(words),
        vectors=vectors,
        norms=norms,
        index={word: i for i, word in enumerate(words)},
    )


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read whitespace-separated text embeddings.

    A first line of exactly two integer tokens is treated as a
    ``count dimension`` header.  Duplicate words keep their first vector.
    """
    words: list[str] = []
    rows: list[list[float]] = []
    seen: set[str] = set()
    dimension: int | None = None
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if line_no == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    dimension = int(parts[1])
                    continue
            word, components = parts[0], parts[1:]
            if not components:
                raise EmbeddingFormatError(f"{path}: line {line_no}: no vector components")
            if dimension is None:
                dimension = len(components)
            elif len(components) != dimension:
                raise EmbeddingFormatError(
                    f"{path}: line {line_no}: expected {dimension} components, "
                    f"got {len(components)}"
                )
            try:
                vector = [float(c) for c in components]
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"{path}: line {line_no}: non-numeric component: {exc}"
                ) from exc
            if word in seen:
                continue
            seen.add(word)
            words.append(word)
            rows.append(vector)
    if not words:
        raise EmbeddingFormatError(f"{path}: no vectors found")
    try:
        return make_table(words, np.array(rows))
    except EmbeddingFormatError as exc:
        raise EmbeddingFormatError(f"{path}: {exc}") from exc


def rank_of_formal(table: EmbeddingTable, informal: str, formal: str) -> int:
    """1-based cosine rank of ``formal`` among all words except ``informal``.

    Words tying with the formal word do not push it down (the optimistic
    reading).  Raises :class:`MissingWordError` when either word is absent.
    """
    if informal not in table:
        raise MissingWordError(informal, "informal")
    if formal not in table:
        raise MissingWordError(formal, "formal")
    query_row = table.index[informal]
    query = table.vectors[query_row]
    cosines = (table.vectors @ query) / (table.norms * table.norms[query_row])
    formal_cosine = cosines[table.index[formal]]
    better = cosines > formal_cosine
    better[query_row] = False
    return 1 + int(better.sum())


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


def evaluate_pairs(
    table: EmbeddingTable,
    pairs: Iterable[VariantPair],
    formal_vocab: frozenset[str],
    ks: Sequence[int] = (1, 20, 50, 100),
) -> EvalReport:
    """Rank every evaluable pair and report accuracy at each cutoff.

    Both pair sides are lowercased before lookup.  Pairs whose formal side is
    outside ``formal_vocab`` or whose words are missing from the table are
    recorded as misses and excluded from the accuracy denominator.
    """
    ks = sorted(set(ks))
    if any(k < 1 for k in ks):
        raise ValueError("cutoffs must be >= 1")
    outcomes: list[PairOutcome] = []
    hits = {k: 0 for k in ks}
    matched = 0
    for pair in pairs:
        informal = pair.informal.casefold()
        formal = pair.formal.casefold()
        if formal not in formal_vocab:
            outcomes.append(PairOutcome(informal, formal, None, "formal-not-in-vocab"))
            continue
        try:
            rank = rank_of_formal(table, informal, formal)
        except MissingWordError as exc:
            outcomes.append(PairOutcome(informal, formal, None, f"{exc.role}-not-in-table"))
            continue
        matched += 1
        outcomes.append(PairOutcome(informal, formal, rank))
        for k in ks:
            if rank <= k:
                hits[k] += 1
    if matched == 0:
        raise ValueError("no evaluable pairs")
    accuracy = {k: hits[k] / matched for k in ks}
    return EvalReport(matched_pairs=matched, hits=hits, accuracy=accuracy, per_pair=outcomes)


def load_vocab(path: str | Path) -> frozenset[str]:
    """Read one word per line, case-folded; blank lines are skipped."""
    words: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            word = line.strip()
            if word:
                words.add(word.casefold())
    return frozenset(words)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; rejects mismatched, short, or constant input."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = sum(d * d for d in dx)
    var_y = sum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("zero variance input")
    # Two square roots, not the root of the product: the product of two tiny
    # variances underflows to 0 or loses the digits that keep |r| <= 1.
    r = sum(a * b for a, b in zip(dx, dy)) / (math.sqrt(var_x) * math.sqrt(var_y))
    return max(-1.0, min(1.0, r))
