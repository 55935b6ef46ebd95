"""Nearest-neighbour evaluation of word embeddings against variant pairs.

For each (informal, formal) pair the formal word is ranked among all table
words by cosine similarity to the informal word's vector; accuracy at k is
the fraction of evaluable pairs whose formal word ranks within the top k.
"""

from __future__ import annotations

import math
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
        (``-0.0`` equal to ``0.0``)."""
        ids: dict[bytes, int] = {}
        return np.array(
            [ids.setdefault(row.tobytes(), len(ids)) for row in self.vectors + 0.0], dtype=np.intp
        )


def make_table(words: Sequence[str], vectors: np.ndarray) -> EmbeddingTable:
    vectors = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
    if bad.size:
        row = int(bad[0])
        if not np.isfinite(norms[row]):
            raise EmbeddingFormatError(f"non-finite vector norm for word {words[row]!r}")
        raise EmbeddingFormatError(f"zero vector for word {words[row]!r}")
    return EmbeddingTable(
        words=tuple(words),
        vectors=vectors,
        norms=norms,
        index={word: i for i, word in enumerate(words)},
    )


def _parse_components(
    path: str | Path, line_no: int, components: list[str], dimension: int | None
) -> np.ndarray:
    """One line's components, one ``float()`` each; raises naming the line."""
    if not components:
        raise EmbeddingFormatError(f"{path}: line {line_no}: no vector components")
    if dimension is not None and len(components) != dimension:
        raise EmbeddingFormatError(
            f"{path}: line {line_no}: expected {dimension} components, "
            f"got {len(components)}"
        )
    try:
        return np.array([float(c) for c in components])
    except ValueError as exc:
        raise EmbeddingFormatError(
            f"{path}: line {line_no}: non-numeric component: {exc}"
        ) from exc


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
    """Every line's component text parsed in one ``np.loadtxt`` call, or None
    unless that is sure to equal ``float()`` on each ``str.split()`` token.

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


def _parse_each_line(path: str | Path, dimension: int | None) -> np.ndarray:
    """The file's vectors read again, one ``float()`` per component, raising
    at the first line that does not parse."""
    rows: list[np.ndarray] = []
    for line_no, fields in _split_lines(path):
        if _header(line_no, fields) is None:
            components = fields[1].split() if len(fields) == 2 else []
            rows.append(_parse_components(path, line_no, components, dimension))
            dimension = len(rows[-1])
    return np.array(rows)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read whitespace-separated text embeddings.

    A first line of exactly two integer tokens is treated as a
    ``count dimension`` header, and its count must equal the number of
    vector lines.  Duplicate words keep their first vector.  One pass keeps
    each line's word and component text, which are then parsed in one NumPy
    call; a file that call cannot parse exactly as ``float()`` would is read
    again and parsed token by token, which accepts what Python accepts and
    names the line otherwise.
    """
    header: tuple[int, int] | None = None
    words: list[str] = []
    texts: list[str] = []
    for line_no, fields in _split_lines(path):
        if (found := _header(line_no, fields)) is not None:
            header = found
            continue
        words.append(fields[0])
        texts.append(fields[1] if len(fields) == 2 else "")
    dimension = None if header is None else header[1]
    vectors = _parse_bulk(texts, dimension)
    del texts
    if vectors is None:
        vectors = _parse_each_line(path, dimension)
    if header is not None and header[0] != len(words):
        raise EmbeddingFormatError(
            f"{path}: line 1: header says {header[0]} vectors, found {len(words)}"
        )
    if not words:
        raise EmbeddingFormatError(f"{path}: no vectors found")
    first: dict[str, int] = {}
    for row, word in enumerate(words):
        first.setdefault(word, row)
    if len(first) < len(words):
        words, vectors = list(first), vectors[list(first.values())]
    try:
        return make_table(words, vectors)
    except EmbeddingFormatError as exc:
        raise EmbeddingFormatError(f"{path}: {exc}") from exc


#: Queries ranked per matrix product.  The product and its norm divisor are
#: RANK_CHUNK x table rows each (10 MiB apiece at 64 x 20,000), so memory
#: stays bounded whatever the number of pairs.
RANK_CHUNK = 64


def rank_of_formal(table: EmbeddingTable, queries: np.ndarray, formals: np.ndarray) -> np.ndarray:
    """1-based cosine rank of each ``formals[i]`` row for ``queries[i]``.

    A word ranks above the formal word only when its cosine is strictly
    greater (the optimistic reading of ties).  The query's own row never
    counts, and neither does a row whose vector equals the formal's exactly:
    BLAS may round bitwise-equal rows differently by where they sit in the
    table, and such a copy must tie however the product was blocked.
    """
    vectors, norms, groups = table.vectors, table.norms, table.copy_groups
    has_copy = np.bincount(groups)[groups] > 1
    ranks = np.empty(len(queries), dtype=np.int64)
    for start in range(0, len(queries), RANK_CHUNK):
        q = queries[start:start + RANK_CHUNK]
        f = formals[start:start + RANK_CHUNK]
        at = np.arange(len(q))
        cosines = vectors[q] @ vectors.T
        cosines /= np.multiply.outer(norms[q], norms)
        better = cosines > cosines[at, f][:, None]
        better[at, q] = False
        copied = np.flatnonzero(has_copy[f])
        better[copied] &= groups != groups[f[copied]][:, None]
        ranks[start:start + len(q)] = 1 + better.sum(axis=1)
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
    evaluable pairs are ranked together, :data:`RANK_CHUNK` at a time.
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
