"""Pattern bootstrapping: grow tuple and pattern pools from seed pairs.

Starting from a handful of (informal, formal) seed tuples, each round labels
formal-side occurrences in definitions of the matching headwords, harvests
surface context patterns around them, scores patterns by how selectively
they recover pooled tuples, and promotes the best new candidate tuples the
pooled patterns extract.  Both pools only ever grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from spellvar.corpus import Corpus, VariantPair

SLOT = "<SLOT>"


def pattern_id(left: Sequence[str], right: Sequence[str]) -> str:
    """Name of the pattern whose lowercase token context around one slot is
    ``left`` and ``right``; a pattern is its name.

    A pattern matches position ``v`` of a definition when the ``len(left)``
    tokens before ``v`` equal ``left`` and the ``len(right)`` tokens after it
    equal ``right``; the token at ``v`` fills the slot.  Tokens hold no
    whitespace and no lowered token equals ``SLOT``, so the name gives back
    both sides.
    """
    return " ".join((*left, SLOT, *right))


@dataclass
class PatternStats:
    """Corpus statistics for one candidate or pooled pattern.

    ``pool_matches`` counts distinct pooled tuples the pattern extracts;
    ``candidate_count`` counts all distinct tuples it extracts.
    """

    pattern_id: str
    pool_matches: int
    candidate_count: int
    score: float


@dataclass
class TupleStats:
    """Aggregate over every site where pooled patterns extracted a candidate."""

    informal: str
    formal: str
    matching_patterns: set[str]
    occurrence_count: int
    first_entry: str
    score: float = 0.0


@dataclass
class Pools:
    """Monotonically growing pools: tuples, the seeds first, and pattern names."""

    tuple_pool: set[tuple[str, str]]
    pattern_pool: set[str]


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs for :func:`bootstrap_run`.

    ``pattern_threshold`` and ``tuple_threshold`` are fractions of the
    current iteration's best score: a candidate must beat ``threshold * max``
    to be promoted, and promotions are further capped at the ``top_n``
    limits.  ``levenshtein_tau`` gates candidates whose formal side is a
    stopword (all candidates when ``strict_constraint`` is set): they are
    kept only when the normalized edit distance is below the threshold.
    """

    seeds: tuple[tuple[str, str], ...]
    max_iterations: int = 8
    pattern_threshold: float = 0.7
    tuple_threshold: float = 0.7
    window: int = 3
    top_n_tuples: int = 10
    top_n_patterns: int = 10
    levenshtein_tau: float = 0.5
    use_tuple_count_variant: bool = False
    stopwords: frozenset[str] = frozenset()
    strict_constraint: bool = False

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("at least one seed pair is required")
        for informal, formal in self.seeds:
            if informal.casefold() == formal.casefold():
                raise ValueError(f"identity seed {informal!r}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        for name in ("pattern_threshold", "tuple_threshold"):
            value = getattr(self, name)
            if not 0.7 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0.7, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.top_n_tuples < 1 or self.top_n_patterns < 1:
            raise ValueError("promotion caps must be >= 1")
        if not 0.0 < self.levenshtein_tau <= 1.0:
            raise ValueError("levenshtein_tau must lie in (0, 1]")


@dataclass
class BootstrapResult:
    pools: Pools
    pairs: list[VariantPair]
    trace: list[dict]


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance divided by ``len(a) + len(b)``; 0.0 for two empty strings."""
    if not a and not b:
        return 0.0
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[-1] / (len(a) + len(b))


def rlogf(pool_matches: int, candidate_count: int) -> float:
    """RlogF selectivity score: (matches/candidates) * log2(matches).

    Patterns recovering fewer than two pooled tuples score 0, as do patterns
    that extract nothing at all.
    """
    if candidate_count <= 0 or pool_matches <= 1:
        return 0.0
    return (pool_matches / candidate_count) * math.log2(pool_matches)


def averaged_log_score(
    pool_match_counts: Sequence[int],
    occurrence_count: int = 1,
    use_count: bool = False,
) -> float:
    """Average log2(count + 1) over the matching patterns' pool-match counts.

    With ``use_count`` the base score is additionally weighted by
    log2(occurrence_count), so single-site candidates collapse to 0.
    """
    if not pool_match_counts:
        raise ValueError("candidate matched by no patterns")
    base = sum(math.log2(c + 1) for c in pool_match_counts) / len(pool_match_counts)
    if use_count:
        base *= math.log2(occurrence_count)
    return base


def label_occurrences(index: _ContextIndex, pools: Pools) -> np.ndarray:
    """Positions of ``index`` whose token is the formal side of a pooled
    tuple whose informal side equals the entry headword (case-insensitive)."""
    return np.flatnonzero(_find(index.pool_codes(pools.tuple_pool), index.codes)[1])


def generate_patterns(index: _ContextIndex, positions: np.ndarray,
                      window: int) -> dict[Context, str]:
    """Every (left, right) context of up to ``window`` tokens per side around
    each of ``positions``, deduplicated in first-seen order, with its name.
    No side is longer than ``index.reach``, so a wider window lists no shape
    that no position can fill."""
    window = min(window, index.reach)
    shapes = [(l, r) for l in range(window + 1) for r in range(window + 1) if l + r]
    keys = [index.slot_keys(l, r, positions).tolist() for l, r in shapes]
    patterns: dict[Context, str] = {}
    words = index.words
    for v, before, after, *slot_keys in zip(positions.tolist(), index.room[-1][positions].tolist(),
                                            index.room[1][positions].tolist(), *keys):
        left = tuple(words[i] for i in index.ids[v - min(window, before):v].tolist())
        right = tuple(words[i] for i in index.ids[v + 1:v + 1 + min(window, after)].tolist())
        for (l, r), key in zip(shapes, slot_keys):
            if l <= len(left) and r <= len(right) and (l, r, key) not in patterns:
                patterns[l, r, key] = pattern_id(left[len(left) - l:], right[:r])
    return patterns


#: A slot's context: its left and right lengths and its key
#: (:meth:`_ContextIndex.slot_keys`).
Context = tuple[int, int, int]


class _Matches(NamedTuple):
    """Every slot a matching pass found, as parallel arrays ordered by
    position: the corpus position and the number of the matched context in
    ``contexts``, the contexts the pass was asked to match with their names."""

    position: np.ndarray
    context: np.ndarray
    contexts: Mapping[Context, str]


class _ContextIndex:
    """Integer view of a corpus's lowered definitions, built once per run.

    Positions are numbered across the whole corpus and tokens are interned
    to ids.  The ``n`` tokens on one side of a position get an exact integer
    key, interned one token at a time: the (``n - 1``)-token context's key
    and the next token's id are packed into one int64 and renumbered with
    ``np.unique``.  Keys and ids stay below the token count, so no packing
    overflows for a corpus under about 3e9 tokens and entries, and no two
    contexts share a key.  Each length is built on first use, so the index
    needs no window.
    """

    def __init__(self, corpus: Corpus) -> None:
        vocab: dict[str, int] = {}
        ids = [vocab.setdefault(tok.lower, len(vocab))
               for entry in corpus for tok in entry.definition]
        lengths = np.array([len(entry.definition) for entry in corpus], dtype=np.int64)
        self.vocab = vocab
        self.words = list(vocab)
        self.informals = [entry.headword.casefold() for entry in corpus]
        self.entry_ids = [entry.entry_id for entry in corpus]
        self.headword_ids: dict[str, int] = {}
        headword = np.array([self.headword_ids.setdefault(word, len(self.headword_ids))
                             for word in self.informals], dtype=np.int64)
        self.ids = np.array(ids, dtype=np.int64)
        self.row = np.repeat(np.arange(len(lengths)), lengths)
        # One number per (headword, token) tuple, for each position's slot.
        self.codes = headword[self.row] * len(vocab) + self.ids
        offset = np.arange(len(ids)) - (np.cumsum(lengths) - lengths)[self.row]
        # Tokens a position has before it (side -1) and after it (side 1).
        self.room = {-1: offset, 1: lengths[self.row] - 1 - offset}
        # The most tokens any position has on one side.
        self.reach = int(lengths.max(initial=1)) - 1
        # Whether each position's token differs from its entry's headword.
        as_token = np.array([vocab.get(word, -1) for word in self.informals], dtype=np.int64)
        self.free = self.ids != as_token[self.row]
        # Per side, per context length n: each position's key, -1 where the
        # definition has fewer than n tokens on that side, and the number of
        # keys.
        self._levels: dict[int, list[tuple[np.ndarray, int]]] = {-1: [], 1: []}

    def _level(self, side: int, n: int) -> tuple[np.ndarray, int]:
        levels = self._levels[side]
        while len(levels) < n:
            k = len(levels) + 1
            at = np.flatnonzero(self.room[side] >= k)
            token = self.ids[at + side * k]
            keys = np.full(len(self.ids), -1, dtype=np.int64)
            if k == 1:
                keys[at] = token
                levels.append((keys, len(self.words)))
            else:
                known, keys[at] = np.unique(levels[-1][0][at] * len(self.words) + token,
                                            return_inverse=True)
                levels.append((keys, len(known)))
        return levels[n - 1]

    def slot_keys(self, left: int, right: int, at: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Key of the ``left`` tokens before and the ``right`` tokens after
        each position ``at`` (every position by default).

        Each side's key is shifted up by one before the two are combined, so
        a position lacking a side's context (key -1) has digit 0 there: a
        position with the room shares its key exactly with the positions
        that have the room and an equal context."""
        keys = 0
        for side, n in ((-1, left), (1, right)):
            if n:
                level_keys, count = self._level(side, n)
                keys = keys * (count + 1) + level_keys[at] + 1
        return keys

    def match(self, contexts: Mapping[Context, str]) -> _Matches:
        """Find every slot that is not its entry's headword and that one of
        ``contexts`` surrounds.

        Contexts are matched in groups of one (left, right) length: each
        group's keys are sorted once and every position's key is looked up
        in them with one ``np.searchsorted``."""
        shapes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for c, (left, right, key) in enumerate(contexts):
            shapes.setdefault((left, right), []).append((key, c))
        positions, matched = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for (left, right), members in shapes.items():
            members = np.array(members, dtype=np.int64)
            members = members[np.argsort(members[:, 0])]
            found, hit = _find(members[:, 0], self.slot_keys(left, right))
            at = np.flatnonzero(hit & self.free)
            positions.append(at)
            matched.append(members[found[at], 1])
        position, context = np.concatenate(positions), np.concatenate(matched)
        order = np.argsort(position, kind="stable")
        return _Matches(position[order], context[order], contexts)

    def pool_codes(self, tuple_pool: set[tuple[str, str]]) -> np.ndarray:
        """Sorted codes of the pooled tuples that a slot of the corpus can hold."""
        return _distinct(np.array(
            [self.headword_ids[i] * len(self.words) + self.vocab[f] for i, f in tuple_pool
             if i in self.headword_ids and f in self.vocab], dtype=np.int64))


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.  ``np.unique`` asked for no more than these
    imports ``numpy.ma`` on first use, about 10 ms and 1.3 MiB."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _find(table: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each value in the sorted, distinct ``table``, and whether it is there."""
    if not len(table):
        return np.zeros(len(values), dtype=np.int64), np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(table, values), len(table) - 1)
    return at, table[at] == values


def score_pattern(
    index: _ContextIndex,
    matches: _Matches,
    tuple_pool: set[tuple[str, str]],
) -> dict[str, PatternStats]:
    """RlogF statistics per pattern id over the distinct tuples it extracts,
    for every pattern that ``matches`` (from ``index.match``) covers."""
    tuples, tuple_of = np.unique(index.codes[matches.position], return_inverse=True)
    pairs = _distinct(matches.context * len(tuples) + tuple_of)
    context_of, tuple_of = np.divmod(pairs, len(tuples))
    pooled = _find(index.pool_codes(tuple_pool), tuples)[1][tuple_of]
    extracted = np.bincount(context_of, minlength=len(matches.contexts)).tolist()
    recovered = np.bincount(context_of[pooled], minlength=len(matches.contexts)).tolist()
    return {name: PatternStats(name, r, e, rlogf(r, e))
            for name, r, e in zip(matches.contexts.values(), recovered, extracted)}


def match_tuples(index: _ContextIndex, matches: _Matches, pools: Pools) -> list[TupleStats]:
    """Unpooled tuples extracted by pooled patterns, in order of first site;
    ``matches`` (from ``index.match``) covers the pooled patterns.

    ``occurrence_count`` counts distinct (entry, position) sites, however
    many patterns fire there.
    """
    ids = list(matches.contexts.values())
    is_pooled = np.array([pid in pools.pattern_pool for pid in ids], dtype=bool)
    codes = index.codes[matches.position]
    keep = is_pooled[matches.context] & ~_find(index.pool_codes(pools.tuple_pool), codes)[1]
    position, context, codes = matches.position[keep], matches.context[keep], codes[keep]
    _, first, tuple_of = np.unique(codes, return_index=True, return_inverse=True)
    # Hits are ordered by position, so each site's first hit starts a run.
    sites = np.bincount(tuple_of[np.diff(position, prepend=-1) != 0], minlength=len(first))
    at = position[first]
    stats = [TupleStats(index.informals[row], index.words[formal], set(), n, index.entry_ids[row])
             for row, formal, n in zip(index.row[at].tolist(), index.ids[at].tolist(),
                                       sites.tolist())]
    pairs = _distinct(tuple_of * len(ids) + context)
    for t, c in zip(*(a.tolist() for a in np.divmod(pairs, len(ids)))):
        stats[t].matching_patterns.add(ids[c])
    return [stats[t] for t in np.argsort(first).tolist()]


def apply_constraints(
    candidates: Iterable[TupleStats],
    stopwords: frozenset[str],
    tau: float,
    strict: bool = False,
) -> list[TupleStats]:
    """Drop candidates that look like plain definitions rather than variants.

    A candidate whose formal side is a stopword survives only when the
    normalized edit distance between its sides is below ``tau``.  With
    ``strict`` the distance test applies to every candidate.
    """
    kept: list[TupleStats] = []
    for candidate in candidates:
        gated = strict or candidate.formal in stopwords
        if gated and normalized_levenshtein(candidate.informal, candidate.formal) >= tau:
            continue
        kept.append(candidate)
    return kept


def score_tuple(
    candidate: TupleStats,
    pool_match_counts: Mapping[str, int],
    use_count: bool = False,
) -> float:
    """Score a candidate from its matching patterns' pool-match counts.

    Patterns are consumed in sorted id order so the float sum is reproducible
    regardless of how the matching set was accumulated.
    """
    counts = [pool_match_counts[pid] for pid in sorted(candidate.matching_patterns)]
    candidate.score = averaged_log_score(counts, candidate.occurrence_count, use_count)
    return candidate.score


_Scored = TypeVar("_Scored", PatternStats, TupleStats)


def _promote(scored: list[_Scored], fraction: float, cap: int,
             tie: Callable[[_Scored], object]) -> list[_Scored]:
    """The at most ``cap`` items scoring above ``fraction`` of the best
    score, best first and then by ``tie``; none unless the best is positive."""
    best = max((item.score for item in scored), default=0.0)
    if best <= 0.0:
        return []
    passing = [item for item in scored if item.score > fraction * best]
    return sorted(passing, key=lambda item: (-item.score, tie(item)))[:cap]


def bootstrap_run(corpus: Corpus, config: BootstrapConfig) -> BootstrapResult:
    """Run up to ``config.max_iterations`` bootstrap rounds.

    Returns the final pools, the promoted tuples as pairs (seeds excluded,
    promotion iteration recorded), and one trace record per executed round.
    """
    pools = Pools(tuple_pool={(i.casefold(), f.casefold()) for i, f in config.seeds},
                  pattern_pool=set())
    pairs: list[VariantPair] = []
    trace: list[dict] = []
    index = _ContextIndex(corpus)
    labelled = np.zeros(len(index.ids), dtype=bool)
    generated: dict[Context, str] = {}

    for iteration in range(1, config.max_iterations + 1):
        # The pools only grow, so the occurrences do too, and each round
        # harvests patterns around its new ones only.
        found = label_occurrences(index, pools)
        new = found[~labelled[found]]
        labelled[new] = True
        generated |= generate_patterns(index, new, config.window)
        # One matching pass over every generated pattern, the pooled ones
        # among them, serves pattern scoring, pool-match counts and tuple
        # matching: the tuple pool only changes at the end of the round.
        matches = index.match(generated)
        pattern_stats = score_pattern(index, matches, pools.tuple_pool)
        scored = [st for pid, st in pattern_stats.items() if pid not in pools.pattern_pool]
        accepted_patterns = _promote(scored, config.pattern_threshold, config.top_n_patterns,
                                     lambda st: st.pattern_id)
        pools.pattern_pool.update(st.pattern_id for st in accepted_patterns)

        pool_match_counts = {pid: pattern_stats[pid].pool_matches for pid in pools.pattern_pool}
        candidates = apply_constraints(match_tuples(index, matches, pools), config.stopwords,
                                       config.levenshtein_tau, config.strict_constraint)
        for candidate in candidates:
            score_tuple(candidate, pool_match_counts, config.use_tuple_count_variant)
        accepted_tuples = _promote(candidates, config.tuple_threshold, config.top_n_tuples,
                                   lambda c: (c.informal, c.formal))
        for c in accepted_tuples:
            pools.tuple_pool.add((c.informal, c.formal))
            pairs.append(VariantPair(
                informal=c.informal, formal=c.formal, score=c.score, method="bootstrap",
                iteration=iteration, source_entry=c.first_entry,
            ))

        record = {
            "iteration": iteration,
            "new_patterns": len(accepted_patterns),
            "new_tuples": len(accepted_tuples),
            "pattern_pool_size": len(pools.pattern_pool),
            "tuple_pool_size": len(pools.tuple_pool),
            "accepted_patterns": [{"pattern": st.pattern_id, "score": st.score}
                                  for st in accepted_patterns],
            "accepted_tuples": [{"informal": c.informal, "formal": c.formal, "score": c.score}
                                for c in accepted_tuples],
        }
        trace.append(record)
        if not accepted_patterns and not accepted_tuples:
            record["early_stop"] = True
            break

    return BootstrapResult(pools=pools, pairs=pairs, trace=trace)
