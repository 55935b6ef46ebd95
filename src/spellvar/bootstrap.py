"""Pattern bootstrapping: grow tuple and pattern pools from seed pairs.

Starting from a handful of (informal, formal) seed tuples, each round labels
formal-side occurrences in definitions of the matching headwords, harvests
surface context patterns around them, scores patterns by how selectively
they recover pooled tuples, and promotes the best new candidate tuples the
pooled patterns extract.  Both pools only ever grow.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from spellvar.corpus import Corpus, VariantPair

SLOT = "<SLOT>"


@dataclass(frozen=True)
class SurfacePattern:
    """Lowercase token context around a single slot position.

    A pattern matches position ``v`` of a definition when the ``len(left)``
    tokens before ``v`` equal ``left`` and the ``len(right)`` tokens after it
    equal ``right``; the token at ``v`` fills the slot.
    """

    left: tuple[str, ...]
    right: tuple[str, ...]
    pattern_id: str = field(init=False)

    def __post_init__(self) -> None:
        if not self.left and not self.right:
            raise ValueError("pattern needs context on at least one side")
        object.__setattr__(self, "pattern_id", " ".join((*self.left, SLOT, *self.right)))

    def matches_at(self, lowers: Sequence[str], v: int) -> bool:
        l, r = len(self.left), len(self.right)
        if v - l < 0 or v + r > len(lowers) - 1:
            return False
        return (
            tuple(lowers[v - l:v]) == self.left
            and tuple(lowers[v + 1:v + 1 + r]) == self.right
        )


@dataclass
class PatternStats:
    """Corpus statistics for one candidate or pooled pattern.

    ``pool_matches`` counts distinct pooled tuples the pattern extracts;
    ``candidate_count`` counts all distinct tuples it extracts.
    """

    pattern: SurfacePattern
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
    """Monotonically growing tuple and pattern pools; seeds are permanent."""

    tuple_pool: set[tuple[str, str]]
    pattern_pool: dict[str, SurfacePattern]
    seeds: frozenset[tuple[str, str]]


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


def label_occurrences(corpus: Corpus, pools: Pools) -> list[tuple[str, int]]:
    """Find definition positions whose token is the formal side of a pooled
    tuple whose informal side equals the entry headword (case-insensitive)."""
    occurrences: list[tuple[str, int]] = []
    for entry in corpus:
        informal = entry.headword.casefold()
        for v, tok in enumerate(entry.definition):
            if (informal, tok.lower) in pools.tuple_pool:
                occurrences.append((entry.entry_id, v))
    return occurrences


def generate_patterns(
    corpus: Corpus,
    occurrences: Iterable[tuple[str, int]],
    window: int,
) -> list[SurfacePattern]:
    """Emit every (left, right) context of up to ``window`` tokens per side
    around each occurrence, deduplicated in first-seen order."""
    by_id = {entry.entry_id: entry for entry in corpus}
    patterns: dict[str, SurfacePattern] = {}
    for entry_id, v in occurrences:
        entry = by_id[entry_id]
        lowers = tuple(tok.lower for tok in entry.definition)
        max_left = min(window, v)
        max_right = min(window, len(lowers) - 1 - v)
        for l in range(max_left + 1):
            for r in range(max_right + 1):
                if l + r == 0:
                    continue
                pattern = SurfacePattern(left=lowers[v - l:v], right=lowers[v + 1:v + 1 + r])
                patterns.setdefault(pattern.pattern_id, pattern)
    return list(patterns.values())


Row = tuple[str, str, tuple[str, ...]]
Site = tuple[str, str, str, int, list[str]]


def _lowered_rows(corpus: Corpus) -> list[Row]:
    """(entry_id, case-folded headword, lowered tokens) per entry, in corpus order."""
    return [(e.entry_id, e.headword.casefold(), tuple(t.lower for t in e.definition))
            for e in corpus]


def _sweep(rows: Iterable[Row], patterns: Iterable[tuple[str, SurfacePattern]]) -> Iterator[Site]:
    """Yield (informal, formal, entry_id, position, matched ids) for each
    non-identity slot that an (id, pattern) pair matches, in corpus order.
    Looking up each slot's (left, right) contexts in one dict makes a pass
    cost O(tokens x window^2), whatever the number of patterns."""
    wanted: dict[tuple[tuple[str, ...], tuple[str, ...]], list[str]] = {}
    for pid, pattern in patterns:
        wanted.setdefault((pattern.left, pattern.right), []).append(pid)
    max_left = max((len(left) for left, _ in wanted), default=0)
    max_right = max((len(right) for _, right in wanted), default=0)
    for entry_id, informal, lowers in rows:
        for v, formal in enumerate(lowers):
            if formal == informal:
                continue
            lefts = [lowers[v - l:v] for l in range(min(max_left, v) + 1)]
            rights = [lowers[v + 1:v + 1 + r] for r in range(min(max_right + 1, len(lowers) - v))]
            hits = [pid for left in lefts for right in rights
                    for pid in wanted.get((left, right), ())]
            if hits:
                yield informal, formal, entry_id, v, hits


def _pattern_stats(
    sites: Iterable[Site], patterns: Iterable[tuple[str, SurfacePattern]], tuple_pool: set
) -> dict[str, PatternStats]:
    """RlogF statistics per pattern id over the distinct tuples it extracts."""
    extracted: defaultdict[str, set[tuple[str, str]]] = defaultdict(set)
    for informal, formal, _, _, hits in sites:
        for pid in hits:
            extracted[pid].add((informal, formal))
    stats: dict[str, PatternStats] = {}
    for pid, pattern in patterns:
        matches, found = len(extracted[pid] & tuple_pool), len(extracted[pid])
        stats[pid] = PatternStats(pattern, matches, found, rlogf(matches, found))
    return stats


def _candidates(sites: Iterable[Site], pools: Pools) -> list[TupleStats]:
    """Unpooled tuples extracted by pooled patterns, in order of first site."""
    stats: dict[tuple[str, str], TupleStats] = {}
    for informal, formal, entry_id, _, hits in sites:
        pooled = [pid for pid in hits if pid in pools.pattern_pool]
        if not pooled or (informal, formal) in pools.tuple_pool:
            continue
        st = stats.setdefault((informal, formal), TupleStats(informal, formal, set(), 0, entry_id))
        st.matching_patterns.update(pooled)
        st.occurrence_count += 1
    return list(stats.values())


def score_pattern(pattern: SurfacePattern, pools: Pools, corpus: Corpus) -> PatternStats:
    """Score one pattern with RlogF over the distinct tuples it extracts."""
    wanted = [(pattern.pattern_id, pattern)]
    sites = _sweep(_lowered_rows(corpus), wanted)
    return _pattern_stats(sites, wanted, pools.tuple_pool)[pattern.pattern_id]


def match_tuples(pools: Pools, corpus: Corpus) -> list[TupleStats]:
    """Collect candidate tuples extracted by pooled patterns.

    Tuples already pooled are excluded.  ``occurrence_count`` counts distinct
    (entry, position) sites, however many patterns fire there.
    """
    if not pools.pattern_pool:
        raise ValueError("empty pool")
    return _candidates(_sweep(_lowered_rows(corpus), pools.pattern_pool.items()), pools)


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


def bootstrap_run(corpus: Corpus, config: BootstrapConfig) -> BootstrapResult:
    """Run up to ``config.max_iterations`` bootstrap rounds.

    Returns the final pools, the promoted tuples as pairs (seeds excluded,
    promotion iteration recorded), and one trace record per executed round.
    """
    seeds = frozenset((i.casefold(), f.casefold()) for i, f in config.seeds)
    pools = Pools(tuple_pool=set(seeds), pattern_pool={}, seeds=seeds)
    pairs: list[VariantPair] = []
    trace: list[dict] = []
    rows = _lowered_rows(corpus)

    for iteration in range(1, config.max_iterations + 1):
        occurrences = label_occurrences(corpus, pools)
        fresh = [p for p in generate_patterns(corpus, occurrences, config.window)
                 if p.pattern_id not in pools.pattern_pool]
        # One sweep serves pattern scoring, pool-match counts and tuple
        # matching: the tuple pool only changes at the end of the round.
        wanted = [*((p.pattern_id, p) for p in fresh), *pools.pattern_pool.items()]
        sites = list(_sweep(rows, wanted))
        pattern_stats = _pattern_stats(sites, wanted, pools.tuple_pool)
        scored = [pattern_stats[p.pattern_id] for p in fresh]
        max_pattern = max((st.score for st in scored), default=0.0)
        accepted_patterns: list[PatternStats] = []
        if max_pattern > 0.0:
            passing = [st for st in scored if st.score > config.pattern_threshold * max_pattern]
            passing.sort(key=lambda st: (-st.score, st.pattern.pattern_id))
            accepted_patterns = passing[: config.top_n_patterns]
            for st in accepted_patterns:
                pools.pattern_pool[st.pattern.pattern_id] = st.pattern

        accepted_tuples: list[TupleStats] = []
        if pools.pattern_pool:
            pool_match_counts = {pid: pattern_stats[pid].pool_matches for pid in pools.pattern_pool}
            candidates = apply_constraints(_candidates(sites, pools), config.stopwords,
                                           config.levenshtein_tau, config.strict_constraint)
            for candidate in candidates:
                score_tuple(candidate, pool_match_counts, config.use_tuple_count_variant)
            max_tuple = max((c.score for c in candidates), default=0.0)
            if max_tuple > 0.0:
                passing_t = [c for c in candidates if c.score > config.tuple_threshold * max_tuple]
                passing_t.sort(key=lambda c: (-c.score, c.informal, c.formal))
                accepted_tuples = passing_t[: config.top_n_tuples]
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
            "accepted_patterns": [{"pattern": st.pattern.pattern_id, "score": st.score}
                                  for st in accepted_patterns],
            "accepted_tuples": [{"informal": c.informal, "formal": c.formal, "score": c.score}
                                for c in accepted_tuples],
        }
        trace.append(record)
        if not accepted_patterns and not accepted_tuples:
            record["early_stop"] = True
            break

    return BootstrapResult(pools=pools, pairs=pairs, trace=trace)
