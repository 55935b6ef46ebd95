"""Pattern bootstrapping: grow tuple and pattern pools from seed pairs.

Starting from a handful of (informal, formal) seed tuples, each round labels
formal-side occurrences in definitions of the matching headwords, harvests
surface context patterns around them, scores patterns by how selectively
they recover pooled tuples, and promotes the best new candidate tuples the
pooled patterns extract.  Both pools only ever grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

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
    formals: dict[str, set[str]] = {}
    for informal, formal in pools.tuple_pool:
        formals.setdefault(informal, set()).add(formal)
    occurrences: list[tuple[str, int]] = []
    for entry in corpus:
        wanted = formals.get(entry.headword.casefold())
        if wanted:
            occurrences.extend((entry.entry_id, v) for v, tok in enumerate(entry.definition)
                               if tok.lower in wanted)
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


Context = tuple[tuple[str, ...], tuple[str, ...]]
Level = tuple[np.ndarray, np.ndarray | None, int]


class _Matches(NamedTuple):
    """Every slot a matching pass found, as parallel arrays ordered by
    position: the corpus position and the number of the matched (left,
    right) context in ``contexts``."""

    position: np.ndarray
    context: np.ndarray
    contexts: dict[Context, int]


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
        self.headword = np.array([self.headword_ids.setdefault(word, len(self.headword_ids))
                                  for word in self.informals], dtype=np.int64)
        self.ids = np.array(ids, dtype=np.int64)
        self.row = np.repeat(np.arange(len(lengths)), lengths)
        offset = np.arange(len(ids)) - (np.cumsum(lengths) - lengths)[self.row]
        # Tokens a position has before it (side -1) and after it (side 1).
        self._room = {-1: offset, 1: lengths[self.row] - 1 - offset}
        # Whether each position's token differs from its entry's headword.
        as_token = np.array([vocab.get(word, -1) for word in self.informals], dtype=np.int64)
        self.free = self.ids != as_token[self.row]
        # Per side, per context length n: each position's key, -1 where the
        # definition has fewer than n tokens on that side; the sorted packed
        # (shorter key, token id) pairs the keys number, None for n = 1; and
        # the number of keys.
        self._levels: dict[int, list[Level]] = {-1: [], 1: []}
        self._keys: dict[int, dict[tuple[str, ...], int]] = {-1: {(): -1}, 1: {(): -1}}

    def _level(self, side: int, n: int) -> Level:
        levels = self._levels[side]
        while len(levels) < n:
            k = len(levels) + 1
            at = np.flatnonzero(self._room[side] >= k)
            token = self.ids[at + side * k]
            keys = np.full(len(self.ids), -1, dtype=np.int64)
            if k == 1:
                keys[at] = token
                levels.append((keys, None, len(self.words)))
            else:
                known, keys[at] = np.unique(levels[-1][0][at] * len(self.words) + token,
                                            return_inverse=True)
                levels.append((keys, known, len(known)))
        return levels[n - 1]

    def _context_keys(self, side: int, contexts: Sequence[tuple[str, ...]]) -> np.ndarray:
        """Key of each context on ``side`` of a slot, in reading order; -1 for
        an empty context and where no position of the corpus has it.  Keys
        are kept: the rounds of a run look up mostly the same contexts."""
        kept = self._keys[side]
        new = [c for c in dict.fromkeys(contexts) if c not in kept]
        if new:
            width = max(map(len, new))
            pad = [-1] * width
            vocab = self.vocab
            words = np.array([[vocab.get(w, -1) for w in (c[::-1] if side < 0 else c)]
                              + pad[len(c):] for c in new], dtype=np.int64)
            lengths = np.array([len(c) for c in new])
            keys = words[:, 0].copy()
            for n in range(2, width + 1):
                _, known, _ = self._level(side, n)
                growing = np.flatnonzero((lengths >= n) & (keys >= 0))
                word = words[growing, n - 1]
                found, hit = _find(known, keys[growing] * len(self.words) + word)
                keys[growing] = np.where(hit & (word >= 0), found, -1)
            kept.update(zip(new, keys.tolist()))
        return np.array([kept[c] for c in contexts], dtype=np.int64)

    def match(self, patterns: Iterable[SurfacePattern]) -> _Matches:
        """Find every slot that is not its entry's headword and that one of
        ``patterns`` matches.

        Patterns are matched in groups of one (left, right) length: each
        group's keys are sorted once and every position's key is looked up
        in them with one ``np.searchsorted``."""
        contexts: dict[Context, int] = {}
        for pattern in patterns:
            contexts.setdefault((pattern.left, pattern.right), len(contexts))
        keys = {-1: self._context_keys(-1, [left for left, _ in contexts]),
                1: self._context_keys(1, [right for _, right in contexts])}
        positions, matched = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        shapes: dict[tuple[int, int], list[int]] = {}
        for (left, right), c in contexts.items():
            shapes.setdefault((len(left), len(right)), []).append(c)
        for shape, members in shapes.items():
            members = np.array(members)
            usable = np.ones(len(members), dtype=bool)
            slot_keys = wanted_keys = 0
            sides = [(side, n) for side, n in zip((-1, 1), shape) if n]
            for side, n in sides:
                level_keys, _, count = self._level(side, n)
                usable &= keys[side][members] >= 0
                slot_keys = slot_keys * count + level_keys
                wanted_keys = wanted_keys * count + keys[side][members]
            order = np.argsort(wanted_keys[usable])
            if not len(order):
                continue
            wanted_keys, members = wanted_keys[usable][order], members[usable][order]
            found, hit = _find(wanted_keys, slot_keys)
            at = np.flatnonzero(hit)
            # A slot lacking the context on one side (key -1) can still
            # combine into a wanted key.
            ok = self.free[at]
            for side, n in sides:
                ok &= self._level(side, n)[0][at] >= 0
            positions.append(at[ok])
            matched.append(members[found[at[ok]]])
        position, context = np.concatenate(positions), np.concatenate(matched)
        order = np.argsort(position, kind="stable")
        return _Matches(position[order], context[order], contexts)

    def tuple_codes(self, position: np.ndarray) -> np.ndarray:
        """One number per (informal, formal) tuple of the slots at ``position``."""
        return self.headword[self.row[position]] * len(self.words) + self.ids[position]

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
    patterns: Iterable[tuple[str, SurfacePattern]],
    tuple_pool: set[tuple[str, str]],
) -> dict[str, PatternStats]:
    """RlogF statistics per pattern id over the distinct tuples it extracts,
    for ``patterns`` that ``matches`` (from ``index.match``) covers."""
    tuples, tuple_of = np.unique(index.tuple_codes(matches.position), return_inverse=True)
    pairs = _distinct(matches.context * len(tuples) + tuple_of)
    context_of, tuple_of = np.divmod(pairs, len(tuples))
    pooled = _find(index.pool_codes(tuple_pool), tuples)[1][tuple_of]
    extracted = np.bincount(context_of, minlength=len(matches.contexts)).tolist()
    recovered = np.bincount(context_of[pooled], minlength=len(matches.contexts)).tolist()
    stats: dict[str, PatternStats] = {}
    for pid, pattern in patterns:
        c = matches.contexts[(pattern.left, pattern.right)]
        stats[pid] = PatternStats(pattern, recovered[c], extracted[c],
                                  rlogf(recovered[c], extracted[c]))
    return stats


def match_tuples(index: _ContextIndex, matches: _Matches, pools: Pools) -> list[TupleStats]:
    """Unpooled tuples extracted by pooled patterns, in order of first site;
    ``matches`` (from ``index.match``) covers the pooled patterns.

    ``occurrence_count`` counts distinct (entry, position) sites, however
    many patterns fire there.
    """
    pooled: dict[int, list[str]] = {}
    for pid, pattern in pools.pattern_pool.items():
        if (c := matches.contexts.get((pattern.left, pattern.right))) is not None:
            pooled.setdefault(c, []).append(pid)
    is_pooled = np.zeros(len(matches.contexts), dtype=bool)
    is_pooled[list(pooled)] = True
    codes = index.tuple_codes(matches.position)
    keep = is_pooled[matches.context] & ~_find(index.pool_codes(pools.tuple_pool), codes)[1]
    position, context, codes = matches.position[keep], matches.context[keep], codes[keep]
    _, first, tuple_of = np.unique(codes, return_index=True, return_inverse=True)
    # Hits are ordered by position, so each site's first hit starts a run.
    sites = np.bincount(tuple_of[np.diff(position, prepend=-1) != 0], minlength=len(first))
    at = position[first]
    stats = [TupleStats(index.informals[row], index.words[formal], set(), n, index.entry_ids[row])
             for row, formal, n in zip(index.row[at].tolist(), index.ids[at].tolist(),
                                       sites.tolist())]
    pairs = _distinct(tuple_of * len(matches.contexts) + context)
    for t, c in zip(*(a.tolist() for a in np.divmod(pairs, len(matches.contexts)))):
        stats[t].matching_patterns.update(pooled[c])
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


def bootstrap_run(corpus: Corpus, config: BootstrapConfig) -> BootstrapResult:
    """Run up to ``config.max_iterations`` bootstrap rounds.

    Returns the final pools, the promoted tuples as pairs (seeds excluded,
    promotion iteration recorded), and one trace record per executed round.
    """
    seeds = frozenset((i.casefold(), f.casefold()) for i, f in config.seeds)
    pools = Pools(tuple_pool=set(seeds), pattern_pool={}, seeds=seeds)
    pairs: list[VariantPair] = []
    trace: list[dict] = []
    index = _ContextIndex(corpus)
    labelled: set[tuple[str, int]] = set()
    generated: dict[str, SurfacePattern] = {}

    for iteration in range(1, config.max_iterations + 1):
        # The pools only grow, so the occurrences do too, and each round
        # harvests patterns around its new ones only.  The order of ``fresh``
        # does not reach the results: promotion sorts by score, then id.
        new = [o for o in label_occurrences(corpus, pools) if o not in labelled]
        labelled.update(new)
        for pattern in generate_patterns(corpus, new, config.window):
            generated.setdefault(pattern.pattern_id, pattern)
        fresh = [p for pid, p in generated.items() if pid not in pools.pattern_pool]
        # One matching pass serves pattern scoring, pool-match counts and
        # tuple matching: the tuple pool only changes at the end of the round.
        wanted = [*((p.pattern_id, p) for p in fresh), *pools.pattern_pool.items()]
        matches = index.match(p for _, p in wanted)
        pattern_stats = score_pattern(index, matches, wanted, pools.tuple_pool)
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
            candidates = apply_constraints(match_tuples(index, matches, pools), config.stopwords,
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
