"""Tests for pattern bootstrapping: scoring, matching, constraints, the loop."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spellvar.bootstrap import (
    BootstrapConfig,
    PatternStats,
    Pools,
    SurfacePattern,
    TupleStats,
    _ContextIndex,
    apply_constraints,
    averaged_log_score,
    bootstrap_run,
    generate_patterns,
    label_occurrences,
    match_tuples,
    normalized_levenshtein,
    rlogf,
    score_pattern,
    score_tuple,
)
from spellvar.corpus import VariantPair
from spellvar.synthetic import BOOTSTRAP_TEMPLATES, bootstrap_fixture

from conftest import make_corpus


def levenshtein_oracle(a: str, b: str) -> int:
    """Full-matrix unit-cost edit distance, kept independent of the
    implementation under test."""
    m, n = len(a), len(b)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dist[i][0] = i
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return dist[m][n]


def norm_oracle(a: str, b: str) -> float:
    if not a and not b:
        return 0.0
    return levenshtein_oracle(a, b) / (len(a) + len(b))


short_abc = st.text(alphabet="abc", max_size=10)


class TestNormalizedLevenshtein:
    @pytest.mark.parametrize("a,b,expected", [
        ("ur", "your", 2 / 6),
        ("m8", "mate", 3 / 6),
        ("mate", "mate", 0.0),
        ("", "", 0.0),
        ("", "abc", 1.0),
        ("sum1", "someone", 5 / 11),
    ])
    def test_pinned_values(self, a, b, expected):
        assert normalized_levenshtein(a, b) == pytest.approx(expected, abs=1e-12)

    def test_exhaustive_short_strings(self):
        strings = [
            "".join(chars)
            for length in range(5)
            for chars in itertools.product("abc", repeat=length)
        ]
        for a in strings:
            for b in strings:
                assert normalized_levenshtein(a, b) == norm_oracle(a, b)

    @given(short_abc, short_abc)
    def test_matches_oracle(self, a, b):
        assert normalized_levenshtein(a, b) == norm_oracle(a, b)

    @given(short_abc, short_abc)
    def test_symmetric(self, a, b):
        assert normalized_levenshtein(a, b) == normalized_levenshtein(b, a)

    @given(short_abc, short_abc)
    def test_zero_iff_equal(self, a, b):
        assert (normalized_levenshtein(a, b) == 0.0) == (a == b)

    @given(short_abc, short_abc)
    def test_bounded(self, a, b):
        assert 0.0 <= normalized_levenshtein(a, b) <= 1.0


class TestRlogf:
    def test_four_of_five(self):
        assert rlogf(4, 5) == pytest.approx(1.6, abs=1e-12)

    def test_single_match_scores_zero(self):
        assert rlogf(1, 3) == 0.0

    def test_no_matches_scores_zero(self):
        assert rlogf(0, 3) == 0.0

    def test_no_extractions_scores_zero(self):
        assert rlogf(5, 0) == 0.0

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
    def test_bounded_by_log_of_matches(self, extra, matches):
        candidates = matches + extra
        score = rlogf(matches, candidates)
        assert score >= 0.0
        if matches >= 2 and candidates >= matches:
            assert score <= math.log2(matches)


class TestAveragedLogScore:
    def test_two_patterns(self):
        assert averaged_log_score([3, 1]) == pytest.approx(1.5, abs=1e-12)

    def test_count_variant_multiplies(self):
        assert averaged_log_score([3, 1], occurrence_count=4, use_count=True) == pytest.approx(3.0)

    def test_count_variant_zeroes_single_site(self):
        assert averaged_log_score([3, 1], occurrence_count=1, use_count=True) == 0.0

    def test_no_patterns_rejected(self):
        with pytest.raises(ValueError, match="no patterns"):
            averaged_log_score([])

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8))
    def test_order_invariant(self, counts):
        assert averaged_log_score(counts) == pytest.approx(
            averaged_log_score(list(reversed(counts)))
        )

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=7),
    )
    def test_monotone_in_each_count(self, counts, index):
        index = index % len(counts)
        bumped = list(counts)
        bumped[index] += 1
        assert averaged_log_score(bumped) >= averaged_log_score(counts)


class TestSurfacePattern:
    def test_needs_context(self):
        with pytest.raises(ValueError, match="context"):
            SurfacePattern(left=(), right=())

    def test_pattern_id_rendering(self):
        pattern = SurfacePattern(left=("way", "of", "saying"), right=())
        assert pattern.pattern_id == "way of saying <SLOT>"


def labelled(corpus, pools):
    """``label_occurrences``'s positions as (entry id, token offset)."""
    index = _ContextIndex(corpus)
    return [(index.entry_ids[index.row[v]], int(index.room[-1][v]))
            for v in label_occurrences(index, pools)]


def patterns_around(corpus, occurrences, window):
    """``generate_patterns`` around (entry id, token offset) occurrences."""
    starts = itertools.accumulate((len(entry.definition) for entry in corpus), initial=0)
    start_of = dict(zip((entry.entry_id for entry in corpus), starts))
    positions = np.array([start_of[entry_id] + v for entry_id, v in occurrences], dtype=np.int64)
    return generate_patterns(_ContextIndex(corpus), positions, window)


class TestLabelOccurrences:
    def _pools(self, *tuples):
        pool = {(i.casefold(), f.casefold()) for i, f in tuples}
        return Pools(tuple_pool=set(pool), pattern_pool={}, seeds=frozenset(pool))

    def test_single_occurrence(self):
        corpus = make_corpus(("aye", "scottish way of saying yes"))
        occurrences = labelled(corpus, self._pools(("aye", "yes")))
        assert occurrences == [("e1", 4)]

    def test_unmatched_informal(self):
        corpus = make_corpus(("nay", "scottish way of saying yes"))
        assert labelled(corpus, self._pools(("aye", "yes"))) == []

    def test_repeated_formal_reports_every_position(self):
        corpus = make_corpus(("aye", "yes just yes"))
        occurrences = labelled(corpus, self._pools(("aye", "yes")))
        positions = [
            ("e1", v)
            for v, tok in enumerate(corpus.entries[0].definition)
            if tok.lower == "yes"
        ]
        assert occurrences == positions
        assert len(occurrences) == 2

    def test_headword_match_is_case_insensitive(self):
        corpus = make_corpus(("Aye", "saying Yes"))
        assert labelled(corpus, self._pools(("aye", "yes"))) == [("e1", 1)]


class TestGeneratePatterns:
    def test_full_left_context_present(self):
        corpus = make_corpus(("aye", "scottish way of saying yes"))
        patterns = patterns_around(corpus, [("e1", 4)], window=3)
        ids = {p.pattern_id for p in patterns}
        assert "way of saying <SLOT>" in ids

    def test_slot_at_start_gives_right_only(self):
        corpus = make_corpus(("aye", "yes is scottish"))
        patterns = patterns_around(corpus, [("e1", 0)], window=3)
        assert patterns
        for pattern in patterns:
            assert pattern.left == ()

    def test_another_word_for(self):
        corpus = make_corpus(("dank", "another word for weed"))
        patterns = patterns_around(corpus, [("e1", 3)], window=3)
        ids = {p.pattern_id for p in patterns}
        assert "another word for <SLOT>" in ids

    def test_interior_slot_emits_all_subwindows(self):
        corpus = make_corpus(("x", "a b c d e f g"))
        patterns = patterns_around(corpus, [("e1", 3)], window=3)
        assert len(patterns) == (3 + 1) * (3 + 1) - 1

    def test_deduplicates_across_occurrences(self):
        corpus = make_corpus(("aye", "way of saying yes"), ("ja", "way of saying yes"))
        patterns = patterns_around(corpus, [("e1", 3), ("e2", 3)], window=3)
        ids = [p.pattern_id for p in patterns]
        assert len(ids) == len(set(ids))


def run_stages(corpus, pools, pattern=None):
    """``score_pattern``'s statistics for ``pattern`` (None without one) and
    ``match_tuples``'s candidates for ``pools``, from one index and one
    matching pass over ``pattern`` and the pooled patterns, as a round of
    ``bootstrap_run`` takes them."""
    index = _ContextIndex(corpus)
    wanted = [*pools.pattern_pool.values(), *([pattern] if pattern else [])]
    matches = index.match(wanted)
    stats = score_pattern(index, matches, wanted, pools.tuple_pool)
    return stats[pattern.pattern_id] if pattern else None, match_tuples(index, matches, pools)


class TestScorePattern:
    def test_four_of_five_end_to_end(self):
        corpus = make_corpus(
            ("h1", "means alpha"),
            ("h2", "means bravo"),
            ("h3", "means carol"),
            ("h4", "means delta"),
            ("h5", "means fresh"),
        )
        pool = {("h1", "alpha"), ("h2", "bravo"), ("h3", "carol"), ("h4", "delta")}
        pools = Pools(tuple_pool=set(pool), pattern_pool={}, seeds=frozenset(pool))
        stats, _ = run_stages(corpus, pools, SurfacePattern(left=("means",), right=()))
        assert stats.pool_matches == 4
        assert stats.candidate_count == 5
        assert stats.score == pytest.approx(1.6, abs=1e-12)

    def test_counts_distinct_tuples_not_sites(self):
        corpus = make_corpus(("h1", "means alpha and means alpha"))
        pools = Pools(tuple_pool={("h1", "alpha")}, pattern_pool={}, seeds=frozenset())
        stats, _ = run_stages(corpus, pools, SurfacePattern(left=("means",), right=()))
        assert stats.candidate_count == 1
        assert stats.pool_matches == 1


class TestMatchTuples:
    def test_candidate_from_pooled_pattern(self):
        corpus = make_corpus(("ur", "another way of saying your"))
        pattern = SurfacePattern(left=("way", "of", "saying"), right=())
        pools = Pools(
            tuple_pool=set(),
            pattern_pool={pattern.pattern_id: pattern},
            seeds=frozenset(),
        )
        _, (candidate,) = run_stages(corpus, pools)
        assert (candidate.informal, candidate.formal) == ("ur", "your")

    def test_two_patterns_three_sites(self):
        corpus = make_corpus(
            ("zz", "ctxa target ctxb"),
            ("zz", "ctxa target"),
            ("zz", "ctxa target"),
        )
        p1 = SurfacePattern(left=("ctxa",), right=())
        p2 = SurfacePattern(left=(), right=("ctxb",))
        pools = Pools(
            tuple_pool=set(),
            pattern_pool={p1.pattern_id: p1, p2.pattern_id: p2},
            seeds=frozenset(),
        )
        _, (candidate,) = run_stages(corpus, pools)
        assert candidate.matching_patterns == {p1.pattern_id, p2.pattern_id}
        assert candidate.occurrence_count == 3

    def test_pooled_tuples_excluded(self):
        corpus = make_corpus(("ur", "way of saying your"))
        pattern = SurfacePattern(left=("way", "of", "saying"), right=())
        pools = Pools(
            tuple_pool={("ur", "your")},
            pattern_pool={pattern.pattern_id: pattern},
            seeds=frozenset(),
        )
        assert run_stages(corpus, pools)[1] == []

    def test_identity_slots_skipped(self):
        corpus = make_corpus(("your", "way of saying your"))
        pattern = SurfacePattern(left=("way", "of", "saying"), right=())
        pools = Pools(
            tuple_pool=set(),
            pattern_pool={pattern.pattern_id: pattern},
            seeds=frozenset(),
        )
        assert run_stages(corpus, pools)[1] == []


def _candidate(informal: str, formal: str, patterns=("p",), occ: int = 1) -> TupleStats:
    return TupleStats(
        informal=informal,
        formal=formal,
        matching_patterns=set(patterns),
        occurrence_count=occ,
        first_entry="e1",
    )


class TestApplyConstraints:
    STOPWORDS = frozenset({"someone", "the"})

    def test_close_stopword_candidate_kept(self):
        kept = apply_constraints([_candidate("sum1", "someone")], self.STOPWORDS, 0.5)
        assert len(kept) == 1

    def test_distant_stopword_candidate_dropped(self):
        assert apply_constraints([_candidate("lol", "the")], self.STOPWORDS, 0.5) == []

    def test_threshold_is_strict(self):
        assert normalized_levenshtein("lol", "the") == 0.5
        assert apply_constraints([_candidate("lol", "the")], self.STOPWORDS, 0.5) == []

    def test_non_stopword_passes_unchanged(self):
        candidate = _candidate("lol", "laughing")
        assert apply_constraints([candidate], self.STOPWORDS, 0.5) == [candidate]

    def test_strict_mode_gates_everything(self):
        candidates = [_candidate("lol", "laughing"), _candidate("gr8", "great")]
        kept = apply_constraints(candidates, self.STOPWORDS, 0.5, strict=True)
        assert [(c.informal, c.formal) for c in kept] == [("gr8", "great")]


class TestScoreTuple:
    def test_uses_pool_match_counts(self):
        candidate = _candidate("ur", "your", patterns=("pa", "pb"))
        score = score_tuple(candidate, {"pa": 3, "pb": 1})
        assert score == pytest.approx(1.5)
        assert candidate.score == score

    def test_count_variant(self):
        candidate = _candidate("ur", "your", patterns=("pa", "pb"), occ=4)
        assert score_tuple(candidate, {"pa": 3, "pb": 1}, use_count=True) == pytest.approx(3.0)


class TestBootstrapConfig:
    def test_needs_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            BootstrapConfig(seeds=())

    def test_identity_seed_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            BootstrapConfig(seeds=(("Mate", "mate"),))

    @pytest.mark.parametrize("threshold", [0.69, 1.0, 1.5])
    def test_threshold_range(self, threshold):
        with pytest.raises(ValueError, match="0.7"):
            BootstrapConfig(seeds=(("ur", "your"),), pattern_threshold=threshold)

    @pytest.mark.parametrize("tau", [0.0, 1.2])
    def test_tau_range(self, tau):
        with pytest.raises(ValueError, match="levenshtein_tau"):
            BootstrapConfig(seeds=(("ur", "your"),), levenshtein_tau=tau)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            BootstrapConfig(seeds=(("ur", "your"),), max_iterations=-1)


def _fixture_config(fixture, **overrides) -> BootstrapConfig:
    defaults = dict(
        seeds=fixture.seeds,
        max_iterations=8,
        top_n_tuples=10,
        top_n_patterns=10,
        window=3,
        stopwords=frozenset({"the", "something", "someone", "this", "that", "with"}),
    )
    defaults.update(overrides)
    return BootstrapConfig(**defaults)


@pytest.fixture(scope="module")
def fixture():
    return bootstrap_fixture(n_entries=200, n_pairs=40, n_seeds=5, n_traps=6, seed=0)


@pytest.fixture(scope="module")
def result(fixture):
    return bootstrap_run(fixture.corpus, _fixture_config(fixture))


class TestBootstrapRun:
    def test_recovers_planted_templates(self, result):
        for template in BOOTSTRAP_TEMPLATES:
            words = template.replace("{}", "").split()
            left = tuple(words[-3:])
            assert SurfacePattern(left=left, right=()).pattern_id in result.pools.pattern_pool

    def test_recovers_most_planted_pairs(self, fixture, result):
        recovered = set(fixture.truth) & result.pools.tuple_pool
        assert len(recovered) >= 35

    def test_emitted_pairs_are_planted(self, fixture, result):
        truth = set(fixture.truth)
        for pair in result.pairs:
            assert (pair.informal, pair.formal) in truth

    def test_zero_iterations(self, fixture):
        result = bootstrap_run(fixture.corpus, _fixture_config(fixture, max_iterations=0))
        assert result.pairs == []
        assert result.trace == []
        assert result.pools.tuple_pool == set(result.pools.seeds)

    def test_no_seed_occurrences_stops_at_one(self):
        corpus = make_corpus(("plain", "nothing interesting here"))
        config = BootstrapConfig(seeds=(("ur", "your"),), max_iterations=8)
        result = bootstrap_run(corpus, config)
        assert result.pairs == []
        assert len(result.trace) == 1
        assert result.trace[0]["early_stop"] is True

    def test_pool_sizes_grow_monotonically(self, result):
        sizes = [(r["pattern_pool_size"], r["tuple_pool_size"]) for r in result.trace]
        for before, after in zip(sizes, sizes[1:]):
            assert after[0] >= before[0]
            assert after[1] >= before[1]

    def test_seeds_stay_pooled(self, fixture, result):
        assert set(result.pools.seeds) <= result.pools.tuple_pool
        emitted = {(p.informal, p.formal) for p in result.pairs}
        assert emitted.isdisjoint(result.pools.seeds)

    def test_deterministic(self, fixture):
        first = bootstrap_run(fixture.corpus, _fixture_config(fixture))
        second = bootstrap_run(fixture.corpus, _fixture_config(fixture))
        assert first.trace == second.trace
        assert first.pairs == second.pairs

    def test_formal_occurs_under_matching_headword(self, fixture, result):
        definitions = {}
        for entry in fixture.corpus:
            definitions.setdefault(entry.headword.casefold(), set()).update(
                tok.lower for tok in entry.definition
            )
        for pair in result.pairs:
            assert pair.formal in definitions[pair.informal]

    def test_constraint_blocks_trap_pairs(self, fixture, result):
        emitted = {(p.informal, p.formal) for p in result.pairs}
        assert emitted.isdisjoint(set(fixture.traps))

    def test_without_constraint_traps_leak(self, fixture):
        config = _fixture_config(fixture, stopwords=frozenset())
        result = bootstrap_run(fixture.corpus, config)
        emitted = {(p.informal, p.formal) for p in result.pairs}
        assert emitted & set(fixture.traps)


# --- Oracle: one corpus scan per pattern, on each definition's lowered tokens ---


def oracle_matches_at(pattern, lowers, v):
    """Whether ``pattern``'s context surrounds position ``v`` of ``lowers``."""
    l, r = len(pattern.left), len(pattern.right)
    if v - l < 0 or v + r > len(lowers) - 1:
        return False
    return (
        tuple(lowers[v - l:v]) == pattern.left
        and tuple(lowers[v + 1:v + 1 + r]) == pattern.right
    )


class TestOracleMatchesAt:
    def test_matches_at(self):
        pattern = SurfacePattern(left=("way", "of", "saying"), right=())
        lowers = ("scottish", "way", "of", "saying", "yes")
        assert oracle_matches_at(pattern, lowers, 4)
        assert not oracle_matches_at(pattern, lowers, 3)
        assert not oracle_matches_at(pattern, ("way", "of"), 1)

    def test_right_context_needs_following_tokens(self):
        pattern = SurfacePattern(left=(), right=("innit",))
        assert oracle_matches_at(pattern, ("mate", "innit"), 0)
        assert not oracle_matches_at(pattern, ("mate", "innit"), 1)


def oracle_label_occurrences(corpus, pools):
    """(entry_id, position) of every definition token that is the formal
    side of a pooled tuple whose informal side is the entry headword."""
    formals = {}
    for informal, formal in pools.tuple_pool:
        formals.setdefault(informal, set()).add(formal)
    occurrences = []
    for entry in corpus:
        wanted = formals.get(entry.headword.casefold())
        if wanted:
            occurrences.extend((entry.entry_id, v) for v, tok in enumerate(entry.definition)
                               if tok.lower in wanted)
    return occurrences


def oracle_generate_patterns(corpus, occurrences, window):
    """Every (left, right) context of up to ``window`` tokens per side around
    each occurrence, deduplicated in first-seen order."""
    by_id = {entry.entry_id: entry for entry in corpus}
    patterns = {}
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


def oracle_extractions(pattern, corpus):
    """(informal, formal, entry_id, position) at every site the pattern
    matches, skipping slots that would pair a headword with itself."""
    for entry in corpus:
        informal = entry.headword.casefold()
        lowers = tuple(tok.lower for tok in entry.definition)
        for v in range(len(lowers)):
            if lowers[v] != informal and oracle_matches_at(pattern, lowers, v):
                yield informal, lowers[v], entry.entry_id, v


def oracle_score_pattern(pattern, pools, corpus):
    candidates = {(i, f) for i, f, _, _ in oracle_extractions(pattern, corpus)}
    hits = candidates & pools.tuple_pool
    return PatternStats(pattern, len(hits), len(candidates), rlogf(len(hits), len(candidates)))


def oracle_match_tuples(pools, corpus):
    """Try every pooled pattern at every position, in corpus order."""
    stats, sites = {}, {}
    for entry in corpus:
        informal = entry.headword.casefold()
        lowers = tuple(tok.lower for tok in entry.definition)
        for v, formal in enumerate(lowers):
            key = (informal, formal)
            if formal == informal or key in pools.tuple_pool:
                continue
            for pattern_id, pattern in pools.pattern_pool.items():
                if oracle_matches_at(pattern, lowers, v):
                    if key not in stats:
                        stats[key] = TupleStats(informal, formal, set(), 0, entry.entry_id)
                        sites[key] = set()
                    stats[key].matching_patterns.add(pattern_id)
                    sites[key].add((entry.entry_id, v))
    for key, candidate in stats.items():
        candidate.occurrence_count = len(sites[key])
    return list(stats.values())


def oracle_bootstrap_run(corpus, config):
    """The bootstrap loop with every pattern scored by its own scan."""
    seeds = frozenset((i.casefold(), f.casefold()) for i, f in config.seeds)
    pools = Pools(tuple_pool=set(seeds), pattern_pool={}, seeds=seeds)
    pairs, trace = [], []
    for iteration in range(1, config.max_iterations + 1):
        occurrences = oracle_label_occurrences(corpus, pools)
        fresh = [p for p in oracle_generate_patterns(corpus, occurrences, config.window)
                 if p.pattern_id not in pools.pattern_pool]
        scored = [oracle_score_pattern(p, pools, corpus) for p in fresh]
        top = max((s.score for s in scored), default=0.0)
        accepted_patterns = []
        if top > 0.0:
            passing = [s for s in scored if s.score > config.pattern_threshold * top]
            passing.sort(key=lambda s: (-s.score, s.pattern.pattern_id))
            accepted_patterns = passing[: config.top_n_patterns]
            for s in accepted_patterns:
                pools.pattern_pool[s.pattern.pattern_id] = s.pattern
        accepted_tuples = []
        if pools.pattern_pool:
            counts = {pid: oracle_score_pattern(p, pools, corpus).pool_matches
                      for pid, p in pools.pattern_pool.items()}
            candidates = apply_constraints(oracle_match_tuples(pools, corpus), config.stopwords,
                                           config.levenshtein_tau, config.strict_constraint)
            for c in candidates:
                score_tuple(c, counts, config.use_tuple_count_variant)
            top = max((c.score for c in candidates), default=0.0)
            if top > 0.0:
                passing = [c for c in candidates if c.score > config.tuple_threshold * top]
                passing.sort(key=lambda c: (-c.score, c.informal, c.formal))
                accepted_tuples = passing[: config.top_n_tuples]
                for c in accepted_tuples:
                    pools.tuple_pool.add((c.informal, c.formal))
                    pairs.append(VariantPair(c.informal, c.formal, c.score, "bootstrap",
                                             iteration, c.first_entry))
        record = {
            "iteration": iteration,
            "new_patterns": len(accepted_patterns),
            "new_tuples": len(accepted_tuples),
            "pattern_pool_size": len(pools.pattern_pool),
            "tuple_pool_size": len(pools.tuple_pool),
            "accepted_patterns": [{"pattern": s.pattern.pattern_id, "score": s.score}
                                  for s in accepted_patterns],
            "accepted_tuples": [{"informal": c.informal, "formal": c.formal, "score": c.score}
                                for c in accepted_tuples],
        }
        if not accepted_patterns and not accepted_tuples:
            record["early_stop"] = True
            trace.append(record)
            break
        trace.append(record)
    return pools, pairs, trace


# Few words, mixed case: contexts repeat, slots often equal the headword, and
# patterns of up to five tokens per side reach past short definitions.
WORDS = ("a", "b", "B", "c", "yes", "Yes")
small_words = st.sampled_from(WORDS)
contexts = st.lists(small_words.map(str.lower), max_size=5).map(tuple)
small_patterns = st.tuples(contexts, contexts).filter(lambda lr: lr[0] or lr[1]).map(
    lambda lr: SurfacePattern(left=lr[0], right=lr[1])
)
small_corpora = st.lists(
    st.tuples(small_words, st.lists(small_words, max_size=8).map(" ".join)),
    min_size=1,
    max_size=6,
).map(lambda rows: make_corpus(*rows))


@st.composite
def corpus_and_pools(draw):
    corpus = draw(small_corpora)
    sites = sorted({
        (entry.headword.casefold(), tok.lower) for entry in corpus for tok in entry.definition
    })
    tuple_pool = set(draw(st.lists(st.sampled_from(sites), unique=True))) if sites else set()
    pooled = draw(st.lists(small_patterns, max_size=6))
    pools = Pools(
        tuple_pool=tuple_pool,
        pattern_pool={p.pattern_id: p for p in pooled},
        seeds=frozenset(),
    )
    return corpus, pools


class TestSweepAgainstOracle:
    @settings(max_examples=200)
    @given(corpus_and_pools(), small_patterns)
    def test_score_pattern(self, corpus_pools, pattern):
        corpus, pools = corpus_pools
        assert run_stages(corpus, pools, pattern)[0] == oracle_score_pattern(pattern, pools, corpus)

    @settings(max_examples=200)
    @given(corpus_and_pools())
    def test_match_tuples(self, corpus_pools):
        corpus, pools = corpus_pools
        assume(pools.pattern_pool)
        assert run_stages(corpus, pools)[1] == oracle_match_tuples(pools, corpus)

    @settings(max_examples=100)
    @given(
        small_corpora,
        st.lists(st.tuples(small_words, small_words), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=3),
    )
    def test_bootstrap_run(self, corpus, seeds, window):
        seeds = [(i, f) for i, f in seeds if i.casefold() != f.casefold()]
        assume(seeds)
        config = BootstrapConfig(seeds=tuple(seeds), max_iterations=3, window=window,
                                 top_n_tuples=2, top_n_patterns=3)
        result = bootstrap_run(corpus, config)
        pools, pairs, trace = oracle_bootstrap_run(corpus, config)
        assert (result.pairs, result.trace) == (pairs, trace)
        assert result.pools == pools

    @settings(max_examples=200)
    @given(corpus_and_pools(), st.integers(min_value=1, max_value=4))
    def test_label_occurrences_and_generate_patterns(self, corpus_pools, window):
        corpus, pools = corpus_pools
        occurrences = oracle_label_occurrences(corpus, pools)
        assert labelled(corpus, pools) == occurrences
        assert (patterns_around(corpus, occurrences, window)
                == oracle_generate_patterns(corpus, occurrences, window))

    def test_pattern_at_definition_edges(self):
        corpus = make_corpus(("x", "yes a"), ("x", "a yes"), ("x", "a"))
        pools = Pools(tuple_pool={("x", "yes")}, pattern_pool={}, seeds=frozenset())
        for pattern in (SurfacePattern(left=(), right=("a",)),
                        SurfacePattern(left=("a",), right=()),
                        SurfacePattern(left=("a",), right=("a",))):
            expected = oracle_score_pattern(pattern, pools, corpus)
            assert run_stages(corpus, pools, pattern)[0] == expected

    # Three words a, b, c: packed without the shift by one, as (first key)
    # * 3 + (second key), a context with a word the corpus lacks (-1) or a
    # slot lacking the right context (-1) lands on another context's number.
    @pytest.mark.parametrize("rows, pattern", [
        ((("h", "a b c"),), SurfacePattern(left=(), right=("c", "nope"))),
        ((("h", "a b c"), ("g", "b a")), SurfacePattern(left=("a",), right=("c",))),
    ], ids=["unknown-word", "no-right-context"])
    def test_missing_context_never_matches(self, rows, pattern):
        corpus = make_corpus(*rows)
        pools = Pools(tuple_pool=set(), pattern_pool={pattern.pattern_id: pattern},
                      seeds=frozenset())
        stats, candidates = run_stages(corpus, pools, pattern)
        assert stats == oracle_score_pattern(pattern, pools, corpus)
        assert candidates == oracle_match_tuples(pools, corpus)

    def test_pattern_longer_than_every_definition(self):
        corpus = make_corpus(("x", "a b c"), ("y", "a b c d"))
        pattern = SurfacePattern(left=("a", "b", "c", "d"), right=("e",))
        pools = Pools(tuple_pool=set(), pattern_pool={pattern.pattern_id: pattern},
                      seeds=frozenset())
        stats, candidates = run_stages(corpus, pools, pattern)
        assert stats.candidate_count == 0
        assert candidates == []


def varied_corpus(seed: int, n_pairs: int = 30, n_filler: int = 80):
    """Planted pairs under three idioms, each slot inside random filler drawn
    from a small vocabulary, so filler contexts repeat and compete."""
    rng = random.Random(seed)
    seen: set[str] = set()

    def word() -> str:
        while True:
            w = "".join(rng.choice("bdgkmt") + rng.choice("aiou") for _ in range(rng.randint(2, 3)))
            if w not in seen:
                seen.add(w)
                return w

    vocab = [word() for _ in range(40)]
    idioms = (("a", "way", "of", "saying"), ("another", "word", "for"), ("short", "for"))
    pairs, rows = [], []
    for _ in range(n_pairs):
        formal = word()
        informal = formal[0] + "".join(c for c in formal[1:-1] if c not in "aiou") + formal[-1]
        pairs.append((informal, formal))
        for idiom in rng.sample(idioms, rng.randint(1, 3)):
            before = rng.choices(vocab, k=rng.randint(0, 3))
            after = rng.choices(vocab, k=rng.randint(0, 3))
            rows.append((informal, " ".join([*before, *idiom, formal, *after])))
    for stopword in ("the", "something", "with"):
        rows.append((word(), f"another word for {stopword} {rng.choice(vocab)}"))
    for _ in range(n_filler):
        rows.append((word(), " ".join(rng.choices(vocab, k=rng.randint(3, 9)))))
    rng.shuffle(rows)
    return make_corpus(*rows), tuple(pairs[:4])


class TestBootstrapRunAgainstOracle:
    def _check(self, corpus, config):
        result = bootstrap_run(corpus, config)
        pools, pairs, trace = oracle_bootstrap_run(corpus, config)
        assert result.pairs == pairs
        assert result.trace == trace
        assert result.pools == pools
        return result

    def test_stock_fixture(self, fixture):
        result = self._check(fixture.corpus, _fixture_config(fixture))
        assert result.pairs

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_varied_contexts(self, seed):
        corpus, seeds = varied_corpus(seed)
        config = BootstrapConfig(
            seeds=seeds, max_iterations=4, window=3,
            stopwords=frozenset({"the", "something", "with", "a", "of", "for"}),
        )
        result = self._check(corpus, config)
        assert len(result.trace) >= 2
        assert len(result.pools.pattern_pool) > 3


# --- Exactness where packed context keys would overflow an int64 ---

LEFT, RIGHT = ("la", "lb", "lc", "ld", "le"), ("ra", "rb", "rc", "rd", "re")


@pytest.fixture(scope="module")
def wide_corpus():
    """72,000 filler words, each used once, come first, so the planted words
    have ids past 70,000, where ``id ** 4`` no longer fits an int64."""
    filler = [f"f{i}" for i in range(72_000)]
    rows = [(f"h{k}", " ".join(filler[k * 8:k * 8 + 8])) for k in range(9_000)]
    left, right = " ".join(LEFT), " ".join(RIGHT)
    for k in range(4):
        rows += [(f"i{k}", f"{left} w{k}"), (f"i{k}", f"w{k} {right}"),
                 (f"j{k}", f"{left} v{k} {right}")]
    rows += [
        ("i8", f"lz {' '.join(LEFT[1:])} w8"),  # four of the five left words
        ("i9", f"w9 {' '.join(RIGHT[:4])} rz"),
        ("x", f"pre {left} v8 {right} post"),
        ("i0", f"{left} i0 {right}"),  # the headword's own slot
    ]
    return make_corpus(*rows)


WIDE_PATTERNS = (
    SurfacePattern(LEFT, RIGHT),
    SurfacePattern(LEFT, ()),
    SurfacePattern((), RIGHT),
    SurfacePattern(LEFT[1:], RIGHT[:2]),
    SurfacePattern(LEFT[4:], ()),
    SurfacePattern(("f71992", "f71993"), ("f71995",)),
    # Longer than the window of five, one reaching past a definition's start.
    SurfacePattern(("pre", *LEFT), (*RIGHT, "post")),
    SurfacePattern(("f0", "pre", *LEFT), ()),
    # Words the corpus never holds.
    SurfacePattern(("nope", *LEFT[1:]), ()),
    SurfacePattern((), (*RIGHT[:4], "nope")),
)


class TestWideVocabularyAgainstOracle:
    def test_vocabulary_is_wide(self, wide_corpus):
        words = {tok.lower for entry in wide_corpus for tok in entry.definition}
        assert len(words) > 70_000

    @pytest.mark.parametrize("pattern", WIDE_PATTERNS, ids=lambda p: p.pattern_id)
    def test_score_pattern(self, wide_corpus, pattern):
        pools = Pools(tuple_pool={("i0", "w0"), ("i1", "w1"), ("j0", "v0"), ("h8999", "f71994")},
                      pattern_pool={}, seeds=frozenset())
        expected = oracle_score_pattern(pattern, pools, wide_corpus)
        assert run_stages(wide_corpus, pools, pattern)[0] == expected

    def test_match_tuples(self, wide_corpus):
        pools = Pools(tuple_pool={("i0", "w0")},
                      pattern_pool={p.pattern_id: p for p in WIDE_PATTERNS}, seeds=frozenset())
        expected = oracle_match_tuples(pools, wide_corpus)
        assert len(expected) >= 8
        assert run_stages(wide_corpus, pools)[1] == expected

    def test_bootstrap_run(self, wide_corpus):
        config = BootstrapConfig(seeds=(("i0", "w0"), ("i1", "w1")), max_iterations=3,
                                 window=5, top_n_patterns=3)
        result = bootstrap_run(wide_corpus, config)
        pools, pairs, trace = oracle_bootstrap_run(wide_corpus, config)
        assert (result.pairs, result.trace) == (pairs, trace)
        assert result.pools == pools
        assert len(result.pools.pattern_pool) >= 3 and result.pairs
