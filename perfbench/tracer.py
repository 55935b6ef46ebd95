"""Span recorder that wraps the program's public functions from outside.

:func:`install` replaces module attributes with wrappers that record one span
per call: name, start, end and the index of the enclosing span.  Spans stay
in memory; the child process writes them out after the run.  A few wrappers
also read counts off the wrapped call's arguments or result, so ratios are
taken where the work happens.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(counts, args, result)`` runs after the span has closed."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))


def _count_bootstrap_run(counts, args, result):
    counts["bootstrap.patterns_pooled"] += len(result.pools.pattern_pool)


def _count_apply_constraints(counts, args, result):
    counts["bootstrap.constraints_in"] += len(args[0])
    counts["bootstrap.constraints_out"] += len(result)


def _count_minimize(counts, args, result):
    counts["crf.optimizer.iterations"] += result.iterations
    counts["crf.optimizer.converged"] += bool(result.converged)


def _count_self_train(counts, args, result):
    for record in result.trace:
        counts["selftrain.promoted"] += record["promoted"]
        counts["selftrain.decoded"] += record["promoted"] + record["remaining_unlabeled"]


def _count_evaluate_pairs(counts, args, result):
    counts["evalsim.matched"] += result.matched_pairs
    counts["evalsim.pairs"] += len(result.per_pair)


def install() -> Recorder:
    """Wrap every traced name; call after ``spellvar.cli`` is imported."""
    import spellvar.bootstrap as bootstrap
    import spellvar.cli as cli
    import spellvar.evalsim as evalsim
    import spellvar.selftrain as selftrain
    from spellvar.crf.model import CrfModel

    # spellvar/crf/__init__.py rebinds ``train`` to the function, so the
    # submodule is only reachable through sys.modules.
    crf_train = sys.modules["spellvar.crf.train"]

    rec = Recorder()
    rec.patch(cli, "main", "cli.main")
    rec.patch(cli, "load_jsonl", "corpus.load_jsonl")
    for module in (cli, selftrain):
        rec.patch(module, "annotate", "corpus.annotate")
        rec.patch(module, "extract_features", "crf.features.extract_features")
    rec.patch(cli, "bootstrap_run", "bootstrap.bootstrap_run", _count_bootstrap_run)
    for attr in ("label_occurrences", "generate_patterns", "score_pattern",
                 "match_tuples", "score_tuple"):
        rec.patch(bootstrap, attr, f"bootstrap.{attr}")
    rec.patch(bootstrap, "apply_constraints", "bootstrap.apply_constraints",
              _count_apply_constraints)
    rec.patch(cli, "self_train", "selftrain.self_train", _count_self_train)
    rec.patch(cli, "random_search", "selftrain.random_search")
    rec.patch(selftrain, "train", "crf.train.train")
    rec.patch(selftrain, "viterbi_decode", "crf.model.viterbi_decode")
    rec.patch(selftrain, "marginals", "crf.model.marginals")
    rec.patch(CrfModel, "emission_scores", "crf.model.emission_scores")
    rec.patch(crf_train, "encode_dataset", "crf.objective.encode_dataset")
    rec.patch(crf_train, "log_likelihood_and_gradient",
              "crf.objective.log_likelihood_and_gradient")
    rec.patch(crf_train, "minimize", "crf.optimizer.minimize", _count_minimize)
    rec.patch(cli, "load_embeddings", "evalsim.load_embeddings")
    rec.patch(cli, "evaluate_pairs", "evalsim.evaluate_pairs", _count_evaluate_pairs)
    rec.patch(evalsim, "rank_of_formal", "evalsim.rank_of_formal")
    return rec


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time and call count per span name.

    A span's self time is its duration minus the durations of the spans it
    directly encloses; calls are sequential, so children never overlap."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[i]
        calls[name] += 1
    return dict(totals), dict(calls)
