"""Benchmark of the spellvar command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then calls
``spellvar.cli.main(argv)`` in a fresh interpreter, one child at a time, in
rounds until S seconds have passed.  The first round's outputs are checked
for correctness; every later round must write byte-identical files.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics (medians over the rounds), with ``--trace 1`` the per-layer metrics
of traced rounds, each run beside an untraced one.  See README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

CHILD_TIMEOUT_S = 150
CONFIDENCE = 0.9
WINDOW = 3
TAU = 0.5
L1, L2 = 0.02, 0.03
KS = (1, 20, 50, 100)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[Path, int], object]  # (input dir, seed) -> generator record
    argv: Callable[[str, str], list[str]]  # (input dir, output dir) -> CLI argv
    check: Callable[[object, Path, checks.Tally], None]


def _bootstrap_argv(inp: str, out: str) -> list[str]:
    return ["extract", "--method", "bootstrap", "--corpus", f"{inp}/corpus.jsonl",
            "--seeds", f"{inp}/seeds.tsv", "--stopwords", f"{inp}/stopwords.txt",
            "--iterations", "4", "--alpha", "0.7", "--beta", "0.7", "--window", str(WINDOW),
            "--top-n", "10", "--top-n-patterns", "10", "--tau", str(TAU),
            "--seed", "0", "--out", out]


def _selftrain_argv(options: list[str]) -> Callable[[str, str], list[str]]:
    def argv(inp: str, out: str) -> list[str]:
        return ["extract", "--method", "selftrain", "--corpus", f"{inp}/unlabeled.jsonl",
                "--gold-corpus", f"{inp}/gold.jsonl", "--gold-tags", f"{inp}/gold.tags",
                "--confidence", str(CONFIDENCE), "--window", str(WINDOW),
                "--iterations", "3", *options, "--seed", "0", "--out", out]
    return argv


def _eval_argv(inp: str, out: str) -> list[str]:
    return ["eval", "--pairs", f"{inp}/pairs.tsv", "--embeddings", f"{inp}/vectors.txt",
            "--formal-vocab", f"{inp}/vocab.txt", "--ks", ",".join(map(str, KS)),
            "--out", out]


# Sizes keep a call to 2-5 s, so that a run holds several calls to take the
# median of; README.md gives each input's make-up and why it was chosen.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "bootstrap-varied",
            lambda d, seed: gen.bootstrap_corpus(d, seed, n_entries=250, n_pairs=48,
                                                 n_seeds=5, window=WINDOW, tau=TAU),
            _bootstrap_argv,
            lambda inp, out, tally: checks.check_bootstrap(inp, out, tally, TAU),
        ),
        Workload(
            "selftrain-decode",
            lambda d, seed: gen.selftrain_sets(d, seed, n_gold_positive=20,
                                               n_gold_negative=20, n_waves=4,
                                               wave_size=40, n_distractors=240),
            _selftrain_argv(["--l1", str(L1), "--l2", str(L2)]),
            lambda inp, out, tally: checks.check_selftrain(inp, out, tally, CONFIDENCE,
                                                           WINDOW, (L1, L2)),
        ),
        Workload(
            "crf-search",
            lambda d, seed: gen.selftrain_sets(d, seed, n_gold_positive=30,
                                               n_gold_negative=30, n_waves=2,
                                               wave_size=10, n_distractors=20),
            _selftrain_argv(["--search-trials", "3", "--search-folds", "3"]),
            lambda inp, out, tally: checks.check_selftrain(inp, out, tally, CONFIDENCE,
                                                           WINDOW, None),
        ),
        Workload(
            "eval-rank",
            lambda d, seed: gen.embedding_table(d, seed, n_rows=20000, dim=100,
                                                n_pairs=2000, n_each_miss=10, n_tied=20),
            _eval_argv,
            lambda inp, out, tally: checks.check_eval(inp, out, tally, KS),
        ),
    )
}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

#: Span names whose summed self time is reported as ``<name>.s``.
TIMED = (
    "corpus.load_jsonl", "corpus.annotate",
    "bootstrap.bootstrap_run", "bootstrap.label_occurrences",
    "bootstrap.generate_patterns", "bootstrap.score_pattern", "bootstrap.match_tuples",
    "bootstrap.apply_constraints", "bootstrap.score_tuple",
    "crf.features.extract_features", "crf.objective.encode_dataset",
    "crf.objective.log_likelihood_and_gradient", "crf.optimizer.minimize",
    "crf.train.train", "crf.model.viterbi_decode", "crf.model.marginals",
    "crf.model.emission_scores", "selftrain.self_train", "selftrain.random_search",
    "evalsim.load_embeddings", "evalsim.evaluate_pairs", "evalsim.rank_of_formal",
    "cli.main",
)
#: Span names whose call count is reported as ``<name>.calls``.
COUNTED = (
    "bootstrap.score_pattern", "crf.features.extract_features",
    "crf.objective.encode_dataset", "crf.objective.log_likelihood_and_gradient",
    "crf.train.train", "crf.model.viterbi_decode", "crf.model.marginals",
    "crf.model.emission_scores", "evalsim.rank_of_formal",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced call; layers it never entered read 0."""
    self_s, calls = tracer.self_times(spans)
    metrics = {f"{name}.s": (self_s.get(name, 0.0), "s") for name in TIMED}
    metrics.update({f"{name}.calls": (calls.get(name, 0), "count") for name in COUNTED})
    iterations = counts.get("crf.optimizer.iterations", 0)
    metrics.update({
        "bootstrap.pattern_yield": (_ratio(counts.get("bootstrap.patterns_pooled", 0),
                                           calls.get("bootstrap.score_pattern", 0)), "ratio"),
        "bootstrap.candidate_keep_ratio": (_ratio(counts.get("bootstrap.constraints_out", 0),
                                                  counts.get("bootstrap.constraints_in", 0)),
                                           "ratio"),
        "crf.optimizer.iterations": (iterations, "count"),
        "crf.optimizer.converged_ratio": (_ratio(counts.get("crf.optimizer.converged", 0),
                                                 calls.get("crf.optimizer.minimize", 0)),
                                          "ratio"),
        "crf.optimizer.evals_per_iteration": (
            _ratio(calls.get("crf.objective.log_likelihood_and_gradient", 0), iterations),
            "evals/iter"),
        "selftrain.promote_ratio": (_ratio(counts.get("selftrain.promoted", 0),
                                           counts.get("selftrain.decoded", 0)), "ratio"),
        "evalsim.match_ratio": (_ratio(counts.get("evalsim.matched", 0),
                                       counts.get("evalsim.pairs", 0)), "ratio"),
    })
    return metrics


class BenchError(Exception):
    """The run cannot produce a result."""


def run_child(argv: list[str], trace: bool, tag: str) -> dict:
    """One CLI call in a fresh interpreter; returns the child's result."""
    result_path = WORK / f"{tag}.result.json"
    log_path = WORK / f"{tag}.log"
    result_path.unlink(missing_ok=True)
    with open(log_path, "wb") as log:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(ROOT), str(result_path),
             "1" if trace else "0", "--", *argv],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{tag}: CLI call exceeded {CHILD_TIMEOUT_S} s") from None
    tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{tag}: child exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["code"] != 0:
        raise BenchError(f"{tag}: spellvar exited {result['code']}:\n{tail}")
    result["setup_s"] = result["ready"] - spawned
    return result


def same_outputs(reference: Path, other: Path) -> bool:
    names = sorted(p.name for p in reference.iterdir())
    if names != sorted(p.name for p in other.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(reference, other, names, shallow=False)
    return not mismatch and not errors


def warm_up() -> None:
    """Import the program once untimed, which writes its bytecode cache and
    fails early when the checkout holds no program."""
    if not (ROOT / "src" / "spellvar" / "cli.py").is_file():
        raise BenchError(f"no program at {ROOT / 'src' / 'spellvar'}")
    probe = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import spellvar.cli"],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import spellvar.cli:\n{probe.stderr[-2000:]}")


def blas_threads() -> str:
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    set_vars = [f"{n}={os.environ[n]}" for n in names if n in os.environ]
    return ", ".join(set_vars) or f"library default ({len(os.sched_getaffinity(0))} CPUs)"


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    warm_up()
    shutil.rmtree(WORK, ignore_errors=True)
    inputs_dir = WORK / "in"
    inputs_dir.mkdir(parents=True)
    generated = time.perf_counter()
    record = workload.make(inputs_dir, seed)
    generate_s = time.perf_counter() - generated
    inp = inputs_dir.relative_to(ROOT).as_posix()

    # The first round always runs; another starts only if, taking as long as
    # the last, it would end within `seconds`.
    reference = WORK / "out0"
    untraced: list[dict] = []
    traced: list[dict] = []
    identical = True
    calls = 0
    started = time.perf_counter()
    round_s = 0.0
    while not untraced or time.perf_counter() - started + round_s <= seconds:
        round_start = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            out = WORK / f"out{calls}"
            result = run_child(workload.argv(inp, out.relative_to(ROOT).as_posix()),
                               is_traced, f"call{calls}")
            (traced if is_traced else untraced).append(result)
            if calls > 0:
                identical &= same_outputs(reference, out)
                shutil.rmtree(out)
            calls += 1
        round_s = time.perf_counter() - round_start

    checked = time.perf_counter()
    tally = checks.Tally()
    try:
        workload.check(record, reference, tally)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise BenchError(f"outputs missing or malformed: {exc!r}") from None
    check_s = time.perf_counter() - checked
    per_call = tally.attempted
    failed = tally.failed * calls if identical else per_call * calls
    problems = list(tally.problems)
    if not identical:
        problems.append("a later call wrote outputs that differ from the first call's")

    if trace:
        per_call_metrics = []
        for result in traced:
            spans = result["spans"]
            self_s, _ = tracer.self_times(spans)
            gap = abs(sum(self_s.values()) - result["run_s"])
            if gap > 1e-3:
                problems.append(f"self times miss run_s by {gap:.6f} s")
            per_call_metrics.append(layer_metrics(spans, result["counts"]))
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_call_metrics),
                   "unit": unit}
            for name, (_, unit) in per_call_metrics[0].items()
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["run_s"] for r in traced)
            - statistics.median(r["run_s"] for r in untraced),
            "unit": "s",
        }
        with open(WORK / "spans.jsonl", "w", encoding="utf-8") as handle:
            for span in traced[-1]["spans"]:
                handle.write(json.dumps(span) + "\n")
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    summary = {
        "workload": workload.name, "seed": seed, "trace": int(trace), "calls": calls,
        "generate_s": generate_s, "check_s": check_s,
        "blas_threads": blas_threads(), "problems": problems[:20],
        "failed_records": tally.faults[:20],
        "run_s": [r["run_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "peak_rss_mib": [r["peak_rss_mib"] for r in untraced],
    }
    (WORK / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    for line in summary["problems"] + summary["failed_records"]:
        print(f"check: {line}")
    print(f"{workload.name}: seed {seed}, {calls} calls, BLAS threads {summary['blas_threads']}")
    return {"correct": not problems, "attempted": per_call * calls, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
