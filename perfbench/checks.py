"""Correctness checks on the CLI's outputs, written without program code.

Each check reads the files one CLI call wrote and compares them with what the
generator planted and with the benchmark's own recomputations.  Every record
examined is one operation; a record failing any of its checks is one failed
operation.  Checks on the run as a whole (scores in the trace, precision and
recall, summaries) go into ``problems`` and make the run incorrect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TIE_TOLERANCE = 1e-9
SCORE_TOLERANCE = 1e-9


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []  # failed records
        self.problems: list[str] = []  # failed whole-run checks

    def record(self, faults: list[str], what: str) -> None:
        """Count one operation; it fails when ``faults`` is non-empty."""
        self.attempted += 1
        if faults:
            self.failed += 1
            self.faults.append(f"{what}: {'; '.join(faults)}")

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def read_pairs(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t")[:2] != ["informal", "formal"]:
        raise ValueError(f"{path}: missing header")
    return [line.split("\t") for line in lines[1:]]


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by the full dynamic-programming table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


# --- bootstrap ------------------------------------------------------------


def _extractions(pattern_id: str, entries) -> set[tuple[str, str]]:
    """Every (headword, token) a pattern extracts, by a scan of all entries."""
    words = pattern_id.split(" ")
    slot = words.index("<SLOT>")
    left, right = words[:slot], words[slot + 1:]
    found: set[tuple[str, str]] = set()
    for headword, tokens in entries.values():
        informal = headword.casefold()
        for v, token in enumerate(tokens):
            if token == informal or v < len(left) or v + len(right) >= len(tokens):
                continue
            if tokens[v - len(left):v] == left and tokens[v + 1:v + 1 + len(right)] == right:
                found.add((informal, token))
    return found


def check_bootstrap(inputs, out: Path, tally: Tally, tau: float) -> None:
    """Provenance, seeds, duplicates, the stopword gate, precision and
    recall, and every accepted score in ``trace.jsonl`` against a rescan."""
    pairs = read_pairs(out / "pairs.tsv")
    trace = read_jsonl(out / "trace.jsonl")
    seeds = set(inputs.seeds)

    extractions: dict[str, set[tuple[str, str]]] = {}

    def extract(pattern_id: str) -> set[tuple[str, str]]:
        if pattern_id not in extractions:
            extractions[pattern_id] = _extractions(pattern_id, inputs.entries)
        return extractions[pattern_id]

    tuple_pool = set(seeds)
    pattern_pool: list[str] = []
    accepted: dict[tuple[str, str], tuple[int, float, bool]] = {}
    for record in trace:
        iteration = record["iteration"]
        pool = set(tuple_pool)
        for item in record["accepted_patterns"]:
            found = extract(item["pattern"])
            hits = len(found & pool)
            expect = (hits / len(found)) * math.log2(hits) if hits > 1 and found else 0.0
            tally.require(abs(expect - item["score"]) <= SCORE_TOLERANCE,
                          f"iteration {iteration}: pattern {item['pattern']!r} scored "
                          f"{item['score']!r}, rescan gives {expect!r}")
            pattern_pool.append(item["pattern"])
        for item in record["accepted_tuples"]:
            key = (item["informal"], item["formal"])
            matching = sorted(p for p in pattern_pool if key in extract(p))
            logs = [math.log2(len(extract(p) & pool) + 1) for p in matching]
            ok = bool(logs) and abs(sum(logs) / len(logs) - item["score"]) <= SCORE_TOLERANCE
            accepted[key] = (iteration, item["score"], ok)
            tuple_pool.add(key)

    seen: set[tuple[str, str]] = set()
    for n, row in enumerate(pairs, 1):
        informal, formal, score, method, origin, entry_id = row
        key = (informal, formal)
        faults = []
        entry = inputs.entries.get(entry_id)
        if entry is None or informal != entry[0].casefold() or formal not in entry[1]:
            faults.append("not found in its source entry")
        if key in seeds:
            faults.append("is a seed")
        if key in seen:
            faults.append("duplicate")
        seen.add(key)
        if formal in inputs.stopwords and edit_distance(informal, formal) / (
                len(informal) + len(formal)) >= tau:
            faults.append("stopword formal fails the edit-distance gate")
        expected = accepted.get(key)
        if expected is None or (str(expected[0]), float(score)) != (origin, expected[1]):
            faults.append("does not match the trace's accepted tuple")
        elif not expected[2]:
            faults.append("trace score differs from the rescan")
        if method != "bootstrap":
            faults.append(f"method {method!r}")
        tally.record(faults, f"pair {n} {key}")

    truth = set(inputs.truth)
    found = {(row[0], row[1]) for row in pairs}
    precision = len(found & truth) / len(found) if found else 0.0
    recall = len(found & (truth - seeds)) / len(truth - seeds)
    tally.require(len(found) == len(accepted), "pairs.tsv and trace.jsonl list different tuples")
    tally.require(precision >= 0.8, f"precision {precision:.3f} below 0.8")
    tally.require(recall >= 0.9, f"recall {recall:.3f} below 0.9")


# --- self-training --------------------------------------------------------


#: The range the program's random search samples both penalties from.
SEARCH_RANGE = (0.01, 10.0)


def check_selftrain(inputs, out: Path, tally: Tally, confidence: float, window: int,
                    penalties: tuple[float, float] | None) -> None:
    """Provenance and score range of every pair, promotion bookkeeping,
    recovery of wave 0, and the penalties and window the run recorded.

    ``penalties`` is the fixed (l1, l2) passed on the command line, or None
    when the run searched for them."""
    pairs = read_pairs(out / "pairs.tsv")
    trace = read_jsonl(out / "trace.jsonl")
    options = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["options"]
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    planted = {pair for wave in inputs.waves for pair in wave}

    promoted_in: dict[str, int] = {}
    total = inputs.n_gold + inputs.n_unlabeled
    for record in trace:
        for entry_id in record["promoted_ids"]:
            tally.require(entry_id not in promoted_in,
                          f"{entry_id} promoted in two rounds")
            tally.require(entry_id not in inputs.gold_ids and entry_id in inputs.entries,
                          f"{entry_id} is not an unlabeled entry")
            promoted_in[entry_id] = record["iteration"]
        tally.require(record["labeled_size"] + record["remaining_unlabeled"] == total,
                      f"round {record['iteration']}: labeled + remaining != {total}")

    for n, row in enumerate(pairs, 1):
        informal, formal, score, method, origin, entry_id = row
        faults = []
        entry = inputs.entries.get(entry_id)
        span = formal.split(" ")
        tokens = entry[1] if entry else []
        if entry is None or informal != entry[0].casefold() or not any(
                tokens[i:i + len(span)] == span for i in range(len(tokens))):
            faults.append("not found in its source entry")
        if not confidence < float(score) <= 1.0:
            faults.append(f"score {score} outside ({confidence}, 1]")
        if (informal, formal) not in planted:
            faults.append("not planted")
        if str(promoted_in.get(entry_id)) != origin:
            faults.append(f"entry not promoted in round {origin}")
        if method != "crf":
            faults.append(f"method {method!r}")
        tally.record(faults, f"pair {n} {(informal, formal)}")

    found = {(row[0], row[1]) for row in pairs}
    missed = [pair for pair in inputs.waves[0] if pair not in found]
    tally.require(not missed, f"{len(missed)} wave-0 pairs not found")
    if penalties is None:
        low, high = SEARCH_RANGE
        tally.require(low <= options["l1"] <= high and low <= options["l2"] <= high,
                      f"searched penalties {options['l1']}, {options['l2']} out of range")
    else:
        tally.require((options["l1"], options["l2"]) == penalties,
                      f"penalties {options['l1']}, {options['l2']} != {penalties}")
    tally.require(model["window"] == window, f"model.json window {model['window']} != {window}")


# --- eval -----------------------------------------------------------------


def check_eval(inputs, out: Path, tally: Tally, ks: tuple[int, ...]) -> None:
    """Every rank against a NumPy brute force, every miss note against the
    planted misses, and the summary recomputed from the checked ranks."""
    rows = [line.split("\t") for line in
            (out / "00_vectors.report.tsv").read_text(encoding="utf-8").splitlines()]
    summary = json.loads((out / "00_vectors.summary.json").read_text(encoding="utf-8"))
    tally.require(rows[:1] == [["informal", "formal", "rank", "note"]], "report header")
    rows = rows[1:]
    tally.require(len(rows) == len(inputs.pairs), "report has a row per pair")

    vectors = inputs.quantized / 1000.0
    norms = np.sqrt((vectors * vectors).sum(axis=1))
    index = {word: i for i, word in enumerate(inputs.words)}
    scored = [k for k in range(len(inputs.pairs)) if k not in inputs.misses]
    allowed: dict[int, tuple[int, int]] = {}
    for start in range(0, len(scored), 256):
        chunk = scored[start:start + 256]
        queries = np.array([index[inputs.pairs[k][0]] for k in chunk])
        formals = np.array([index[inputs.pairs[k][1]] for k in chunk])
        cosines = (vectors[queries] @ vectors.T) / (norms[queries][:, None] * norms[None, :])
        cosines[np.arange(len(chunk)), queries] = -np.inf
        target = cosines[np.arange(len(chunk)), formals][:, None]
        above = (cosines > target).sum(axis=1)
        near_above = (cosines > target - TIE_TOLERANCE).sum(axis=1) - 1
        clear_above = (cosines > target + TIE_TOLERANCE).sum(axis=1)
        for j, k in enumerate(chunk):
            near = near_above[j] > clear_above[j]
            low, high = (clear_above[j], near_above[j]) if near else (above[j], above[j])
            allowed[k] = (1 + int(low), 1 + int(high))

    checked: dict[int, int] = {}
    for k, (informal, formal) in enumerate(inputs.pairs):
        row = rows[k] if k < len(rows) else ["", "", "", ""]
        faults = []
        if row[:2] != [informal, formal]:
            faults.append("row out of order")
        if row[3] != inputs.misses.get(k, ""):
            faults.append(f"note {row[3]!r}, planted {inputs.misses.get(k, '')!r}")
        if k in allowed:
            low, high = allowed[k]
            if not row[2].isdigit() or not low <= int(row[2]) <= high:
                faults.append(f"rank {row[2]!r}, brute force gives {low}..{high}")
            else:
                checked[k] = int(row[2])
        elif row[2] != "":
            faults.append("rank given for a miss")
        tally.record(faults, f"pair {k + 1} {(informal, formal)}")

    matched = len(allowed)
    hits = {str(c): sum(rank <= c for rank in checked.values()) for c in ks}
    accuracy = {str(c): hits[str(c)] / matched for c in ks}
    tally.require(summary["matched_pairs"] == matched,
                  f"matched_pairs {summary['matched_pairs']} != {matched}")
    tally.require(summary["hits"] == hits, f"hits {summary['hits']} != {hits}")
    tally.require(summary["accuracy"] == accuracy,
                  f"accuracy {summary['accuracy']} != {accuracy}")
    tally.require(summary["dimension"] == inputs.quantized.shape[1], "dimension")
