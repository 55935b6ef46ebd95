"""Seeded input generators for the benchmark workloads.

The generators are the benchmark's own and import nothing from ``spellvar``,
so a change to the program cannot change the inputs it is measured on.  They
write the plain formats the CLI reads: JSON-lines corpora, TSV seed and pair
files, tab-separated tag files, word lists and word2vec-text tables.  Every
word they write is lowercase and free of punctuation, so a definition's
tokens are exactly its whitespace-separated words.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import edit_distance

CONSONANTS = "bcdfghjklmnpqrstvwz"
VOWELS = "aeiou"

#: Stopwords the bootstrap workload passes with ``--stopwords``; the trap
#: entries put each of them in a template slot.
STOPWORDS = ("the", "something", "someone", "this", "that", "with", "a", "of", "for")
TRAP_WORDS = ("the", "something", "someone", "this", "that", "with")

#: Size of the vocabulary filler-only bootstrap entries draw from.
FILLER_VOCAB = 3000

#: Defining idioms around the slot of a planted bootstrap pair.
BOOT_TEMPLATES = (
    ("a", "way", "of", "saying"),
    ("another", "word", "for"),
    ("short", "for"),
)

#: Self-training context triples, slot last.  Wave 0 is the gold template;
#: each later wave shares one context word fewer with it.
WAVE_CONTEXTS = (
    ("tavi", "melo", "kure"),
    ("tavi", "melo", "sado"),
    ("bine", "melo", "sado"),
    ("bine", "fupa", "sado"),
)


def nonsense(rng: random.Random, seen: set[str], low: int = 2, high: int = 4) -> str:
    """A fresh word of ``low`` to ``high`` consonant-vowel syllables, not in
    ``seen``; it is added to ``seen``.

    The word ends in a, o or u, so no English suffix (-ed, -ize, -ive, -ful)
    appears by chance: a suffix shifts the part of speech a heuristic tagger
    guesses, and with it the tagger's training cost."""
    while True:
        n = rng.randint(low, high)
        syllables = [rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n - 1)]
        word = "".join(syllables) + rng.choice(CONSONANTS) + rng.choice("aou")
        if word not in seen:
            seen.add(word)
            return word


def informal_of(formal: str) -> str:
    """Drop the interior vowels: an edit-close informal spelling."""
    return formal[0] + "".join(c for c in formal[1:-1] if c not in VOWELS) + formal[-1]


def new_pair(rng: random.Random, seen: set[str]) -> tuple[str, str]:
    while True:
        formal = nonsense(rng, seen)
        informal = informal_of(formal)
        if informal != formal and informal not in seen:
            seen.add(informal)
            return informal, formal


def write_jsonl(path: Path, rows: list[tuple[str, str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry_id, word, text in rows:
            record = {"word": word, "definition": text, "entry_id": entry_id}
            handle.write(json.dumps(record) + "\n")


def write_word_pairs(path: Path, pairs: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for informal, formal in pairs:
            handle.write(f"{informal}\t{formal}\n")


def write_lines(path: Path, words) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for word in words:
            handle.write(f"{word}\n")


@dataclass
class BootstrapInputs:
    """What the bootstrap checks need besides the files."""

    entries: dict[str, tuple[str, list[str]]]  # entry id -> (headword, tokens)
    truth: list[tuple[str, str]]
    seeds: list[tuple[str, str]]
    stopwords: frozenset[str] = frozenset(STOPWORDS)


def bootstrap_corpus(
    out: Path,
    seed: int,
    n_entries: int,
    n_pairs: int,
    n_seeds: int,
    window: int,
    tau: float,
) -> BootstrapInputs:
    """Varied-context corpus: each planted pair occurs once under every
    template, with one to three filler words before it and ``window`` after
    the slot.

    The words around a slot are fresh, used nowhere else, so every context
    that reaches past a template is new and the pattern count grows with the
    corpus.  Being unique, such a context extracts one tuple, scores 0 and is
    never pooled; only the templates are, whatever the seed.  (A filler
    shared by two seed pairs' contexts would outscore the templates, and the
    run would then depend on the seed.)  Trap entries put a stopword in the
    slot under a headword whose normalized edit distance to it is at least
    ``tau``, so the stopword gate must drop them; the rest of the corpus is
    filler only, drawn from ``FILLER_VOCAB`` other words.
    Writes ``corpus.jsonl``, ``seeds.tsv`` and ``stopwords.txt``.
    """
    planted = n_pairs * len(BOOT_TEMPLATES) + len(TRAP_WORDS)
    if n_entries < planted:
        raise ValueError(f"need at least {planted} entries")
    rng = random.Random(seed)
    seen = set(STOPWORDS) | {w for t in BOOT_TEMPLATES for w in t}
    fillers = [nonsense(rng, seen) for _ in range(FILLER_VOCAB)]

    def around(slot_word: str, template: tuple[str, ...]) -> list[str]:
        before = [nonsense(rng, seen) for _ in range(rng.randint(1, 3))]
        after = [nonsense(rng, seen) for _ in range(window)]
        return before + list(template) + [slot_word] + after

    pairs = [new_pair(rng, seen) for _ in range(n_pairs)]
    # A slot always has `window` words after it, so every occurrence of a
    # pooled pair yields the same number of patterns whatever the seed.
    rows: list[tuple[str, list[str]]] = []
    for informal, formal in pairs:
        for template in BOOT_TEMPLATES:
            rows.append((informal, around(formal, template)))
    for stopword in TRAP_WORDS:
        headword = nonsense(rng, seen, 4, 4)
        while edit_distance(headword, stopword) < (len(headword) + len(stopword)) * tau:
            headword = nonsense(rng, seen, 4, 4)
        rows.append((headword, around(stopword, rng.choice(BOOT_TEMPLATES))))
    while len(rows) < n_entries:
        rows.append((nonsense(rng, seen),
                     [rng.choice(fillers) for _ in range(rng.randint(5, 11))]))
    rng.shuffle(rows)

    entries = {f"b{i:05d}": (word, tokens) for i, (word, tokens) in enumerate(rows, 1)}
    write_jsonl(out / "corpus.jsonl",
                [(eid, word, " ".join(toks)) for eid, (word, toks) in entries.items()])
    seeds = pairs[:n_seeds]
    write_word_pairs(out / "seeds.tsv", seeds)
    write_lines(out / "stopwords.txt", STOPWORDS)
    return BootstrapInputs(entries=entries, truth=pairs, seeds=seeds)


@dataclass
class SelftrainInputs:
    gold_ids: set[str]
    entries: dict[str, tuple[str, list[str]]]  # unlabeled id -> (headword, tokens)
    waves: list[list[tuple[str, str]]]  # planted (informal, formal) per wave
    n_gold: int
    n_unlabeled: int


def selftrain_sets(
    out: Path,
    seed: int,
    n_gold_positive: int,
    n_gold_negative: int,
    n_waves: int,
    wave_size: int,
    n_distractors: int,
) -> SelftrainInputs:
    """Gold and unlabeled sets in the waves design.

    Gold positives put a fresh formal word after the wave-0 context triple
    and tag it I; gold negatives and distractors are filler only.  Unlabeled
    wave ``k`` uses context triple ``k``, which shares ``3 - k`` words with
    the gold one.  Writes ``gold.jsonl``, ``gold.tags`` and
    ``unlabeled.jsonl``.

    The seed draws the spellings and the order of the unlabeled entries;
    the lengths and the places of the filler words are fixed.  Every seed
    thus poses the same training problem up to a renaming of words, and the
    optimizer's iteration count, which sets the cost, does not vary with it.
    """
    rng = random.Random(seed)
    seen = {w for triple in WAVE_CONTEXTS for w in triple}
    fillers = [nonsense(rng, seen) for _ in range(30)]
    made = 0

    def filler() -> list[str]:
        nonlocal made
        made += 1
        return [fillers[(7 * made + 3 * j) % len(fillers)] for j in range(3 + made % 4)]

    gold: list[tuple[str, str, list[str], list[str]]] = []
    for i in range(n_gold_positive):
        informal, formal = new_pair(rng, seen)
        tokens = [*WAVE_CONTEXTS[0], formal]
        gold.append((f"g{i + 1:05d}", informal, tokens, ["O", "O", "O", "I"]))
    for i in range(n_gold_negative):
        tokens = filler()
        gold.append((f"g{n_gold_positive + i + 1:05d}", nonsense(rng, seen), tokens,
                     ["O"] * len(tokens)))

    unlabeled: list[tuple[str, list[str]]] = []
    waves: list[list[tuple[str, str]]] = []
    for wave in range(n_waves):
        planted = [new_pair(rng, seen) for _ in range(wave_size)]
        waves.append(planted)
        unlabeled.extend((inf, [*WAVE_CONTEXTS[wave], formal]) for inf, formal in planted)
    unlabeled.extend((nonsense(rng, seen), filler()) for _ in range(n_distractors))
    rng.shuffle(unlabeled)
    entries = {f"u{i:05d}": row for i, row in enumerate(unlabeled, 1)}

    write_jsonl(out / "gold.jsonl", [(gid, word, " ".join(t)) for gid, word, t, _ in gold])
    with open(out / "gold.tags", "w", encoding="utf-8") as handle:
        for _, _, tokens, tags in gold:
            handle.writelines(f"{tok}\t{tag}\n" for tok, tag in zip(tokens, tags))
            handle.write("\n")
    write_jsonl(out / "unlabeled.jsonl",
                [(eid, word, " ".join(toks)) for eid, (word, toks) in entries.items()])
    return SelftrainInputs(
        gold_ids={gid for gid, _, _, _ in gold},
        entries=entries,
        waves=waves,
        n_gold=len(gold),
        n_unlabeled=len(entries),
    )


@dataclass
class EvalInputs:
    words: list[str]  # table rows in file order
    quantized: np.ndarray  # int64 components; the file holds them / 1000
    pairs: list[tuple[str, str]]
    misses: dict[int, str]  # pair index -> expected miss note


def _decimal(value: int) -> str:
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), 1000)
    return f"{sign}{whole}.{frac:03d}"


def embedding_table(
    out: Path,
    seed: int,
    n_rows: int,
    dim: int,
    n_pairs: int,
    n_each_miss: int,
    n_tied: int,
) -> EvalInputs:
    """A word2vec-text table plus a pair file and a formal vocabulary.

    Each planted informal vector is its formal vector plus noise whose scale
    rises evenly across the pairs, so ranks spread from 1 to far past the
    largest cutoff.  ``n_tied`` other rows copy a formal word's vector
    exactly, which exercises the tie rule.  Among the pairs, ``n_each_miss``
    each have the formal word outside the vocabulary, the informal word
    missing from the table, and the formal word (in the vocabulary) missing
    from the table.  Components are written with three decimals, and the
    returned integer matrix holds exactly the values written, times 1000.
    Writes ``vectors.txt``, ``pairs.tsv`` and ``vocab.txt``.
    """
    n_missing_rows = 2 * n_each_miss
    if 2 * n_pairs + n_tied > n_rows + n_missing_rows:
        raise ValueError("table too small for the planted pairs")
    rng = np.random.default_rng(seed)
    names = [f"w{i:06d}" for i in rng.permutation(n_rows + n_missing_rows)]
    table_words, absent = names[:n_rows], names[n_rows:]

    base = rng.standard_normal((n_rows, dim))
    informal_rows = np.arange(0, 2 * n_pairs, 2)
    formal_rows = informal_rows + 1
    noise = np.linspace(0.0, 4.0, n_pairs)[rng.permutation(n_pairs)]
    base[informal_rows] = base[formal_rows] + noise[:, None] * rng.standard_normal((n_pairs, dim))
    quantized = np.rint(base * 1000).astype(np.int64)
    tied_rows = np.arange(2 * n_pairs, 2 * n_pairs + n_tied)
    tied_sources = rng.choice(formal_rows, size=n_tied, replace=False)
    quantized[tied_rows] = quantized[tied_sources]

    pairs = [(table_words[i], table_words[f]) for i, f in zip(informal_rows, formal_rows)]
    misses: dict[int, str] = {}
    order = [int(k) for k in rng.permutation(n_pairs)]
    for k in order[:n_each_miss]:
        misses[k] = "formal-not-in-vocab"
    for j, k in enumerate(order[n_each_miss:2 * n_each_miss]):
        pairs[k] = (absent[j], pairs[k][1])
        misses[k] = "informal-not-in-table"
    for j, k in enumerate(order[2 * n_each_miss:3 * n_each_miss]):
        pairs[k] = (pairs[k][0], absent[n_each_miss + j])
        misses[k] = "formal-not-in-table"
    vocab = {formal for k, (_, formal) in enumerate(pairs)
             if misses.get(k) != "formal-not-in-vocab"}
    vocab.update(table_words[2 * n_pairs:4 * n_pairs])

    row_order = rng.permutation(n_rows)
    words = [table_words[r] for r in row_order]
    quantized = quantized[row_order]
    with open(out / "vectors.txt", "w", encoding="utf-8") as handle:
        handle.write(f"{n_rows} {dim}\n")
        for word, row in zip(words, quantized.tolist()):
            handle.write(word + " " + " ".join(map(_decimal, row)) + "\n")
    with open(out / "pairs.tsv", "w", encoding="utf-8") as handle:
        handle.write("informal\tformal\tscore\tmethod\torigin\tentry_id\n")
        for k, (informal, formal) in enumerate(pairs):
            handle.write(f"{informal}\t{formal}\t1.0\tbootstrap\t1\tp{k:05d}\n")
    write_lines(out / "vocab.txt", sorted(vocab))
    return EvalInputs(words=words, quantized=quantized, pairs=pairs, misses=misses)
