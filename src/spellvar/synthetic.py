"""Deterministic synthetic corpora with planted variant pairs.

Definitions are built from a few defining templates ("a way of saying X")
around generated nonsense word pairs, padded with filler-only distractor
entries whose vocabulary never overlaps the template contexts.  Ground truth
comes back alongside the corpus, which makes recall and precision measurable
without hand labeling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from spellvar.bootstrap import normalized_levenshtein
from spellvar.corpus import Corpus, DictEntry, tokenize

BOOTSTRAP_TEMPLATES = (
    "a way of saying {}",
    "another word for {}",
    "short for {}",
)

#: Stopwords used as decoy slot fillers; all present in the packaged list.
TRAP_STOPWORDS = ("the", "something", "someone", "this", "that", "with")

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


def _nonsense_word(rng: random.Random, seen: set[str], min_len: int = 5, max_len: int = 8) -> str:
    while True:
        length = rng.randint(min_len, max_len)
        word = "".join(
            rng.choice(_CONSONANTS if i % 2 == 0 else _VOWELS) for i in range(length)
        )
        if word not in seen:
            seen.add(word)
            return word


def _informal_variant(formal: str) -> str:
    # Drop interior vowels: "badofu" -> "bdfu"; cheap but edit-close.
    return formal[0] + "".join(c for c in formal[1:-1] if c not in _VOWELS) + formal[-1]


def _make_entry(headword: str, text: str, entry_id: str) -> DictEntry:
    return DictEntry(
        headword=headword,
        definition=tokenize(text),
        definition_text=text,
        entry_id=entry_id,
    )


@dataclass(frozen=True)
class PlantedCorpus:
    """A corpus with known planted pairs and decoys."""

    corpus: Corpus
    truth: tuple[tuple[str, str], ...]
    seeds: tuple[tuple[str, str], ...]
    traps: tuple[tuple[str, str], ...]


def bootstrap_fixture(
    n_entries: int = 200,
    n_pairs: int = 40,
    n_seeds: int = 5,
    n_traps: int = 6,
    seed: int = 0,
) -> PlantedCorpus:
    """Corpus where every planted pair occurs once under each template.

    Trap entries put a stopword in the slot so the edit-distance constraint
    has something to reject; distractors are template-free filler.
    """
    planted = n_pairs * len(BOOTSTRAP_TEMPLATES) + n_traps
    if not 0 < n_seeds <= n_pairs:
        raise ValueError("need 0 < n_seeds <= n_pairs")
    if not 0 <= n_traps <= len(TRAP_STOPWORDS):
        raise ValueError(f"need 0 <= n_traps <= {len(TRAP_STOPWORDS)}")
    if n_entries < planted:
        raise ValueError(f"n_entries must be at least {planted} to hold the planted entries")

    rng = random.Random(seed)
    seen: set[str] = set(TRAP_STOPWORDS)
    pairs: list[tuple[str, str]] = []
    while len(pairs) < n_pairs:
        formal = _nonsense_word(rng, seen)
        informal = _informal_variant(formal)
        if informal == formal or informal in seen:
            continue
        seen.add(informal)
        pairs.append((informal, formal))

    rows: list[tuple[str, str]] = []
    for informal, formal in pairs:
        for template in BOOTSTRAP_TEMPLATES:
            rows.append((informal, template.format(formal)))

    traps: list[tuple[str, str]] = []
    for stopword in TRAP_STOPWORDS[:n_traps]:
        while True:
            headword = _nonsense_word(rng, seen, 6, 8)
            if normalized_levenshtein(headword, stopword) >= 0.5:
                break
        template = BOOTSTRAP_TEMPLATES[rng.randrange(len(BOOTSTRAP_TEMPLATES))]
        traps.append((headword, stopword))
        rows.append((headword, template.format(stopword)))

    fillers = [_nonsense_word(rng, seen) for _ in range(30)]
    while len(rows) < n_entries:
        headword = _nonsense_word(rng, seen)
        text = " ".join(rng.choice(fillers) for _ in range(rng.randint(4, 7)))
        rows.append((headword, text))

    rng.shuffle(rows)
    entries = tuple(
        _make_entry(headword, text, f"e{i:04d}")
        for i, (headword, text) in enumerate(rows, start=1)
    )
    return PlantedCorpus(
        corpus=Corpus(entries=entries),
        truth=tuple(pairs),
        seeds=tuple(pairs[:n_seeds]),
        traps=tuple(traps),
    )


# Context word triples for the self-training templates; a template is the
# triple followed by the slot, e.g. "zelu rona sibo {}".  Wave 0 repeats the
# gold template.  Wave 1 shares two of its three context words with it: under
# an elastic net sized so that three known context words clear a 0.9
# confidence threshold but two do not, wave 1 is promoted only after wave 0
# has been absorbed and the shared weights have grown.  Waves 2+ share one
# word, which never suffices; they stay unlabeled and guard against
# indiscriminate promotion.  All context words are nonsense so their guessed
# part of speech is identical; otherwise tag features would leak evidence
# between templates.
SELFTRAIN_CONTEXTS = (
    ("zelu", "rona", "sibo"),
    ("zelu", "rona", "dake"),
    ("mevo", "rona", "dake"),
    ("mevo", "puki", "dake"),
)


def _wave_template(wave: int) -> str:
    return " ".join(SELFTRAIN_CONTEXTS[wave]) + " {}"


@dataclass(frozen=True)
class SelfTrainFixture:
    """Gold tagging data plus an unlabeled corpus with staged difficulty.

    Unlabeled entries come in waves: wave 0 repeats the gold template with
    fresh slot words, wave 1 shares two of its context words, and later
    waves share only one.  ``waves`` maps ``"wave<k>"`` to the planted
    entry ids.
    """

    gold: tuple[tuple[DictEntry, tuple[str, ...]], ...]
    unlabeled: Corpus
    truth: tuple[tuple[str, str], ...]
    waves: dict[str, tuple[str, ...]]


def _tagged_entry(
    headword: str, text: str, entry_id: str, formal: str
) -> tuple[DictEntry, tuple[str, ...]]:
    entry = _make_entry(headword, text, entry_id)
    tags = tuple("I" if tok.lower == formal else "O" for tok in entry.definition)
    return entry, tags


def selftrain_fixture(
    n_gold_positive: int = 20,
    n_gold_negative: int = 20,
    n_waves: int = 3,
    wave_size: int = 6,
    n_distractors: int = 12,
    seed: int = 0,
) -> SelfTrainFixture:
    if not 2 <= n_waves <= len(SELFTRAIN_CONTEXTS):
        raise ValueError(f"n_waves must lie in [2, {len(SELFTRAIN_CONTEXTS)}]")
    rng = random.Random(seed)
    seen: set[str] = {word for triple in SELFTRAIN_CONTEXTS for word in triple}
    fillers = [_nonsense_word(rng, seen) for _ in range(30)]

    def new_pair() -> tuple[str, str]:
        while True:
            formal = _nonsense_word(rng, seen)
            informal = _informal_variant(formal)
            if informal != formal and informal not in seen:
                seen.add(informal)
                return informal, formal

    def filler_text() -> str:
        return " ".join(rng.choice(fillers) for _ in range(rng.randint(3, 6)))

    counter = 0

    def next_id(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter:04d}"

    gold: list[tuple[DictEntry, tuple[str, ...]]] = []
    for _ in range(n_gold_positive):
        informal, formal = new_pair()
        gold.append(_tagged_entry(
            informal, _wave_template(0).format(formal), next_id("g"), formal
        ))
    # Negatives end in a plain noun so end-of-sentence position alone is not
    # evidence for the I label.
    for _ in range(n_gold_negative):
        entry = _make_entry(_nonsense_word(rng, seen), filler_text(), next_id("g"))
        gold.append((entry, tuple("O" for _ in entry.definition)))

    unlabeled: list[DictEntry] = []
    truth: list[tuple[str, str]] = []
    waves: dict[str, list[str]] = {}
    for wave in range(n_waves):
        for _ in range(wave_size):
            informal, formal = new_pair()
            entry = _make_entry(
                informal, _wave_template(wave).format(formal), next_id("u")
            )
            unlabeled.append(entry)
            truth.append((informal, formal))
            waves.setdefault(f"wave{wave}", []).append(entry.entry_id)

    for _ in range(n_distractors):
        entry = _make_entry(_nonsense_word(rng, seen), filler_text(), next_id("u"))
        unlabeled.append(entry)

    rng.shuffle(unlabeled)
    return SelfTrainFixture(
        gold=tuple(gold),
        unlabeled=Corpus(entries=tuple(unlabeled)),
        truth=tuple(truth),
        waves={wave: tuple(ids) for wave, ids in waves.items()},
    )
