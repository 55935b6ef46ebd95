"""Shared builders for test corpora."""

from __future__ import annotations

from spellvar.corpus import Corpus, DictEntry, tokenize
from spellvar.crf import CrfModel

#: Features of a sequence that :func:`above_one_model` tags I I O.
ABOVE_ONE_FEATURES = [["f"], ["g"], ["f"]]


def make_entry(headword: str, text: str, entry_id: str = "e1") -> DictEntry:
    return DictEntry(
        headword=headword,
        definition=tokenize(text),
        definition_text=text,
        entry_id=entry_id,
    )


def make_corpus(*rows: tuple[str, str]) -> Corpus:
    entries = tuple(
        make_entry(headword, text, f"e{i}")
        for i, (headword, text) in enumerate(rows, start=1)
    )
    return Corpus(entries=entries)


def above_one_model() -> CrfModel:
    """A model under which ``exp(alpha + beta - log_z)``, the kernel's
    posterior P(I), rounds to 1.0000000000000036 at both I positions of
    :data:`ABOVE_ONE_FEATURES`."""
    return CrfModel.from_weights(
        {("f", "I"): -10.0, ("f", "O"): 0.0, ("g", "I"): 0.0, ("g", "O"): 0.0},
        {("I", "I"): 20.0, ("I", "O"): 10.0, ("O", "I"): -30.0, ("O", "O"): -30.0})
