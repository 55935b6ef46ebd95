"""Read and write labeled tagging data.

The file format is one ``surface<TAB>tag`` row per token with blank lines
between sequences; tags are I (part of a formal spelling) or O.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from spellvar.corpus import CorpusFormatError, read_blocks, read_lines
from spellvar.crf.model import LABELS

LabeledBlock = tuple[tuple[str, ...], tuple[str, ...]]


def read_labeled_file(path: str | Path) -> list[LabeledBlock]:
    blocks: list[LabeledBlock] = []
    for rows in read_blocks(path, read_lines(path), 2):
        for line_no, (_, tag) in rows:
            if tag not in LABELS:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: tag must be one of {LABELS}, got {tag!r}"
                )
        surfaces, tags = zip(*(fields for _, fields in rows))
        blocks.append((surfaces, tags))
    return blocks


def write_labeled_file(blocks: Iterable[Sequence[Sequence[str]]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for surfaces, tags in blocks:
            for surface, tag in zip(surfaces, tags):
                handle.write(f"{surface}\t{tag}\n")
            handle.write("\n")
