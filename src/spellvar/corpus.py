"""Data model and IO for slang dictionary corpora.

A corpus is an ordered collection of dictionary entries.  Each entry pairs a
headword (usually the informal spelling) with a tokenized definition.  Raw
definition text is kept alongside the tokens because the rule-based extractor
matches untokenized text.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

#: Placeholder for annotation fields that no annotator has filled in.
SENTINEL = "_"

METHODS = ("baseline", "bootstrap", "crf")

#: Characters that would split a field of a TSV row, or the row itself.
_TSV_BREAKS = frozenset("\t\r\n")


class CorpusFormatError(ValueError):
    """Malformed corpus, annotation, or word-list input."""


@dataclass(frozen=True)
class Token:
    """One definition token plus its (possibly sentinel) annotations.

    Attributes:
        surface: the token exactly as written.
        lower: case-folded surface, used for all case-insensitive matching.
        lemma: lemma, or ``_`` when unannotated.
        upos: coarse part-of-speech tag, or ``_``.
        xpos: fine-grained tag, or ``_``.
        dep: dependency relation to the head, or ``_``.
        head: 0-based index of the head token inside the same definition;
            the token's own index marks the root (and unparsed tokens).
        is_title: whether the surface is titlecased.
        is_digit: whether the surface is all digits.
    """

    surface: str
    lower: str
    lemma: str
    upos: str
    xpos: str
    dep: str
    head: int
    is_title: bool
    is_digit: bool

    @classmethod
    def from_surface(cls, surface: str, head: int) -> "Token":
        # Positional arguments: keywords make each token about a third slower to build.
        return cls(surface, surface.casefold(), SENTINEL, SENTINEL, SENTINEL, SENTINEL, head,
                   surface.istitle(), surface.isdigit())


@dataclass(frozen=True)
class DictEntry:
    """A single dictionary entry.

    ``definition`` holds the tokenized definition; ``definition_text`` the raw
    string it was produced from.  ``example``, ``author`` and the vote counts
    are optional metadata carried through from the source file.
    """

    headword: str
    definition: tuple[Token, ...]
    definition_text: str
    entry_id: str
    example: str | None = None
    author: str | None = None
    upvotes: int | None = None
    downvotes: int | None = None

    def __post_init__(self) -> None:
        if not self.headword.strip():
            raise CorpusFormatError(f"entry {self.entry_id!r}: empty headword")
        for name in ("upvotes", "downvotes"):
            value = getattr(self, name)
            # ``bool`` is an ``int``, but ``true`` is not a vote count.
            if value is not None and (type(value) is not int or value < 0):
                raise CorpusFormatError(
                    f"entry {self.entry_id!r}: {name} must be a non-negative integer"
                )
        n = len(self.definition)
        for i, tok in enumerate(self.definition):
            if not 0 <= tok.head < n:
                raise CorpusFormatError(
                    f"entry {self.entry_id!r}: token {i} head index {tok.head} out of range"
                )


@dataclass(frozen=True)
class Corpus:
    """An immutable, ordered collection of entries."""

    entries: tuple[DictEntry, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            if entry.entry_id in seen:
                raise CorpusFormatError(f"duplicate entry_id {entry.entry_id!r}")
            seen.add(entry.entry_id)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DictEntry]:
        return iter(self.entries)


@dataclass(frozen=True)
class VariantPair:
    """An extracted (informal, formal) spelling pair with provenance.

    ``iteration`` is the bootstrap/self-training round that produced the pair
    (0 for the rule baseline); ``rule_id`` is set only by the rule baseline.
    """

    informal: str
    formal: str
    score: float
    method: str
    iteration: int = 0
    source_entry: str = ""
    rule_id: str = ""

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.informal.casefold() == self.formal.casefold():
            raise ValueError(f"identity pair {self.informal!r}")
        for name in ("informal", "formal", "source_entry", "rule_id"):
            if not _TSV_BREAKS.isdisjoint(getattr(self, name)):
                raise ValueError(f"field {name!r} holds a tab or line break")
        if not math.isfinite(self.score):
            raise ValueError(f"score {self.score!r} is not finite")
        if self.method == "baseline" and self.score != 1.0:
            raise ValueError("baseline pairs carry score 1.0")
        if self.method == "bootstrap" and self.score < 0.0:
            raise ValueError("bootstrap scores are non-negative")
        if self.method == "crf" and not 0.0 <= self.score <= 1.0:
            raise ValueError("crf scores are marginal probabilities in [0, 1]")


#: One token: a run from an alphanumeric character to the last one before
#: whitespace (``[^\W_]`` is ``str.isalnum``), or any other single
#: non-whitespace character.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")


def tokenize(text: str, built: dict[tuple[str, int], Token] | None = None) -> tuple[Token, ...]:
    """Split ``text`` on whitespace, peeling punctuation off chunk edges.

    Leading and trailing non-alphanumeric characters (straight quotes
    included) become tokens of their own; interior characters are never
    touched, so contractions and in-word digits survive intact.

    Tokens are immutable, so equal ones can be shared: ``built`` maps
    (surface, position) to a token made earlier, and a caller tokenizing
    many texts passes one dict so that each distinct token is built once.
    """
    surfaces = _TOKEN.findall(text)
    built = {} if built is None else built
    tokens: list[Token] = []
    for key in zip(surfaces, range(len(surfaces))):
        token = built.get(key)
        if token is None:
            token = built[key] = Token.from_surface(*key)
        tokens.append(token)
    return tuple(tokens)


def load_jsonl(path: str | Path) -> Corpus:
    """Load a JSON-lines corpus file.

    Every line is one object with required ``word`` and ``definition`` keys
    and optional ``example``, ``author``, ``upvotes``, ``downvotes`` and
    ``entry_id``.  Missing or null ids are synthesized as ``e<line number>``;
    any other id is kept as its string, and an empty one is rejected.
    """
    entries: list[DictEntry] = []
    built: dict[tuple[str, int], Token] = {}
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        try:
            entries.append(_entry_from_json(line, f"e{line_no}", built))
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}: line {line_no}: {exc}") from exc
    try:
        return Corpus(entries=tuple(entries))
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def _entry_from_json(line: str, default_id: str, built: dict[tuple[str, int], Token]) -> DictEntry:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise CorpusFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise CorpusFormatError("record is not an object")
    for field in ("word", "definition"):
        if field not in record:
            raise CorpusFormatError(f"missing field {field!r}")
    text = record["definition"]
    if not isinstance(record["word"], str) or not isinstance(text, str):
        raise CorpusFormatError("'word' and 'definition' must be strings")
    # A JSON escape can spell a lone surrogate, which no output can encode.
    for field, value in record.items():
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CorpusFormatError(f"field {field!r} is not UTF-8 text: {exc}") from exc
            # Both are written to pairs.tsv; ``str`` of a non-string id holds no break.
            if field in ("word", "entry_id") and not _TSV_BREAKS.isdisjoint(value):
                raise CorpusFormatError(f"field {field!r} holds a tab or line break")
    entry_id = record.get("entry_id")
    if entry_id == "":
        raise CorpusFormatError("empty entry_id")
    return DictEntry(
        headword=record["word"],
        definition=tokenize(text, built),
        definition_text=text,
        entry_id=default_id if entry_id is None else str(entry_id),
        example=record.get("example"),
        author=record.get("author"),
        upvotes=record.get("upvotes"),
        downvotes=record.get("downvotes"),
    )


# Closed-class lexicon for :func:`annotate`'s UPOS guesses.  Coverage
# is deliberately small: anything unknown falls through to suffix rules.
_CLOSED_CLASS = {
    "the": "DET", "a": "DET", "an": "DET", "this": "DET", "that": "DET",
    "these": "DET", "those": "DET", "some": "DET", "any": "DET", "each": "DET",
    "every": "DET", "no": "DET", "another": "DET",
    "of": "ADP", "in": "ADP", "on": "ADP", "at": "ADP", "by": "ADP",
    "for": "ADP", "with": "ADP", "from": "ADP", "about": "ADP", "as": "ADP",
    "i": "PRON", "you": "PRON", "he": "PRON", "she": "PRON", "it": "PRON",
    "we": "PRON", "they": "PRON", "your": "PRON", "my": "PRON", "his": "PRON",
    "her": "PRON", "its": "PRON", "their": "PRON", "someone": "PRON",
    "something": "PRON", "anyone": "PRON", "anything": "PRON", "who": "PRON",
    "what": "PRON",
    "and": "CCONJ", "or": "CCONJ", "but": "CCONJ",
    "if": "SCONJ", "because": "SCONJ", "when": "SCONJ", "while": "SCONJ",
    "to": "PART", "not": "PART",
    "is": "AUX", "are": "AUX", "was": "AUX", "were": "AUX", "be": "AUX",
    "been": "AUX", "am": "AUX", "do": "AUX", "does": "AUX", "did": "AUX",
    "have": "AUX", "has": "AUX", "had": "AUX", "will": "AUX", "would": "AUX",
    "can": "AUX", "could": "AUX", "should": "AUX", "may": "AUX", "must": "AUX",
    "very": "ADV", "really": "ADV", "also": "ADV", "just": "ADV", "too": "ADV",
    "so": "ADV", "then": "ADV", "there": "ADV", "here": "ADV",
    "yes": "INTJ", "oh": "INTJ", "hey": "INTJ",
}

_SUFFIX_UPOS = (
    ("ing", "VERB"), ("ed", "VERB"), ("ize", "VERB"), ("ise", "VERB"),
    ("ly", "ADV"),
    ("tion", "NOUN"), ("ness", "NOUN"), ("ment", "NOUN"), ("ity", "NOUN"),
    ("ous", "ADJ"), ("ive", "ADJ"), ("ful", "ADJ"), ("less", "ADJ"),
    ("ish", "ADJ"), ("able", "ADJ"),
)


def _guess_upos(token: Token) -> str:
    if token.is_digit:
        return "NUM"
    if not any(c.isalnum() for c in token.surface):
        return "PUNCT"
    if token.lower in _CLOSED_CLASS:
        return _CLOSED_CLASS[token.lower]
    for suffix, upos in _SUFFIX_UPOS:
        if len(token.lower) > len(suffix) + 1 and token.lower.endswith(suffix):
            return upos
    if token.is_title:
        return "PROPN"
    return "NOUN"


def _fill(tok: Token) -> Token:
    if tok.lemma != SENTINEL and tok.upos != SENTINEL:
        return tok
    # Positional arguments: ``dataclasses.replace`` per token is far slower.
    return Token(tok.surface, tok.lower, tok.lower if tok.lemma == SENTINEL else tok.lemma,
                 _guess_upos(tok) if tok.upos == SENTINEL else tok.upos,
                 tok.xpos, tok.dep, tok.head, tok.is_title, tok.is_digit)


def annotate(corpus: Corpus) -> Corpus:
    """Return ``corpus`` with every token's missing lemma and UPOS filled in.

    A missing lemma becomes the case-folded surface and a missing UPOS a
    heuristic guess; every other field, parsed ones included, is kept.
    Deterministic, hence idempotent.  A token object that several positions
    share, as :func:`load_jsonl` shares them, is filled once, and the filled
    token is shared in its place.
    """
    # Keyed by identity: every key is a token the corpus keeps alive.
    distinct = {id(tok): tok for entry in corpus for tok in entry.definition}
    filled = {key: _fill(tok) for key, tok in distinct.items()}
    return Corpus(entries=tuple(
        replace(entry, definition=tuple(filled[id(tok)] for tok in entry.definition))
        for entry in corpus))


def merge_conllu(corpus: Corpus, annotations_path: str | Path) -> Corpus:
    """Merge pre-parsed annotations into ``corpus`` by position.

    The file holds one block per corpus entry that has tokens, in order,
    with the usual 10-column rows; ``#`` comment lines are skipped.  CoNLL-U
    has no empty sentence, so an entry without tokens has no block and
    passes through unchanged.  Head indices are 1-based in the file with 0
    for the root; internally the root points at itself.
    """
    lines = (item for item in read_lines(annotations_path) if not item[1].startswith("#"))
    blocks = list(read_blocks(annotations_path, lines, 10))
    tokened = sum(1 for entry in corpus if entry.definition)
    if len(blocks) != tokened:
        raise CorpusFormatError(
            f"{annotations_path}: {len(blocks)} annotation blocks for {tokened} entries"
            " with tokens"
        )
    rows_of = iter(blocks)
    entries = []
    for entry in corpus:
        if not entry.definition:
            entries.append(entry)
            continue
        rows = next(rows_of)
        n = len(rows)
        if n != len(entry.definition):
            raise CorpusFormatError(
                f"entry {entry.entry_id!r}: {n} annotation rows for "
                f"{len(entry.definition)} tokens"
            )
        merged: list[Token] = []
        for i, (tok, (_, row)) in enumerate(zip(entry.definition, rows)):
            _, surface, lemma, upos, xpos, _, head_str, dep = row[:8]
            if surface != tok.surface:
                raise CorpusFormatError(
                    f"entry {entry.entry_id!r}: surface mismatch at token {i}: "
                    f"{tok.surface!r} vs {surface!r}"
                )
            try:
                head_file = int(head_str)
            except ValueError as exc:
                raise CorpusFormatError(
                    f"entry {entry.entry_id!r}: non-integer head {head_str!r} at token {i}"
                ) from exc
            if not 0 <= head_file <= n:
                raise CorpusFormatError(
                    f"entry {entry.entry_id!r}: head index {head_file} out of range at token {i}"
                )
            head = i if head_file == 0 else head_file - 1
            merged.append(Token(tok.surface, tok.lower, lemma, upos, xpos, dep, head,
                                tok.is_title, tok.is_digit))
        entries.append(replace(entry, definition=tuple(merged)))
    return Corpus(entries=tuple(entries))


def load_conllu(corpus_path: str | Path, annotations_path: str | Path) -> Corpus:
    """Load a JSONL corpus and merge positional annotations in one step."""
    return merge_conllu(load_jsonl(corpus_path), annotations_path)


def write_conllu(corpus: Corpus, path: str | Path) -> None:
    """Write one 10-column block per entry, blank-line separated."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in corpus:
            for i, tok in enumerate(entry.definition):
                head = 0 if tok.head == i else tok.head + 1
                handle.write("\t".join([
                    str(i + 1), tok.surface, tok.lemma, tok.upos, tok.xpos,
                    SENTINEL, str(head), tok.dep, SENTINEL, SENTINEL,
                ]) + "\n")
            handle.write("\n")


def write_jsonl(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry in corpus:
            record: dict[str, object] = {
                "word": entry.headword,
                "definition": entry.definition_text,
                "entry_id": entry.entry_id,
            }
            for field in ("example", "author", "upvotes", "downvotes"):
                value = getattr(entry, field)
                if value is not None:
                    record[field] = value
            handle.write(json.dumps(record) + "\n")


def read_word_list(path: str | Path) -> frozenset[str]:
    """Read one word per line, case-folded; ``#`` comments and blank lines
    are skipped."""
    words: set[str] = set()
    for _, line in read_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.casefold())
    return frozenset(words)


def read_seed_pairs(path: str | Path) -> list[tuple[str, str]]:
    """Read tab-separated (informal, formal) rows, case-folded."""
    seeds: list[tuple[str, str]] = []
    for line_no, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise CorpusFormatError(f"{path}: line {line_no}: expected two tab-separated fields")
        informal, formal = parts[0].strip().casefold(), parts[1].strip().casefold()
        _check_sides(path, line_no, informal, formal)
        if informal == formal:
            raise CorpusFormatError(f"{path}: line {line_no}: identity pair {informal!r}")
        seeds.append((informal, formal))
    if not seeds:
        raise CorpusFormatError(f"{path}: no seed pairs")
    return seeds


def _check_sides(path: str | Path, line_no: int, informal: str, formal: str) -> None:
    for side, value in (("informal", informal), ("formal", formal)):
        if not value.strip():
            raise CorpusFormatError(f"{path}: line {line_no}: empty {side} side")


#: What ``errors="surrogateescape"`` makes of a byte that does not decode.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def read_lines(
    path: str | Path, error: type[Exception] = CorpusFormatError
) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` of a UTF-8 text file, 1-based.

    A leading byte-order mark is dropped.  A byte that is not UTF-8 raises
    ``error`` naming the file and its line: the decoder reports only an
    offset into the chunk it was decoding, so the file is read again with
    each such byte kept as an escape, and the first line holding one is
    named.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            yield from enumerate(handle, start=1)
    except UnicodeDecodeError as exc:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            line_no, byte = next(
                (line_no, match.group())
                for line_no, line in enumerate(handle, start=1)
                if (match := _ESCAPED_BYTE.search(line))
            )
        raise error(
            f"{path}: line {line_no}: not UTF-8: byte 0x{ord(byte) - 0xDC00:02x}"
        ) from exc


def read_blocks(
    path: str | Path, lines: Iterable[tuple[int, str]], width: int
) -> Iterator[list[tuple[int, list[str]]]]:
    """Group numbered ``lines`` of ``path`` into blocks separated by blank
    lines; each row is its line number and its ``width`` tab-separated fields."""
    block: list[tuple[int, list[str]]] = []
    for line_no, line in lines:
        if not line.strip():
            if block:
                yield block
                block = []
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != width:
            raise CorpusFormatError(
                f"{path}: line {line_no}: expected {width} tab-separated columns, got {len(fields)}"
            )
        block.append((line_no, fields))
    if block:
        yield block


_PAIRS_HEADER = ("informal", "formal", "score", "method", "origin", "entry_id")


def write_pairs_tsv(pairs: Iterable[VariantPair], path: str | Path) -> None:
    """Write pairs as TSV; the ``origin`` column holds the baseline rule id
    or the bootstrap/self-training iteration."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\t".join(_PAIRS_HEADER) + "\n")
        for pair in pairs:
            origin = pair.rule_id if pair.method == "baseline" else str(pair.iteration)
            handle.write("\t".join([
                pair.informal, pair.formal, repr(pair.score), pair.method,
                origin, pair.source_entry,
            ]) + "\n")


def read_pairs_tsv(path: str | Path) -> list[VariantPair]:
    pairs: list[VariantPair] = []
    for line_no, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if line_no == 1 and parts[0] == _PAIRS_HEADER[0]:
            continue
        if len(parts) < 2:
            raise CorpusFormatError(f"{path}: line {line_no}: expected tab-separated pair row")
        informal, formal = parts[0], parts[1]
        _check_sides(path, line_no, informal, formal)
        method = parts[3] if len(parts) > 3 else "baseline"
        origin = parts[4] if len(parts) > 4 else ""
        source = parts[5] if len(parts) > 5 else ""
        # A bootstrap or self-training origin is the round; an absent one reads as 0.
        iterated = method in ("bootstrap", "crf") and origin != ""
        try:
            if iterated and not (origin.isascii() and origin.isdigit()):
                raise ValueError(f"origin {origin!r} is not an iteration number")
            pairs.append(VariantPair(
                informal=informal,
                formal=formal,
                score=float(parts[2]) if len(parts) > 2 else 1.0,
                method=method,
                iteration=int(origin) if iterated else 0,
                source_entry=source,
                rule_id=origin if method == "baseline" else "",
            ))
        except ValueError as exc:
            raise CorpusFormatError(f"{path}: line {line_no}: {exc}") from exc
    return pairs
