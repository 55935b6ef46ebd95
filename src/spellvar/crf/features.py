"""Feature templates for the sequence tagger.

Features are plain strings of the form ``template=value``, with context
templates carrying a signed offset prefix (``-1:word.lower=saying``).
Templates whose annotation field is still the sentinel are skipped, so the
same templates serve fully parsed tokens and tokens whose lemma and UPOS
alone :func:`spellvar.corpus.fill` guessed.

:func:`extract_features` lists the strings of one entry as given.
:func:`feature_ids` interns a whole corpus to integer ids, working per
distinct token rather than per occurrence: a token's templates depend only on
the token and its head token, so each distinct (token, head token) pair is
filled as :func:`spellvar.corpus.annotate` fills it and its templates are
built once, each distinct template list is interned once per offset that
lists it, and every position's ids are put together from those runs with
array operations.  The corpus itself is neither filled nor copied.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from spellvar.corpus import SENTINEL, DictEntry, Token, fill
from spellvar.crf.kernel import FeatureIds, IdSequences, ranges

#: One feature list per token position.
FeatureSet = list[list[str]]

#: Positions whose ids :func:`feature_ids` puts together in one pass, so that
#: its index arrays stay small whatever the corpus size.
_ASSEMBLY_CHUNK = 1 << 14


def _templates(tok: Token, head: Token, context: bool) -> list[str]:
    feats = [
        f"word.lower={tok.lower}",
        f"word.istitle={tok.is_title}",
        f"word.isdigit={tok.is_digit}",
    ]
    if tok.upos != SENTINEL:
        feats.append(f"pos_={tok.upos}")
    if tok.xpos != SENTINEL:
        feats.append(f"tag_={tok.xpos}")
    if not context and tok.dep != SENTINEL:
        feats.append(f"dep_={tok.dep}")
    if tok.lemma != SENTINEL:
        feats.append(f"lemma_={tok.lemma}")
    feats.append(f"head_text={head.surface}")
    if head.upos != SENTINEL:
        feats.append(f"head_pos={head.upos}")
    if not context and head.xpos != SENTINEL:
        feats.append(f"head_tag={head.xpos}")
    return feats


def extract_features(entry: DictEntry, window: int = 1) -> FeatureSet:
    """Build per-position feature lists with context up to ``window`` tokens
    away, plus a constant bias and sentence-boundary markers, from the
    entry's tokens as given: nothing is filled.  The strings of a position
    are distinct: templates differ in name, offsets in prefix."""
    definition = entry.definition
    n = len(definition)
    # Each token's context templates, made once for all its neighbours.
    context = [_templates(tok, definition[tok.head], context=True) for tok in definition]
    out: FeatureSet = []
    for i, tok in enumerate(definition):
        feats = ["bias"]
        feats.extend(_templates(tok, definition[tok.head], context=False))
        for offset in range(1, min(window, n - 1) + 1):
            if i - offset >= 0:
                feats.extend(map(f"-{offset}:".__add__, context[i - offset]))
            if i + offset < n:
                feats.extend(map(f"+{offset}:".__add__, context[i + offset]))
        if i == 0:
            feats.append("-1:BOS")
        if i == n - 1:
            feats.append("+1:EOS")
        out.append(feats)
    return out


def feature_ids(entries: Sequence[DictEntry], window: int = 1) -> IdSequences:
    """The features of every entry, filled, as ids: position by position, the
    ids of the strings :func:`extract_features` lists for
    ``annotate(Corpus(entries))``, in its order, under a fresh vocabulary.
    Only the numbering of the ids may differ from ``FeatureIds().intern`` of
    those lists, since no position lists a string twice."""
    # Each distinct (token, head token) pair, by identity, filled once: the
    # entries keep every token alive, so no id is reused meanwhile.
    pair_keys: dict[tuple[int, int], int] = {}
    pairs: list[tuple[Token, Token]] = []
    keys, lengths = array("i"), array("i")
    for entry in entries:
        definition = entry.definition
        lengths.append(len(definition))
        for tok in definition:
            head = definition[tok.head]
            key = pair_keys.setdefault((id(tok), id(head)), len(pairs))
            if key == len(pairs):
                pairs.append((fill(tok), fill(head)))
            keys.append(key)

    # Each pair's own and context template lists, numbered by value, and each
    # position's lists.
    def numbered(context: bool) -> tuple[list[tuple[str, ...]], np.ndarray]:
        number: dict[tuple[str, ...], int] = {}
        of_pair = np.fromiter((number.setdefault(tuple(_templates(tok, head, context)),
                                                 len(number)) for tok, head in pairs),
                              dtype=np.int32, count=len(pairs))
        return list(number), of_pair.take(np.frombuffer(keys, dtype=np.int32))

    own_lists, own = numbered(context=False)
    context_lists, context = numbered(context=True)
    lengths = np.frombuffer(lengths, dtype=np.int32)
    n_tokens = np.repeat(lengths, lengths)
    index = np.arange(len(n_tokens), dtype=np.int32) - np.repeat(
        np.cumsum(lengths, dtype=np.int32) - lengths, lengths)
    reach = max(0, min(window, int(lengths.max(initial=0)) - 1))
    # Context columns in listed order: -1, +1, -2, +2, ...; each with the step
    # to the neighbour and the positions that have one.
    columns = [(step, (index + step >= 0) & (index + step < n_tokens))
               for offset in range(1, reach + 1) for step in (-offset, offset)]

    # ``pool`` holds every run of ids a position lists, each once.
    vocabulary = FeatureIds()
    pool = array("i")

    def run(strings) -> int:
        pool.extend(vocabulary.ids(strings))
        return len(pool) - len(strings)

    bias, bos, eos = run(["bias"]), run(["-1:BOS"]), run(["+1:EOS"])
    own_start = np.array([run(strings) for strings in own_lists], dtype=np.intp)
    own_size = np.array([len(strings) for strings in own_lists], dtype=np.intp)
    context_size = np.array([len(strings) for strings in context_lists], dtype=np.intp)
    context_start = np.zeros((len(context_lists), len(columns)), dtype=np.intp)
    for column, (step, has) in enumerate(columns):
        used = np.zeros(len(context_lists), dtype=bool)
        used[context[np.flatnonzero(has) + step]] = True
        for k in np.flatnonzero(used).tolist():
            context_start[k, column] = run([f"{step:+d}:{s}" for s in context_lists[k]])
    pool = np.frombuffer(pool, dtype=np.int32)

    # Each position's runs in listed order: bias, own templates, the context
    # columns, BOS and EOS; a run the position lacks has size zero.
    first, last = index == 0, index == n_tokens - 1
    counts = (1 + own_size.take(own) + first + last).astype(np.int32)
    for step, has in columns:
        counts[has] += context_size.take(context[np.flatnonzero(has) + step])
    ids = np.empty(counts.sum(dtype=np.intp), dtype=np.int32)
    filled = 0
    for lo in range(0, len(index), _ASSEMBLY_CHUNK):
        at = slice(lo, lo + _ASSEMBLY_CHUNK)
        starts = np.zeros((len(index[at]), len(columns) + 4), dtype=np.intp)
        sizes = np.zeros_like(starts)
        starts[:, 0], sizes[:, 0] = bias, 1
        starts[:, 1], sizes[:, 1] = own_start.take(own[at]), own_size.take(own[at])
        for column, (step, has) in enumerate(columns, start=2):
            rows = np.flatnonzero(has[at])
            neighbour = context[lo + rows + step]
            starts[rows, column] = context_start[neighbour, column - 2]
            sizes[rows, column] = context_size.take(neighbour)
        starts[:, -2], sizes[:, -2] = bos, first[at]
        starts[:, -1], sizes[:, -1] = eos, last[at]
        chunk = pool.take(ranges(starts.ravel(), sizes.ravel()))
        ids[filled:filled + len(chunk)] = chunk
        filled += len(chunk)
    return IdSequences(vocabulary, ids, counts, lengths)
