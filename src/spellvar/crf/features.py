"""Feature templates for the sequence tagger.

Features are plain strings of the form ``template=value``, with context
templates carrying a signed offset prefix (``-1:word.lower=saying``).
Templates whose annotation field is still the sentinel are skipped, so the
same extractor works alike on fully parsed entries and on entries whose lemma
and UPOS alone :func:`spellvar.corpus.annotate` guessed.
"""

from __future__ import annotations

from spellvar.corpus import SENTINEL, DictEntry

#: One feature list per token position.
FeatureSet = list[list[str]]


def _token_templates(entry: DictEntry, i: int, context: bool) -> list[str]:
    tok = entry.definition[i]
    head = entry.definition[tok.head]
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
    away, plus a constant bias and sentence-boundary markers."""
    n = len(entry.definition)
    # Each token's context templates, made once for all its neighbours.
    context = [_token_templates(entry, j, context=True) for j in range(n)]
    out: FeatureSet = []
    for i in range(n):
        feats = ["bias"]
        feats.extend(_token_templates(entry, i, context=False))
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
