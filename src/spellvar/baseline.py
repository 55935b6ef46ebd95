"""Rule-based pair extraction over raw definition text.

Each rule is a regular expression with a single named group ``Spelling``
capturing the formal spelling; the headword supplies the informal side.  The
packaged default rule file covers the common defining idioms ("way of saying
X", "short for X", ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from spellvar.corpus import Corpus, VariantPair, read_lines

CAPTURE_GROUP = "Spelling"


class RuleError(ValueError):
    """Malformed rule file or rule pattern."""


@dataclass(frozen=True)
class SurfaceRule:
    """A compiled extraction rule."""

    rule_id: str
    pattern_source: str
    pattern: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            compiled = re.compile(self.pattern_source, re.IGNORECASE)
        except re.error as exc:
            raise RuleError(f"rule {self.rule_id!r}: invalid pattern: {exc}") from exc
        named = list(compiled.groupindex)
        if named != [CAPTURE_GROUP]:
            raise RuleError(
                f"rule {self.rule_id!r}: needs exactly one named group "
                f"{CAPTURE_GROUP!r}, found {named or 'none'}"
            )
        object.__setattr__(self, "pattern", compiled)


def load_rules(path: str | Path | None = None) -> list[SurfaceRule]:
    """Load ``rule_id<TAB>pattern`` lines; ``None`` loads the packaged defaults."""
    if path is None:
        with resources.as_file(resources.files("spellvar") / "data/default_rules.tsv") as packaged:
            return load_rules(packaged)
    rules: list[SurfaceRule] = []
    seen: set[str] = set()
    for line_no, line in read_lines(path, RuleError):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise RuleError(f"{path}: line {line_no}: expected 'rule_id<TAB>pattern'")
        rule_id = parts[0].strip()
        if rule_id in seen:
            raise RuleError(f"{path}: line {line_no}: duplicate rule id {rule_id!r}")
        seen.add(rule_id)
        try:
            rules.append(SurfaceRule(rule_id=rule_id, pattern_source=parts[1]))
        except RuleError as exc:
            raise RuleError(f"{path}: line {line_no}: {exc}") from exc
    return rules


def extract_baseline(corpus: Corpus, rules: list[SurfaceRule]) -> list[VariantPair]:
    """Run every rule over every raw definition, entry order then rule order.

    Identity pairs are dropped and (informal, formal) duplicates keep the
    first occurrence, both case-insensitively.
    """
    pairs: list[VariantPair] = []
    seen: set[tuple[str, str]] = set()
    for entry in corpus:
        for rule in rules:
            for match in rule.pattern.finditer(entry.definition_text):
                formal = match.group(CAPTURE_GROUP)
                key = (entry.headword.casefold(), formal.casefold())
                if key[0] == key[1] or key in seen:
                    continue
                seen.add(key)
                pairs.append(VariantPair(
                    informal=entry.headword,
                    formal=formal,
                    score=1.0,
                    method="baseline",
                    iteration=0,
                    source_entry=entry.entry_id,
                    rule_id=rule.rule_id,
                ))
    return pairs
