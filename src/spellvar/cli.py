"""Command line front end for the extraction pipeline.

Subcommands cover the pipeline end to end: ``extract`` mines variant pairs
from a dictionary corpus, ``eval`` ranks extracted pairs against embedding
tables, ``correlate`` joins intrinsic and extrinsic result tables, ``annotate``
emits CoNLL-U for external taggers, and ``gen-synthetic`` builds planted
corpora with known ground truth.

Options may come from an INI config file (section named after the
subcommand); command line flags win.  Exit codes: 0 success, 1 usage or
configuration problem, 2 malformed data.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import inspect
import json
import math
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Sequence

from spellvar import __version__
from spellvar.baseline import extract_baseline, load_rules
from spellvar.bootstrap import BootstrapConfig, bootstrap_run
from spellvar.corpus import (
    Corpus,
    CorpusFormatError,
    annotate,
    load_conllu,
    load_jsonl,
    read_lines,
    read_pairs_tsv,
    read_seed_pairs,
    read_word_list,
    write_conllu,
    write_jsonl,
    write_pairs_tsv,
)
from spellvar.crf.data import read_labeled_file, write_labeled_file
from spellvar.crf.features import extract_features
from spellvar.crf.model import save_model
from spellvar.crf.train import TrainConfig
from spellvar.evalsim import evaluate_pairs, load_embeddings, pearson
from spellvar.selftrain import SearchSpace, SelfTrainConfig, random_search, self_train
from spellvar.synthetic import bootstrap_fixture, selftrain_fixture

SUCCESS = 0
USAGE_ERROR = 1
DATA_ERROR = 2

_METHODS = ("baseline", "bootstrap", "selftrain")
_KINDS = ("bootstrap", "selftrain")
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})

# Options whose default lives in a config class or function: each table maps
# CLI names to that target's parameters.  The option's type is its default's.
_BOOTSTRAP = (BootstrapConfig, {
    "iterations": "max_iterations", "alpha": "pattern_threshold", "beta": "tuple_threshold",
    "window": "window", "top_n": "top_n_tuples", "top_n_patterns": "top_n_patterns",
    "tau": "levenshtein_tau", "variant": "use_tuple_count_variant",
    "strict": "strict_constraint",
})
_SELFTRAIN = (SelfTrainConfig, {
    "iterations": "max_iterations", "confidence": "confidence_tau", "window": "window",
})
_TRAIN = (TrainConfig, {"l1": "l1", "l2": "l2"})
_SEARCH = (SearchSpace, {"search_folds": "folds"})
_FIXTURE = (bootstrap_fixture, {
    "entries": "n_entries", "n_pairs": "n_pairs", "n_seeds": "n_seeds", "n_traps": "n_traps",
})
_EVAL = (evaluate_pairs, {"ks": "ks"})
_SOURCES = (_BOOTSTRAP, _SELFTRAIN, _TRAIN, _SEARCH, _FIXTURE, _EVAL)


class UsageError(Exception):
    """Configuration problem the user has to fix; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures surface as :class:`UsageError`."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@functools.cache
def _defaults(target) -> dict:
    """Parameter name -> default of a config class or function."""
    return {name: p.default for name, p in inspect.signature(target).parameters.items()}


def _load_config_section(config_path: str | None, section: str) -> dict[str, str]:
    if config_path is None:
        return {}
    path = Path(config_path)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_file((line for _, line in read_lines(path, UsageError)), source=str(path))
        # Values are interpolated as they are read, so a bad one raises here.
        return dict(parser.items(section)) if parser.has_section(section) else {}
    except configparser.Error as exc:
        message = " ".join(part.strip() for part in str(exc).splitlines())
        raise UsageError(f"bad config file: {message}") from None


class _Options:
    """One command's options: its INI section with the given flags laid over it.

    Each option is taken once, cast to the type of its default, and kept in
    :attr:`record`, from which the command builds its configs and which its
    manifest records.  Whatever is left when the command has taken its
    options is an error (:meth:`done`), whether it came from a flag or from
    the INI file."""

    def __init__(self, command: str, flags: dict) -> None:
        self.command = command
        self.values = _load_config_section(flags.pop("config", None), command)
        self.values.update(flags)
        self.record: dict = {}

    def take(self, name: str, default=None, required: bool = False):
        if name not in self.values and required:
            raise UsageError(f"missing required option {_flag(name)}")
        value = self.values.pop(name, default)
        # Without a default, and for switches and lists, the value stays as given.
        if default is not None and isinstance(value, str):
            try:
                if isinstance(default, bool):
                    if value.lower() not in _TRUE_WORDS | _FALSE_WORDS:
                        raise ValueError(value)
                    value = value.lower() in _TRUE_WORDS
                elif isinstance(default, tuple):
                    value = tuple(int(part) for part in value.split(","))
                else:
                    value = type(default)(value)
            except ValueError:
                raise UsageError(f"{_flag(name)}: cannot parse {value!r}") from None
        if value is not None:
            self.record[name] = value
        return value

    def path(self, name: str, required: bool = False) -> Path | None:
        value = self.take(name, required=required)
        if value is None:
            return None
        path = Path(value)
        if not path.exists():
            raise UsageError(f"{_flag(name)}: path does not exist: {path}")
        self.record[name] = str(path)
        return path

    def out_dir(self) -> Path:
        """``--out``, refused now, before any input is read, when it or its
        nearest existing parent is not a directory.  It is where the manifest
        goes, not a record of how the outputs were made."""
        path = Path(self.take("out", required=True))
        del self.record["out"]
        existing = next((p for p in (path, *path.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise UsageError(f"{path}: Not a directory")
        return path

    def knobs(self, source) -> None:
        """Take every option of ``source``, a (target, aliases) table, by CLI name."""
        target, aliases = source
        for name, field in aliases.items():
            self.take(name, _defaults(target)[field])

    def build(self, source, **fixed):
        """Call ``source``'s target with its options from :attr:`record`; its
        ValueError is a usage error."""
        target, aliases = source
        try:
            return target(**{field: self.record[name] for name, field in aliases.items()}, **fixed)
        except ValueError as exc:
            raise UsageError(f"{self.command}: {exc}") from None

    def done(self, context: str) -> None:
        if self.values:
            names = ", ".join(_flag(name) for name in sorted(self.values))
            raise UsageError(f"{context}: unknown or unused option(s): {names}")


def _packaged_stopwords() -> frozenset[str]:
    ref = resources.files("spellvar").joinpath("data/stopwords.txt")
    with resources.as_file(ref) as path:
        return read_word_list(path)


def _lines(rows: Iterable[str]) -> Callable[[Path], None]:
    """A writer of one line per row; the text is built now, before any file is opened."""
    text = "".join(row + "\n" for row in rows)
    return lambda path: path.write_text(text, encoding="utf-8")


def _publish(out_dir: Path, opts: _Options, files: dict[str, Callable[[Path], None]]) -> None:
    """Write ``files`` (output name -> writer taking a path) and ``manifest.json``,
    which records ``opts``, into ``out_dir`` under hidden temporary names, then
    rename them into place, the manifest last: a failed write leaves every file
    in ``out_dir`` as it was."""
    manifest = {
        "command": opts.command,
        "version": __version__,
        "options": opts.record,
        "outputs": sorted(files),
    }
    files = {**files, "manifest.json": _lines([json.dumps(manifest, indent=2, sort_keys=True)])}
    out_dir.mkdir(parents=True, exist_ok=True)
    temporary = {name: out_dir / f".{name}.partial" for name in files}
    try:
        for name, write in files.items():
            write(temporary[name])
        for name, path in temporary.items():
            path.replace(out_dir / name)
    except OSError as exc:
        exc.filename = str(out_dir / name)
        raise
    finally:
        for path in temporary.values():
            path.unlink(missing_ok=True)


def _load_extract_corpus(corpus_path: Path, annotations: Path | None) -> Corpus:
    if annotations is not None:
        return load_conllu(corpus_path, annotations)
    return load_jsonl(corpus_path)


def _read_gold(gold_corpus_path: Path, gold_tags_path: Path):
    corpus = annotate(load_jsonl(gold_corpus_path))
    if not corpus.entries:
        raise CorpusFormatError(f"{gold_corpus_path}: self-training needs gold data")
    empty = next((entry.entry_id for entry in corpus if not entry.definition), None)
    if empty is not None:
        raise CorpusFormatError(f"{gold_corpus_path}: entry {empty!r} has no tokens, and a tag "
                                f"file cannot hold an empty block")
    blocks = read_labeled_file(gold_tags_path)
    if len(blocks) != len(corpus.entries):
        raise CorpusFormatError(
            f"{gold_tags_path}: {len(blocks)} tag blocks for "
            f"{len(corpus.entries)} gold entries"
        )
    gold = []
    for entry, (surfaces, tags) in zip(corpus.entries, blocks):
        expected = tuple(tok.surface for tok in entry.definition)
        if surfaces != expected:
            raise CorpusFormatError(
                f"{gold_tags_path}: entry {entry.entry_id!r}: surfaces do not "
                f"match the corpus tokens"
            )
        gold.append((entry, tags))
    return gold


def _cmd_extract(opts: _Options) -> None:
    method = opts.take("method", required=True)
    if method not in _METHODS:
        raise UsageError(f"extract: unknown method {method!r} (choose from {_METHODS})")
    context = f"extract --method {method}"
    corpus_path = opts.path("corpus", required=True)
    out_dir = opts.out_dir()
    annotations = opts.path("annotations")
    seed = opts.take("seed", 0)

    model = None
    # Why the run wrote no pairs, when it wrote none: the first cause that holds.
    warning = None
    if method == "baseline":
        rules_path = opts.path("rules")
        opts.record.setdefault("rules", "packaged")
        opts.done(context)
        rules = load_rules(rules_path)
        pairs = extract_baseline(_load_extract_corpus(corpus_path, annotations), rules)
        counts = {rule.rule_id: 0 for rule in rules}
        for pair in pairs:
            counts[pair.rule_id] += 1
        trace = [{"matches": n, "rule_id": rule_id} for rule_id, n in counts.items()]
        if not pairs:
            named = "the packaged rules" if rules_path is None else f"the rules in {rules_path}"
            warning = (f"the baseline found no pairs: none of {named} matched a definition "
                       f"in --corpus {corpus_path} with anything but its headword")
    elif method == "bootstrap":
        seeds_path = opts.path("seeds", required=True)
        stopwords_path = opts.path("stopwords")
        opts.record.setdefault("stopwords", "packaged")
        opts.knobs(_BOOTSTRAP)
        opts.done(context)
        seeds = read_seed_pairs(seeds_path)
        if stopwords_path is not None:
            stopwords = read_word_list(stopwords_path)
        else:
            stopwords = _packaged_stopwords()
        config = opts.build(_BOOTSTRAP, seeds=tuple(seeds), stopwords=stopwords)
        result = bootstrap_run(_load_extract_corpus(corpus_path, annotations), config)
        pairs = result.pairs
        trace = result.trace
        if not pairs:
            if config.max_iterations == 0:
                why = "ran no round with --iterations 0"
            elif len(set(seeds)) < 2:
                why = (f"found no pairs: --seeds {seeds_path} holds fewer than two pairs, and a "
                       f"pattern scores above 0 only when it recovers two")
            elif not result.pools.pattern_pool:
                why = (f"found no pairs: no pattern recovered two pooled pairs in --corpus "
                       f"{corpus_path}")
            else:
                gate = f"--tau {config.levenshtein_tau}" + " --strict" * config.strict_constraint
                why = f"found no pairs: every candidate scored 0 or failed the {gate} gate"
            warning = f"bootstrapping {why}"
    else:
        gold_corpus_path = opts.path("gold_corpus", required=True)
        gold_tags_path = opts.path("gold_tags", required=True)
        given = set(opts.values)
        for source in (_SELFTRAIN, _TRAIN, _SEARCH):
            opts.knobs(source)
        trials = opts.take("search_trials", 0)
        opts.done(context)
        config = opts.build(_SELFTRAIN, train=opts.build(_TRAIN))
        if trials < 0:
            raise UsageError("extract: --search-trials must be >= 0 (0 disables the search)")
        # A search picks the penalties, and its folds mean nothing without one.
        moot = given & ({"l1", "l2"} if trials else {"search_folds"})
        if moot:
            names = ", ".join(_flag(name) for name in sorted(moot))
            raise UsageError(f"{context}: {names} cannot be used "
                             f"{'with' if trials else 'without'} --search-trials > 0")
        space = opts.build(_SEARCH, trials=trials, seed=seed) if trials else None
        gold = _read_gold(gold_corpus_path, gold_tags_path)
        corpus = _load_extract_corpus(corpus_path, annotations)
        ids = {entry.entry_id for entry in corpus}
        clash = next((entry.entry_id for entry, _ in gold if entry.entry_id in ids), None)
        if clash is not None:
            raise CorpusFormatError(
                f"entry_id {clash!r} is in both --gold-corpus {gold_corpus_path} and --corpus "
                f"{corpus_path}; an entry without an entry_id is named e<line number>")
        if space is not None:
            data = [(extract_features(entry, config.window), tags) for entry, tags in gold]
            try:
                searched = random_search(data, space)
            except ValueError as exc:
                raise CorpusFormatError(f"{gold_corpus_path}: {exc}") from None
            opts.record.update(l1=searched.l1, l2=searched.l2)
            config = replace(config, train=opts.build(_TRAIN))
        result = self_train(gold, corpus, config)
        pairs = result.pairs
        # Pairs come only from --corpus entries, so one without tokens yields none.
        if not any(entry.definition for entry in corpus):
            warning = "no --corpus entry has tokens, so self-training had nothing to tag"
        elif not pairs:
            if config.max_iterations == 0:
                why = "ran no round with --iterations 0"
            elif not any("I" in tags for _, tags in gold):
                why = (f"found no pairs: no tag in --gold-tags {gold_tags_path} is I, so the "
                       f"tagger cannot learn to mark a token I")
            else:
                why = (f"found no pairs with --l1 {config.train.l1} --l2 {config.train.l2}; "
                       f"smaller penalties let the tagger mark more tokens I")
            warning = f"self-training {why}"
        trace = result.trace
        model = result.model

    if warning is not None:
        print(f"warning: extract: {warning}", file=sys.stderr)

    files = {"pairs.tsv": functools.partial(write_pairs_tsv, pairs),
             "trace.jsonl": _lines(json.dumps(record, sort_keys=True) for record in trace)}
    if model is not None:
        files["model.json"] = functools.partial(save_model, model)
    _publish(out_dir, opts, files)
    print(f"extract: wrote {len(pairs)} pairs to {out_dir / 'pairs.tsv'}")


def _cmd_eval(opts: _Options) -> None:
    pairs_path = opts.path("pairs", required=True)
    vocab_path = opts.path("formal_vocab", required=True)
    out_dir = opts.out_dir()
    opts.knobs(_EVAL)
    ks = opts.record["ks"] = sorted(set(opts.record["ks"]))
    embeddings = opts.take("embeddings", required=True)
    if isinstance(embeddings, str):  # an INI value lists the tables on one line
        embeddings = opts.record["embeddings"] = embeddings.split()
    opts.done("eval")
    if ks[0] < 1:
        raise UsageError("--ks: cutoffs must be >= 1")
    for name in embeddings:
        if not Path(name).exists():
            raise UsageError(f"--embeddings: path does not exist: {name}")

    pairs = read_pairs_tsv(pairs_path)
    vocab = read_word_list(vocab_path)
    # Nothing is written until every table is ranked; each is freed before the next loads.
    files = {}
    for index, name in enumerate(embeddings):
        table = load_embeddings(name)
        try:
            report = evaluate_pairs(table, pairs, vocab, ks)
        except ValueError as exc:
            raise ValueError(f"{pairs_path} against {name}: {exc}") from None
        summary = {
            "embeddings": str(name),
            "dimension": table.dimension,
            "matched_pairs": report.matched_pairs,
            "hits": {str(k): v for k, v in report.hits.items()},
            "accuracy": {str(k): v for k, v in report.accuracy.items()},
        }
        del table
        stem = f"{index:02d}_{Path(name).stem}"
        rows = [
            f"{outcome.informal}\t{outcome.formal}\t{'' if outcome.rank is None else outcome.rank}"
            f"\t{outcome.miss or ''}"
            for outcome in report.per_pair
        ]
        files[f"{stem}.report.tsv"] = _lines(["informal\tformal\trank\tnote", *rows])
        files[f"{stem}.summary.json"] = _lines([json.dumps(summary, indent=2, sort_keys=True)])
        bits = " ".join(f"accuracy@{k}={report.accuracy[k]:.4f}" for k in sorted(report.accuracy))
        print(f"{name}: matched={report.matched_pairs} {bits}")
        misses = " ".join(f"{reason}={n}" for reason, n in report.miss_counts().items())
        print(f"{name}: misses {misses}")

    _publish(out_dir, opts, files)


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader((line for _, line in read_lines(path)), delimiter="\t")
    rows: list[list[str]] = []
    try:
        for row in reader:
            # A quoted field may span lines; a row is named by its last line.
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}: line {reader.line_num}: row width does not match header")
            rows.append(row)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row plus at least one data row")
    for j, name in enumerate(rows[0]):
        if name in rows[0][:j]:
            raise ValueError(f"{path}: line 1: column {name!r} appears twice")
    return rows[0], rows[1:]


def _numeric_columns(
    header: list[str], rows: list[list[str]], keys: list[str], label: str, path: Path
) -> dict[str, list[float]]:
    columns: dict[str, list[float]] = {}
    for j, name in enumerate(header):
        if name in keys:
            continue
        try:
            columns[name] = [float(row[j]) for row in rows]
        except ValueError:
            print(f"note: skipping non-numeric {label} column {name!r}", file=sys.stderr)
            continue
        if not all(map(math.isfinite, columns[name])):
            raise ValueError(f"{path}: column {name!r} holds a non-finite value")
    return columns


def _keyed(header: list[str], rows: list[list[str]], keys: list[str],
           path: Path) -> dict[tuple[str, ...], list[str]]:
    positions = [header.index(name) for name in keys]
    table: dict[tuple[str, ...], list[str]] = {}
    for row in rows:
        key = tuple(row[p] for p in positions)
        if key in table:
            raise ValueError(f"{path}: duplicate join key {key!r}")
        table[key] = row
    return table


def _cmd_correlate(opts: _Options) -> None:
    # Each step runs over the intrinsic table, then the extrinsic one, which
    # sets the order of the notes and of the errors.
    paths = {label: opts.path(label, required=True) for label in ("intrinsic", "extrinsic")}
    out_dir = opts.out_dir()
    keys = opts.take("keys", required=True)
    keys = opts.record["keys"] = [part.strip() for part in keys.split(",") if part.strip()]
    opts.done("correlate")
    if not keys:
        raise UsageError("--keys: need at least one join column")

    tables = {label: _read_table(path) for label, path in paths.items()}
    for name in keys:
        for label, (header, _) in tables.items():
            if name not in header:
                raise UsageError(f"join column {name!r} missing from {paths[label]}")
    keyed = {label: _keyed(*tables[label], keys, path) for label, path in paths.items()}
    joined = [key for key in keyed["intrinsic"] if key in keyed["extrinsic"]]
    if not joined:
        raise ValueError("no overlapping join keys between the two tables")
    if len(joined) < 2:
        raise ValueError("need at least two joined rows to correlate")
    opts.record["joined_rows"] = len(joined)

    columns = {label: _numeric_columns(tables[label][0], [keyed[label][k] for k in joined], keys,
                                       label, path) for label, path in paths.items()}
    for label, named in columns.items():
        for name, values in list(named.items()):
            if len(set(values)) == 1:
                print(f"note: skipping constant {label} column {name!r}", file=sys.stderr)
                del named[name]
    if not all(columns.values()):
        raise ValueError("no usable numeric columns to correlate")

    grid = ["intrinsic\textrinsic\tpearson_r"]
    for int_name, xs in columns["intrinsic"].items():
        for ext_name, ys in columns["extrinsic"].items():
            r = pearson(xs, ys)
            grid.append(f"{int_name}\t{ext_name}\t{r!r}")
            print(f"{int_name} x {ext_name}: r={r:+.4f}")
    _publish(out_dir, opts, {"correlations.tsv": _lines(grid)})


def _cmd_annotate(opts: _Options) -> None:
    corpus_path = opts.path("corpus", required=True)
    annotations = opts.path("annotations")
    out_dir = opts.out_dir()
    opts.done("annotate")

    if annotations is not None:
        corpus = load_conllu(corpus_path, annotations)
    else:
        corpus = annotate(load_jsonl(corpus_path))
    _publish(out_dir, opts, {"annotated.conllu": functools.partial(write_conllu, corpus)})
    print(f"annotate: wrote {len(corpus)} entries to {out_dir / 'annotated.conllu'}")


def _cmd_gen_synthetic(opts: _Options) -> None:
    kind = opts.take("kind")
    if kind not in _KINDS:
        raise UsageError("gen-synthetic: --kind must be bootstrap or selftrain")
    out_dir = opts.out_dir()
    seed = opts.take("seed", 0)
    if kind == "bootstrap":
        opts.knobs(_FIXTURE)
    opts.done(f"gen-synthetic --kind {kind}")

    if kind == "bootstrap":
        planted = opts.build(_FIXTURE, seed=seed)
        files = {"corpus.jsonl": functools.partial(write_jsonl, planted.corpus),
                 "seeds.tsv": _lines(map("\t".join, planted.seeds)),
                 "truth.tsv": _lines(map("\t".join, planted.truth)),
                 "traps.tsv": _lines(map("\t".join, planted.traps))}
    else:
        fixture = selftrain_fixture(seed=seed)
        gold_corpus = Corpus(entries=tuple(entry for entry, _ in fixture.gold))
        blocks = [
            (tuple(tok.surface for tok in entry.definition), tags)
            for entry, tags in fixture.gold
        ]
        files = {"unlabeled.jsonl": functools.partial(write_jsonl, fixture.unlabeled),
                 "gold.jsonl": functools.partial(write_jsonl, gold_corpus),
                 "gold.tags": functools.partial(write_labeled_file, blocks),
                 "truth.tsv": _lines(map("\t".join, fixture.truth))}

    _publish(out_dir, opts, files)
    print(f"gen-synthetic: wrote {kind} fixture to {out_dir}")


# Each subcommand's handler, summary, and (option, help) pairs in --help order.
_COMMANDS = {
    "extract": (_cmd_extract, "mine variant pairs from a corpus", (
        ("method", " | ".join(_METHODS)),
        ("corpus", "dictionary corpus (JSONL)"),
        ("out", "output directory"),
        ("annotations", "CoNLL-U annotations for --corpus"),
        ("rules", "surface rule TSV (default: packaged rules)"),
        ("seeds", "seed pair TSV (bootstrap)"),
        ("stopwords", "stopword list (default: packaged list)"),
        ("gold_corpus", "gold corpus JSONL (selftrain)"),
        ("gold_tags", "gold tag file (selftrain)"),
        ("iterations", "iteration cap"),
        ("alpha", "pattern promotion fraction"),
        ("beta", "tuple promotion fraction"),
        ("window", "context window size"),
        ("top_n", "tuple promotion cap"),
        ("top_n_patterns", "pattern promotion cap"),
        ("tau", "normalized edit distance threshold"),
        ("variant", "scale tuple scores by occurrence count"),
        ("strict", "apply the edit distance constraint to every candidate"),
        ("confidence", "promotion confidence threshold"),
        ("l1", "L1 penalty weight"),
        ("l2", "L2 penalty weight"),
        ("search_trials", "random search trials for (l1, l2); 0 disables"),
        ("search_folds", "cross-validation folds"),
        ("seed", "seed of the penalty search (selftrain with --search-trials)"),
    )),
    "eval": (_cmd_eval, "rank pairs against embedding tables", (
        ("pairs", "pairs TSV from extract"),
        ("embeddings", "word2vec text file(s)"),
        ("formal_vocab", "formal word list"),
        ("ks", "comma-separated accuracy cutoffs"),
        ("out", "output directory"),
    )),
    "correlate": (_cmd_correlate, "Pearson correlation between two result tables", (
        ("intrinsic", "intrinsic results TSV"),
        ("extrinsic", "extrinsic results TSV"),
        ("keys", "comma-separated join columns"),
        ("out", "output directory"),
    )),
    "annotate": (_cmd_annotate, "emit CoNLL-U for a corpus", (
        ("corpus", "dictionary corpus (JSONL)"),
        ("annotations", "existing CoNLL-U to merge and re-emit"),
        ("out", "output directory"),
    )),
    "gen-synthetic": (_cmd_gen_synthetic, "generate a planted evaluation corpus", (
        ("kind", " | ".join(_KINDS)),
        ("out", "output directory"),
        ("seed", "generator seed"),
        ("entries", "total corpus entries (bootstrap)"),
        ("n_pairs", "planted pairs (bootstrap)"),
        ("n_seeds", "seed pairs (bootstrap)"),
        ("n_traps", "stopword traps (bootstrap)"),
    )),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="spellvar", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (handler, summary, flags) in _COMMANDS.items():
        # Flags not given stay out of the namespace, so INI values show through.
        cmd = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", help=f"INI file; flags override its [{command}] section")
        for name, text in flags:
            defaults = {
                f"{target.__name__}.{aliases[name]}": _defaults(target)[aliases[name]]
                for target, aliases in _SOURCES if name in aliases
            }
            kwargs = {"nargs": "+"} if name == "embeddings" else {}
            if any(isinstance(value, bool) for value in defaults.values()):
                kwargs["action"] = "store_true"
            if defaults:
                text += " (default: " + ", ".join(f"{k}={v!r}" for k, v in defaults.items()) + ")"
            cmd.add_argument(_flag(name), help=text, **kwargs)
        cmd.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        flags = vars(parser.parse_args(argv))
        handler = flags.pop("handler")
        handler(_Options(flags.pop("command"), flags))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else str(exc)
        print(f"error: file not found: {name}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    return SUCCESS


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
