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
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

from spellvar import __version__
from spellvar.baseline import RuleError, extract_baseline, load_rules
from spellvar.bootstrap import BootstrapConfig, bootstrap_run
from spellvar.corpus import (
    Corpus,
    CorpusFormatError,
    annotate,
    load_conllu,
    load_jsonl,
    load_stopwords,
    read_pairs_tsv,
    read_seed_pairs,
    write_conllu,
    write_jsonl,
    write_pairs_tsv,
)
from spellvar.crf.data import read_labeled_file, write_labeled_file
from spellvar.crf.features import extract_features
from spellvar.crf.model import ModelFormatError, save_model
from spellvar.crf.train import TrainConfig
from spellvar.evalsim import (
    EmbeddingFormatError,
    evaluate_pairs,
    load_embeddings,
    load_vocab,
    pearson,
)
from spellvar.selftrain import SearchSpace, SelfTrainConfig, random_search, self_train
from spellvar.synthetic import bootstrap_fixture, selftrain_fixture

SUCCESS = 0
USAGE_ERROR = 1
DATA_ERROR = 2

_METHODS = ("baseline", "bootstrap", "selftrain")
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


class UsageError(Exception):
    """Configuration problem the user has to fix; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures surface as :class:`UsageError`."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


def _load_config_section(config_path: str | None, section: str) -> dict[str, str]:
    if config_path is None:
        return {}
    path = Path(config_path)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise UsageError(f"bad config file: {exc}") from None
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


def _resolve(args: argparse.Namespace, section: dict[str, str], name: str, default, cast):
    """Pick an option value: flag beats config beats default.

    The config key is consumed either way so an overridden option does not
    later read as unknown."""
    value = getattr(args, name, None)
    raw = section.pop(name, None)
    if value is not None:
        return value
    if raw is not None:
        raw = raw.strip()
        try:
            if cast is bool:
                if raw.lower() in _TRUE_WORDS:
                    return True
                if raw.lower() in _FALSE_WORDS:
                    return False
                raise ValueError(raw)
            return cast(raw)
        except ValueError:
            raise UsageError(f"config option {name!r}: cannot parse {raw!r}") from None
    return default


def _resolve_path(
    args: argparse.Namespace,
    section: dict[str, str],
    name: str,
    required: bool = False,
    must_exist: bool = True,
) -> Path | None:
    value = _resolve(args, section, name, None, str)
    if value is None:
        if required:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        return None
    path = Path(value)
    if must_exist and not path.exists():
        raise UsageError(f"--{name.replace('_', '-')}: path does not exist: {path}")
    return path


def _reject_unknown(section: dict[str, str], command: str) -> None:
    if section:
        names = ", ".join(sorted(section))
        raise UsageError(f"unknown config option(s) in [{command}]: {names}")


def _packaged_stopwords() -> frozenset[str]:
    ref = resources.files("spellvar").joinpath("data/stopwords.txt")
    with resources.as_file(ref) as path:
        return load_stopwords(path)


def _write_trace(path: Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, command: str, options: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "options": options,
        "outputs": sorted(outputs),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(text, encoding="utf-8")


def _write_word_pairs(path: Path, pairs: Iterable[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for informal, formal in pairs:
            handle.write(f"{informal}\t{formal}\n")


def _load_extract_corpus(corpus_path: Path, annotations: Path | None) -> Corpus:
    if annotations is not None:
        return load_conllu(corpus_path, annotations)
    return load_jsonl(corpus_path)


def _read_gold(gold_corpus_path: Path, gold_tags_path: Path):
    corpus = load_jsonl(gold_corpus_path)
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


def _cmd_extract(args: argparse.Namespace) -> None:
    section = _load_config_section(args.config, "extract")
    method = _resolve(args, section, "method", None, str)
    if method is None:
        raise UsageError("extract: --method is required")
    if method not in _METHODS:
        raise UsageError(f"extract: unknown method {method!r} (choose from {_METHODS})")
    corpus_path = _resolve_path(args, section, "corpus", required=True)
    out_dir = _resolve_path(args, section, "out", required=True, must_exist=False)
    annotations = _resolve_path(args, section, "annotations")
    seed = _resolve(args, section, "seed", 0, int)
    iterations = _resolve(args, section, "iterations", None, int)

    corpus = _load_extract_corpus(corpus_path, annotations)
    options: dict = {"method": method, "corpus": str(corpus_path), "seed": seed}
    if annotations is not None:
        options["annotations"] = str(annotations)

    model = None
    if method == "baseline":
        rules_path = _resolve_path(args, section, "rules")
        _reject_unknown(section, "extract")
        rules = load_rules(rules_path)
        pairs = extract_baseline(corpus, rules)
        counts = {rule.rule_id: 0 for rule in rules}
        for pair in pairs:
            counts[pair.rule_id] += 1
        trace = [{"matches": n, "rule_id": rule_id} for rule_id, n in counts.items()]
        options["rules"] = str(rules_path) if rules_path is not None else "packaged"
    elif method == "bootstrap":
        seeds_path = _resolve_path(args, section, "seeds", required=True)
        stopwords_path = _resolve_path(args, section, "stopwords")
        knobs = {
            "iterations": 8 if iterations is None else iterations,
            "alpha": _resolve(args, section, "alpha", 0.7, float),
            "beta": _resolve(args, section, "beta", 0.7, float),
            "window": _resolve(args, section, "window", 3, int),
            "top_n": _resolve(args, section, "top_n", 10, int),
            "top_n_patterns": _resolve(args, section, "top_n_patterns", 10, int),
            "tau": _resolve(args, section, "tau", 0.5, float),
            "variant": _resolve(args, section, "variant", False, bool),
            "strict": _resolve(args, section, "strict", False, bool),
        }
        _reject_unknown(section, "extract")
        seeds = read_seed_pairs(seeds_path)
        if stopwords_path is not None:
            stopwords = load_stopwords(stopwords_path)
        else:
            stopwords = _packaged_stopwords()
        try:
            config = BootstrapConfig(
                seeds=tuple(seeds),
                max_iterations=knobs["iterations"],
                pattern_threshold=knobs["alpha"],
                tuple_threshold=knobs["beta"],
                window=knobs["window"],
                top_n_tuples=knobs["top_n"],
                top_n_patterns=knobs["top_n_patterns"],
                levenshtein_tau=knobs["tau"],
                use_tuple_count_variant=knobs["variant"],
                stopwords=stopwords,
                strict_constraint=knobs["strict"],
            )
        except ValueError as exc:
            raise UsageError(f"extract: {exc}") from None
        result = bootstrap_run(corpus, config)
        pairs = result.pairs
        trace = result.trace
        options.update(knobs)
        options["seeds"] = str(seeds_path)
        options["stopwords"] = (
            str(stopwords_path) if stopwords_path is not None else "packaged"
        )
    else:
        gold_corpus_path = _resolve_path(args, section, "gold_corpus", required=True)
        gold_tags_path = _resolve_path(args, section, "gold_tags", required=True)
        knobs = {
            "iterations": 5 if iterations is None else iterations,
            "confidence": _resolve(args, section, "confidence", 0.9, float),
            "window": _resolve(args, section, "window", 3, int),
            "l1": _resolve(args, section, "l1", 2.35, float),
            "l2": _resolve(args, section, "l2", 0.08, float),
            "search_trials": _resolve(args, section, "search_trials", 0, int),
            "search_folds": _resolve(args, section, "search_folds", 3, int),
        }
        _reject_unknown(section, "extract")
        gold = _read_gold(gold_corpus_path, gold_tags_path)
        if knobs["search_trials"] > 0:
            gold_annotated = [
                (entry, tags)
                for entry, tags in zip(
                    annotate(Corpus(entries=tuple(e for e, _ in gold))).entries,
                    [tags for _, tags in gold],
                )
            ]
            data = [
                (extract_features(entry, knobs["window"]), tags)
                for entry, tags in gold_annotated
            ]
            try:
                space = SearchSpace(
                    trials=knobs["search_trials"], folds=knobs["search_folds"], seed=seed
                )
            except ValueError as exc:
                raise UsageError(f"extract: {exc}") from None
            search = random_search(data, space)
            knobs["l1"], knobs["l2"] = search.l1, search.l2
        try:
            config = SelfTrainConfig(
                max_iterations=knobs["iterations"],
                confidence_tau=knobs["confidence"],
                window=knobs["window"],
                train=TrainConfig(l1=knobs["l1"], l2=knobs["l2"]),
            )
        except ValueError as exc:
            raise UsageError(f"extract: {exc}") from None
        result = self_train(gold, corpus, config)
        pairs = result.pairs
        trace = result.trace
        model = result.model
        options.update(knobs)
        options["gold_corpus"] = str(gold_corpus_path)
        options["gold_tags"] = str(gold_tags_path)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_pairs_tsv(pairs, out_dir / "pairs.tsv")
    _write_trace(out_dir / "trace.jsonl", trace)
    outputs = ["pairs.tsv", "trace.jsonl"]
    if model is not None:
        save_model(model, out_dir / "model.json")
        outputs.append("model.json")
    _write_manifest(out_dir, "extract", options, outputs)
    print(f"extract: wrote {len(pairs)} pairs to {out_dir / 'pairs.tsv'}")


def _cmd_eval(args: argparse.Namespace) -> None:
    section = _load_config_section(args.config, "eval")
    pairs_path = _resolve_path(args, section, "pairs", required=True)
    vocab_path = _resolve_path(args, section, "formal_vocab", required=True)
    out_dir = _resolve_path(args, section, "out", required=True, must_exist=False)
    ks_raw = _resolve(args, section, "ks", "1,20,50,100", str)
    embeddings = args.embeddings
    if embeddings is None:
        raw = section.pop("embeddings", None)
        if raw is None:
            raise UsageError("missing required option --embeddings")
        embeddings = raw.split()
    _reject_unknown(section, "eval")

    try:
        ks = tuple(int(part) for part in ks_raw.split(","))
    except ValueError:
        raise UsageError(f"--ks: cannot parse {ks_raw!r}") from None

    for name in embeddings:
        if not Path(name).exists():
            raise UsageError(f"--embeddings: path does not exist: {name}")

    pairs = read_pairs_tsv(pairs_path)
    vocab = load_vocab(vocab_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs: list[str] = []
    for index, name in enumerate(embeddings):
        table = load_embeddings(name)
        report = evaluate_pairs(table, pairs, vocab, ks)
        stem = f"{index:02d}_{Path(name).stem}"
        report_path = out_dir / f"{stem}.report.tsv"
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write("informal\tformal\trank\tnote\n")
            for outcome in report.per_pair:
                rank = "" if outcome.rank is None else str(outcome.rank)
                note = outcome.miss or ""
                handle.write(f"{outcome.informal}\t{outcome.formal}\t{rank}\t{note}\n")
        summary = {
            "embeddings": str(name),
            "dimension": table.dimension,
            "matched_pairs": report.matched_pairs,
            "hits": {str(k): v for k, v in report.hits.items()},
            "accuracy": {str(k): v for k, v in report.accuracy.items()},
        }
        summary_path = out_dir / f"{stem}.summary.json"
        summary_path.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        outputs.extend([report_path.name, summary_path.name])
        bits = " ".join(f"accuracy@{k}={report.accuracy[k]:.4f}" for k in sorted(report.accuracy))
        print(f"{name}: matched={report.matched_pairs} {bits}")

    options = {
        "pairs": str(pairs_path),
        "embeddings": [str(name) for name in embeddings],
        "formal_vocab": str(vocab_path),
        "ks": list(ks),
    }
    _write_manifest(out_dir, "eval", options, outputs)


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle, delimiter="\t"))
    if not rows or len(rows) < 2:
        raise ValueError(f"{path}: need a header row plus at least one data row")
    header, data = rows[0], rows[1:]
    for row in data:
        if len(row) != len(header):
            raise ValueError(f"{path}: row width does not match header")
    return header, data


def _numeric_columns(
    header: list[str], rows: list[list[str]], keys: list[str], label: str
) -> dict[str, list[float]]:
    columns: dict[str, list[float]] = {}
    for j, name in enumerate(header):
        if name in keys:
            continue
        try:
            columns[name] = [float(row[j]) for row in rows]
        except ValueError:
            print(f"note: skipping non-numeric {label} column {name!r}", file=sys.stderr)
    return columns


def _cmd_correlate(args: argparse.Namespace) -> None:
    section = _load_config_section(args.config, "correlate")
    intrinsic_path = _resolve_path(args, section, "intrinsic", required=True)
    extrinsic_path = _resolve_path(args, section, "extrinsic", required=True)
    out_dir = _resolve_path(args, section, "out", required=True, must_exist=False)
    keys_raw = _resolve(args, section, "keys", None, str)
    _reject_unknown(section, "correlate")
    if keys_raw is None:
        raise UsageError("missing required option --keys")
    keys = [part.strip() for part in keys_raw.split(",") if part.strip()]
    if not keys:
        raise UsageError("--keys: need at least one join column")

    int_header, int_rows = _read_table(intrinsic_path)
    ext_header, ext_rows = _read_table(extrinsic_path)
    for name in keys:
        if name not in int_header:
            raise UsageError(f"join column {name!r} missing from {intrinsic_path}")
        if name not in ext_header:
            raise UsageError(f"join column {name!r} missing from {extrinsic_path}")

    def keyed(header: list[str], rows: list[list[str]], path: Path):
        positions = [header.index(name) for name in keys]
        table: dict[tuple[str, ...], list[str]] = {}
        for row in rows:
            key = tuple(row[p] for p in positions)
            if key in table:
                raise ValueError(f"{path}: duplicate join key {key!r}")
            table[key] = row
        return table

    int_table = keyed(int_header, int_rows, intrinsic_path)
    ext_table = keyed(ext_header, ext_rows, extrinsic_path)
    joined = [key for key in int_table if key in ext_table]
    if not joined:
        raise ValueError("no overlapping join keys between the two tables")
    if len(joined) < 2:
        raise ValueError("need at least two joined rows to correlate")

    int_cols = _numeric_columns(int_header, [int_table[k] for k in joined], keys, "intrinsic")
    ext_cols = _numeric_columns(ext_header, [ext_table[k] for k in joined], keys, "extrinsic")

    def usable(columns: dict[str, list[float]], label: str) -> dict[str, list[float]]:
        kept = {}
        for name, values in columns.items():
            if len(set(values)) == 1:
                print(f"note: skipping constant {label} column {name!r}", file=sys.stderr)
                continue
            kept[name] = values
        return kept

    int_cols = usable(int_cols, "intrinsic")
    ext_cols = usable(ext_cols, "extrinsic")
    if not int_cols or not ext_cols:
        raise ValueError("no usable numeric columns to correlate")

    out_dir.mkdir(parents=True, exist_ok=True)
    grid_path = out_dir / "correlations.tsv"
    with open(grid_path, "w", encoding="utf-8") as handle:
        handle.write("intrinsic\textrinsic\tpearson_r\n")
        for int_name, xs in int_cols.items():
            for ext_name, ys in ext_cols.items():
                r = pearson(xs, ys)
                handle.write(f"{int_name}\t{ext_name}\t{r!r}\n")
                print(f"{int_name} x {ext_name}: r={r:+.4f}")

    options = {
        "intrinsic": str(intrinsic_path),
        "extrinsic": str(extrinsic_path),
        "keys": keys,
        "joined_rows": len(joined),
    }
    _write_manifest(out_dir, "correlate", options, ["correlations.tsv"])


def _cmd_annotate(args: argparse.Namespace) -> None:
    section = _load_config_section(args.config, "annotate")
    corpus_path = _resolve_path(args, section, "corpus", required=True)
    annotations = _resolve_path(args, section, "annotations")
    out_dir = _resolve_path(args, section, "out", required=True, must_exist=False)
    _reject_unknown(section, "annotate")

    if annotations is not None:
        corpus = load_conllu(corpus_path, annotations)
    else:
        corpus = annotate(load_jsonl(corpus_path))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_conllu(corpus, out_dir / "annotated.conllu")
    options = {"corpus": str(corpus_path)}
    if annotations is not None:
        options["annotations"] = str(annotations)
    _write_manifest(out_dir, "annotate", options, ["annotated.conllu"])
    print(f"annotate: wrote {len(corpus)} entries to {out_dir / 'annotated.conllu'}")


def _cmd_gen_synthetic(args: argparse.Namespace) -> None:
    section = _load_config_section(args.config, "gen-synthetic")
    kind = _resolve(args, section, "kind", None, str)
    if kind not in ("bootstrap", "selftrain"):
        raise UsageError("gen-synthetic: --kind must be bootstrap or selftrain")
    out_dir = _resolve_path(args, section, "out", required=True, must_exist=False)
    seed = _resolve(args, section, "seed", 0, int)
    out_dir.mkdir(parents=True, exist_ok=True)

    if kind == "bootstrap":
        knobs = {
            "entries": _resolve(args, section, "entries", 200, int),
            "n_pairs": _resolve(args, section, "n_pairs", 40, int),
            "n_seeds": _resolve(args, section, "n_seeds", 5, int),
            "n_traps": _resolve(args, section, "n_traps", 6, int),
        }
        _reject_unknown(section, "gen-synthetic")
        try:
            planted = bootstrap_fixture(
                n_entries=knobs["entries"],
                n_pairs=knobs["n_pairs"],
                n_seeds=knobs["n_seeds"],
                n_traps=knobs["n_traps"],
                seed=seed,
            )
        except ValueError as exc:
            raise UsageError(f"gen-synthetic: {exc}") from None
        write_jsonl(planted.corpus, out_dir / "corpus.jsonl")
        _write_word_pairs(out_dir / "seeds.tsv", planted.seeds)
        _write_word_pairs(out_dir / "truth.tsv", planted.truth)
        _write_word_pairs(out_dir / "traps.tsv", planted.traps)
        outputs = ["corpus.jsonl", "seeds.tsv", "truth.tsv", "traps.tsv"]
    else:
        _reject_unknown(section, "gen-synthetic")
        fixture = selftrain_fixture(seed=seed)
        write_jsonl(fixture.unlabeled, out_dir / "unlabeled.jsonl")
        gold_corpus = Corpus(entries=tuple(entry for entry, _ in fixture.gold))
        write_jsonl(gold_corpus, out_dir / "gold.jsonl")
        blocks = [
            (tuple(tok.surface for tok in entry.definition), tags)
            for entry, tags in fixture.gold
        ]
        write_labeled_file(blocks, out_dir / "gold.tags")
        _write_word_pairs(out_dir / "truth.tsv", fixture.truth)
        outputs = ["unlabeled.jsonl", "gold.jsonl", "gold.tags", "truth.tsv"]
        knobs = {}

    options: dict = {"kind": kind, "seed": seed}
    options.update(knobs)
    _write_manifest(out_dir, "gen-synthetic", options, outputs)
    print(f"gen-synthetic: wrote {kind} fixture to {out_dir}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spellvar", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    extract = sub.add_parser("extract", help="mine variant pairs from a corpus")
    extract.add_argument("--config", help="INI file; flags override its [extract] section")
    extract.add_argument("--method", choices=_METHODS)
    extract.add_argument("--corpus", help="dictionary corpus (JSONL)")
    extract.add_argument("--out", help="output directory")
    extract.add_argument("--annotations", help="CoNLL-U annotations for --corpus")
    extract.add_argument("--rules", help="surface rule TSV (default: packaged rules)")
    extract.add_argument("--seeds", help="seed pair TSV (bootstrap)")
    extract.add_argument("--stopwords", help="stopword list (default: packaged list)")
    extract.add_argument("--gold-corpus", dest="gold_corpus", help="gold corpus JSONL (selftrain)")
    extract.add_argument("--gold-tags", dest="gold_tags", help="gold tag file (selftrain)")
    extract.add_argument("--iterations", type=int, help="iteration cap")
    extract.add_argument("--alpha", type=float, help="pattern promotion fraction")
    extract.add_argument("--beta", type=float, help="tuple promotion fraction")
    extract.add_argument("--window", type=int, help="context window size")
    extract.add_argument("--top-n", dest="top_n", type=int, help="tuple promotion cap")
    extract.add_argument(
        "--top-n-patterns", dest="top_n_patterns", type=int, help="pattern promotion cap"
    )
    extract.add_argument("--tau", type=float, help="normalized edit distance threshold")
    extract.add_argument(
        "--variant", action="store_true", default=None,
        help="scale tuple scores by occurrence count",
    )
    extract.add_argument(
        "--strict", action="store_true", default=None,
        help="apply the edit distance constraint to every candidate",
    )
    extract.add_argument("--confidence", type=float, help="promotion confidence threshold")
    extract.add_argument("--l1", type=float, help="L1 penalty weight")
    extract.add_argument("--l2", type=float, help="L2 penalty weight")
    extract.add_argument(
        "--search-trials", dest="search_trials", type=int,
        help="random search trials for (l1, l2); 0 disables",
    )
    extract.add_argument(
        "--search-folds", dest="search_folds", type=int, help="cross-validation folds"
    )
    extract.add_argument("--seed", type=int, help="global random seed")
    extract.set_defaults(handler=_cmd_extract)

    evaluate = sub.add_parser("eval", help="rank pairs against embedding tables")
    evaluate.add_argument("--config", help="INI file; flags override its [eval] section")
    evaluate.add_argument("--pairs", help="pairs TSV from extract")
    evaluate.add_argument("--embeddings", nargs="+", help="word2vec text file(s)")
    evaluate.add_argument("--formal-vocab", dest="formal_vocab", help="formal word list")
    evaluate.add_argument("--ks", help="comma-separated accuracy cutoffs")
    evaluate.add_argument("--out", help="output directory")
    evaluate.set_defaults(handler=_cmd_eval)

    correlate = sub.add_parser(
        "correlate", help="Pearson correlation between two result tables"
    )
    correlate.add_argument("--config", help="INI file; flags override its [correlate] section")
    correlate.add_argument("--intrinsic", help="intrinsic results TSV")
    correlate.add_argument("--extrinsic", help="extrinsic results TSV")
    correlate.add_argument("--keys", help="comma-separated join columns")
    correlate.add_argument("--out", help="output directory")
    correlate.set_defaults(handler=_cmd_correlate)

    annotate_cmd = sub.add_parser("annotate", help="emit CoNLL-U for a corpus")
    annotate_cmd.add_argument("--config", help="INI file; flags override its [annotate] section")
    annotate_cmd.add_argument("--corpus", help="dictionary corpus (JSONL)")
    annotate_cmd.add_argument("--annotations", help="existing CoNLL-U to merge and re-emit")
    annotate_cmd.add_argument("--out", help="output directory")
    annotate_cmd.set_defaults(handler=_cmd_annotate)

    synth = sub.add_parser("gen-synthetic", help="generate a planted evaluation corpus")
    synth.add_argument("--config", help="INI file; flags override its [gen-synthetic] section")
    synth.add_argument("--kind", choices=("bootstrap", "selftrain"))
    synth.add_argument("--out", help="output directory")
    synth.add_argument("--seed", type=int, help="generator seed")
    synth.add_argument("--entries", type=int, help="total corpus entries (bootstrap)")
    synth.add_argument("--n-pairs", dest="n_pairs", type=int, help="planted pairs (bootstrap)")
    synth.add_argument("--n-seeds", dest="n_seeds", type=int, help="seed pairs (bootstrap)")
    synth.add_argument("--n-traps", dest="n_traps", type=int, help="stopword traps (bootstrap)")
    synth.set_defaults(handler=_cmd_gen_synthetic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else str(exc)
        print(f"error: file not found: {name}", file=sys.stderr)
        return USAGE_ERROR
    except (CorpusFormatError, RuleError, EmbeddingFormatError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    return SUCCESS


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
