"""Command-line front door: one `argtree` command, twelve subcommands.

Exit codes: 0 success, 1 data errors (bad files, failed validation,
diverged training), 2 usage errors (bad flags, bad config keys). Every
output file is written atomically (temp file in the target directory,
then rename). The effective configuration of each run is logged to
stderr. Seeds resolve as: --seed flag, then the config file, then the
ARGTREE_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
import typing
from typing import Callable, IO, Optional, Sequence, TypeVar, Union

from . import corpus_io, stats as stats_mod
from .evaluation import (
    EvalItem,
    EvalReport,
    Stratum,
    dump_report,
    merge_reports_wide,
    paired_t_test,
    paired_topic_vectors,
    report_csv_rows,
    report_to_text,
    stratified_eval,
    wide_table_text,
)
from .features import (
    FeatureTable,
    Lexicon,
    build_vocabulary,
    featurize_specificity,
    featurize_stance,
    read_embeddings_file,
    read_features_file,
    read_lexicon_file,
    read_vocabulary_file,
    write_features,
    write_vocabulary,
)
from .models import (
    AnyModel,
    EncoderConfig,
    LengthBaseline,
    TrainConfig,
    dump_checkpoint,
    gradcheck_logreg,
    gradcheck_neural,
    load_model,
    majority_fit,
    model_payload,
    neural_train_config,
    train_logreg,
    train_neural,
    LOGREG_TOLERANCE,
    NEURAL_TOLERANCE,
)
from .pairs import (
    SpecificityExample,
    derive_specificity_examples,
    derive_stance_examples,
    located_error,
    open_text,
    read_pairs_file,
    read_split_file,
    split_by_topic,
    valid_ratios,
    write_pairs,
    write_split,
)
from .synth import SynthConfig, generate_corpus
from .trees import BrokenTreeError, validate_tree

DEFAULT_MAX_DISTANCE = {"specificity": 5, "stance": 4}


class UsageError(Exception):
    """Bad flags or configuration; exits 2 with the subcommand synopsis."""


# every field of the three config dataclasses, plus the two keys that only the CLI reads
_CONFIG_KEY_TYPES: dict[str, type] = {
    "alpha": float,
    "tie_preference": str,
    **{
        key: kind
        for cls in (TrainConfig, EncoderConfig, SynthConfig)
        for key, kind in typing.get_type_hints(cls).items()
    },
}

_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_config_value(key: str, raw: str, path: str) -> Union[int, float, str, bool]:
    expected = _CONFIG_KEY_TYPES[key]
    try:
        if expected is bool:
            lowered = raw.lower()
            if lowered not in _BOOL_VALUES:
                raise ValueError(raw)
            return _BOOL_VALUES[lowered]
        return expected(raw)
    except ValueError:
        raise UsageError(
            f"config {path}: bad value {raw!r} for key {key!r} (expected {expected.__name__})"
        ) from None


def load_run_config(path: Optional[str]) -> dict:
    """Flat `key = value` file; unknown keys are rejected."""
    if path is None:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path}: not UTF-8 text ({exc.reason})") from None
    config: dict = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config {path}: line {line_no} is not `key = value`")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_KEY_TYPES:
            raise UsageError(f"config {path}: unknown key {key!r}")
        if key in config:
            raise UsageError(f"config {path}: duplicate key {key!r}")
        config[key] = _parse_config_value(key, raw, path)
    return config


def resolve_seed(flag_seed: Optional[int], config: dict) -> int:
    if flag_seed is not None:
        return flag_seed
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get("ARGTREE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"ARGTREE_SEED is not an integer: {env!r}") from None
    return 0


def _log(message: str) -> None:
    print(f"[argtree] {message}", file=sys.stderr)


def _log_effective_config(command: str, config: dict, seed: int) -> None:
    parts = [f"{k}={config[k]}" for k in sorted(config) if k != "seed"]
    rendered = " ".join(parts) if parts else "(defaults)"
    _log(f"{command}: seed={seed} config: {rendered}")


def _atomic_write(path: str, writer: Callable[[IO[str]], None]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".argtree-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            writer(handle)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


@contextlib.contextmanager
def _walking_corpus(path: str):
    """A broken tree met while walking the corpus at path becomes <path>:<line>: <reason>."""
    try:
        yield
    except BrokenTreeError as exc:
        raise corpus_io.CorpusFormatError(exc.tree.line_no, str(exc), source=path) from None


def _detect_dataset_kind(path: str) -> str:
    """'features' for feature files, 'pairs' for derived-pair files."""
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise located_error(path, line_no, exc) from None
            if not isinstance(record, dict):
                break
            if record.get("schema") == "argtree-features/1":
                return "features"
            if "task" in record and "label" in record:
                return "pairs"
            break
    raise ValueError(f"{path}: neither a derived-pairs file nor a features file")


_FILE_KINDS = {"features": "a features file", "pairs": "a derived-pairs file"}


def _read_data(path: str, task: str, kind: Optional[str] = None) -> Union[FeatureTable, list]:
    """A features file as its table, a derived-pairs file as its examples, from one parse.

    kind ("features" or "pairs") is the only kind of file the caller reads.
    Data of a task other than `task` is an error.
    """
    found = _detect_dataset_kind(path)
    if kind is not None and found != kind:
        raise ValueError(f"{path} is {_FILE_KINDS[found]}, but this reads {_FILE_KINDS[kind]}")
    if found == "features":
        data = read_features_file(path)
        data_task = data.schema.task
    else:
        data = read_pairs_file(path)
        if not data:
            raise ValueError(f"{path}: no examples")
        data_task = "specificity" if isinstance(data[0], SpecificityExample) else "stance"
    if data_task != task:
        raise ValueError(f"{path} holds {data_task} data, but the task is {task}")
    return data


def _rows(data: Union[FeatureTable, list]) -> list[tuple]:
    """(topic_id, distance, same_stance, gold label) of every record."""
    if isinstance(data, FeatureTable):
        return list(zip(data.topic_ids, data.distances, data.same_stance, data.labels))
    return [(e.topic_id, e.distance, e.same_stance, e.label.value) for e in data]


Config = TypeVar("Config", TrainConfig, EncoderConfig, SynthConfig)


def _config_from(base: Config, config: dict) -> Config:
    """base with every field the run config sets, except seed, then validated."""
    for field in dataclasses.fields(base):
        if field.name in config and field.name != "seed":
            setattr(base, field.name, config[field.name])
    base.validate()
    return base


# ---------------------------------------------------------------- subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    trees = corpus_io.parse_corpus_file(args.file)
    total = 0
    for tree in trees:
        for violation in validate_tree(tree):
            print(f"{tree.topic_id}: {violation.node_id}: {violation.rule}")
            total += 1
    if total:
        print(f"{total} violation(s) in {len(trees)} tree(s)", file=sys.stderr)
        return 1
    _log(f"validate: {len(trees)} tree(s), no violations")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    trees = corpus_io.parse_corpus_file(args.file)
    # corpus_stats checks every claim and walks its parent chain, so a broken tree fails here
    with _walking_corpus(args.file):
        text = stats_mod.corpus_stats(trees).to_text()
    if args.per_tree:
        for tree in trees:
            one = stats_mod.corpus_stats([tree])
            print(
                f"{tree.topic_id}\tclaims={one.claim_count}\tdepth={max(one.depth_histogram)}"
                f"\tpro={one.pro_count}\tcon={one.con_count}"
            )
    if args.out:
        _atomic_write(args.out, lambda handle: handle.write(text))
    else:
        print(text, end="")
    return 0


def cmd_import_outline(args: argparse.Namespace) -> int:
    tags = frozenset(t for t in (args.tags.split(",") if args.tags else []) if t)
    tree = corpus_io.import_outline_file(args.file, topic_id=args.topic_id, tags=tags)
    _atomic_write(args.out, lambda handle: corpus_io.write_corpus([tree], handle))
    _log(f"import-outline: wrote 1 tree ({len(tree.nodes)} claims) to {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    _log_effective_config("synth", config, seed)
    trees, ledger = generate_corpus(_config_from(SynthConfig(seed=seed), config))
    _atomic_write(args.out, lambda handle: corpus_io.write_corpus(trees, handle))
    if args.ledger:
        _atomic_write(args.ledger, ledger.write)
    _log(
        f"synth: {len(trees)} tree(s), {ledger.totals['nodes']} claims, "
        f"length-signal rate {ledger.length_signal_rate():.4f} -> {args.out}"
    )
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    _log_effective_config("split", config, seed)
    try:
        ratios = tuple(float(part) for part in args.ratios.split(","))
    except ValueError:
        raise UsageError(f"bad --ratios {args.ratios!r}") from None
    if len(ratios) != 3:
        raise UsageError("--ratios needs exactly three comma-separated numbers")
    if not all(math.isfinite(r) for r in ratios):
        raise UsageError(f"--ratios must be finite numbers, got {args.ratios!r}")
    if not valid_ratios(ratios):
        raise UsageError(f"--ratios must be non-negative and sum to 1, got {args.ratios!r}")
    trees = corpus_io.parse_corpus_file(args.corpus)
    split = split_by_topic([tree.topic_id for tree in trees], ratios=ratios, seed=seed)
    _atomic_write(args.out, lambda handle: write_split(split, handle))
    _log(
        f"split: {len(split.train)}/{len(split.dev)}/{len(split.test)} topics -> {args.out}"
    )
    return 0


def cmd_derive_pairs(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    _log_effective_config("derive-pairs", config, seed)
    if (args.split is None) != (args.part is None):
        raise UsageError("--split and --part must be given together")
    max_distance = args.max_distance
    if max_distance is None:
        max_distance = DEFAULT_MAX_DISTANCE[args.task]
    elif max_distance < 1:
        raise UsageError(f"--max-distance must be at least 1, got {max_distance}")
    trees = corpus_io.parse_corpus_file(args.corpus)
    if args.split:
        split = read_split_file(args.split)
        keep = split.part(args.part)
        trees = [tree for tree in trees if tree.topic_id in keep]
    with _walking_corpus(args.corpus):
        if args.task == "specificity":
            examples = list(
                derive_specificity_examples(trees, max_distance=max_distance, seed=seed)
            )
        else:
            examples = list(derive_stance_examples(trees, max_distance=max_distance))
    _atomic_write(args.out, lambda handle: write_pairs(examples, handle))
    _log(f"derive-pairs: {len(examples)} {args.task} example(s) -> {args.out}")
    return 0


def cmd_featurize(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    _log_effective_config("featurize", config, seed)
    task = args.task
    if args.use_path and task != "stance":
        raise UsageError("--use-path applies to stance pairs only")
    if args.feature_set != "both" and task != "specificity":
        raise UsageError("--feature-set applies to specificity pairs only")
    examples = _read_data(args.pairs, task, "pairs")

    if os.path.exists(args.vocab):
        vocab = read_vocabulary_file(args.vocab)
    else:
        min_count = int(config.get("min_count", 2))
        if task == "specificity":
            texts = [t for ex in examples for t in (ex.first_text, ex.second_text)]
        else:
            texts = [t for ex in examples for t in ex.path_texts]
        vocab = build_vocabulary(texts, min_count=min_count, built_from=args.pairs)
        _atomic_write(args.vocab, lambda handle: write_vocabulary(vocab, handle))
        _log(f"featurize: built vocabulary ({len(vocab)} tokens) -> {args.vocab}")

    lexicon = read_lexicon_file(args.lexicon) if args.lexicon else Lexicon()
    embeddings = read_embeddings_file(args.embeddings) if args.embeddings else None

    if task == "specificity":
        table = featurize_specificity(examples, vocab, lexicon, feature_set=args.feature_set)
    else:
        table = featurize_stance(
            examples, vocab, lexicon, embeddings=embeddings, use_path=args.use_path
        )
    _atomic_write(args.out, lambda handle: write_features(table, handle))
    _log(f"featurize: {len(table)} record(s), width {table.schema.width} -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    _log_effective_config("train", config, seed)
    model_kind, task = args.model, args.task

    if args.dev and model_kind in ("majority", "length"):
        raise UsageError(f"--dev has no effect on the {model_kind} baseline")
    if model_kind == "length":
        # parameter-free, so the training file is not read
        if task != "specificity":
            raise UsageError("the length baseline is a specificity model")
        if not os.path.isfile(args.train):
            raise ValueError(f"{args.train}: not a file")
        model: AnyModel = LengthBaseline(task=task)
    elif model_kind == "majority":
        labels = [row[-1] for row in _rows(_read_data(args.train, task))]
        tie = config.get("tie_preference") or sorted(set(labels))[0]
        model = majority_fit(labels, tie_preference=tie, task=task)
    elif model_kind == "logreg":
        train = _read_data(args.train, task, "features")
        dev = _read_data(args.dev, task, "features") if args.dev else None
        if dev is not None and (dev.schema.sparse_names, dev.schema.dense_names) != (
            train.schema.sparse_names,
            train.schema.dense_names,
        ):
            raise ValueError("train and dev feature spaces differ")
        model = train_logreg(train, dev, _config_from(TrainConfig(seed=seed), config))
    else:
        if task == "specificity" and model_kind != "pair":
            raise UsageError("path models need stance pairs (specificity pairs have no path)")
        train_examples = _read_data(args.train, task, "pairs")
        dev_examples = _read_data(args.dev, task, "pairs") if args.dev else None
        model = train_neural(
            model_kind,
            task,
            train_examples,
            dev_examples,
            train_config=_config_from(neural_train_config(seed=seed), config),
            encoder_config=_config_from(EncoderConfig(), config),
        )

    payload = model_payload(model)
    _atomic_write(args.out, lambda handle: dump_checkpoint(handle, *payload))
    history = getattr(model, "history", [])
    if history:
        last = history[-1]
        dev_note = "" if last.dev_accuracy is None else f", dev acc {last.dev_accuracy:.4f}"
        _log(
            f"train: {model_kind} epoch {last.epoch} loss {last.train_loss:.4f}{dev_note} "
            f"-> {args.out}"
        )
    else:
        _log(f"train: {model_kind} -> {args.out}")
    return 0


def _evaluate(
    model: AnyModel, data: Union[FeatureTable, list], name: str, split: str = "test"
) -> EvalReport:
    """Score a model on parsed data of its task (see _read_data)."""
    items = [
        EvalItem(topic_id=topic, distance=distance, same_stance=same, gold=gold, predicted=pred)
        for (topic, distance, same, gold), pred in zip(_rows(data), model.predict_labels(data))
    ]
    return stratified_eval(items, task=model.task, model=name, split=split)


_STRATA_CSV_FIELDS = ["task", "model", "split", "stratum", "count", "correct", "accuracy"]


def _filter_strata(report: EvalReport, requested: Optional[list[str]]) -> EvalReport:
    if requested is None:
        return report
    strata = {name: report.strata.get(name, Stratum(0, 0)) for name in requested}
    return EvalReport(
        task=report.task,
        model=report.model,
        split=report.split,
        strata=strata,
        per_topic=report.per_topic,
    )


def _parse_strata_flag(raw: Optional[str]) -> Optional[list[str]]:
    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise UsageError("--strata is empty")
    for name in names:
        if name == "all" or name == "same-stance":
            continue
        if name.startswith("d") and name[1:].isdigit() and int(name[1:]) >= 1:
            continue
        raise UsageError(f"unknown stratum {name!r} (expected all, dN or same-stance)")
    return names


def cmd_evaluate(args: argparse.Namespace) -> int:
    requested = _parse_strata_flag(args.strata)
    model = load_model(args.model)
    data = _read_data(args.test, model.task)
    report = _evaluate(model, data, args.name or model.kind, args.split_name)
    filtered = _filter_strata(report, requested)

    def writer(handle: IO[str]) -> None:
        writer_obj = csv.DictWriter(handle, fieldnames=_STRATA_CSV_FIELDS, lineterminator="\n")
        writer_obj.writeheader()
        for row in report_csv_rows(filtered):
            writer_obj.writerow(row)

    _atomic_write(args.out, writer)
    if args.json:
        _atomic_write(args.json, lambda handle: dump_report(report, handle))
    print(report_to_text(filtered), end="")
    _log(f"evaluate: {len(data)} example(s) -> {args.out}")
    return 0


def _reports_from_csv_files(paths: Sequence[str]) -> list[EvalReport]:
    """Reports in order of first appearance; a bad row is "<path>:<line>: <reason>"."""
    reports: dict[str, EvalReport] = {}
    for path in paths:
        with open_text(path) as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or set(_STRATA_CSV_FIELDS) - set(reader.fieldnames):
                raise ValueError(f"{path}: not an evaluation CSV (missing columns)")
            rows = 0
            for rows, row in enumerate(reader, start=1):
                try:
                    _add_report_row(reports, row)
                except ValueError as exc:
                    raise located_error(path, reader.line_num, exc) from None
            if not rows:
                raise ValueError(f"{path}: no evaluation rows")
    return list(reports.values())


def _add_report_row(reports: dict[str, EvalReport], row: dict) -> None:
    missing = [name for name in _STRATA_CSV_FIELDS if row[name] is None]
    if missing:
        raise ValueError(f"short row: no {missing[0]!r} field")
    if None in row:  # csv.DictReader files the fields past the header under None
        raise ValueError(f"long row: {len(row[None])} field(s) past {_STRATA_CSV_FIELDS[-1]!r}")
    try:
        stratum = Stratum(count=int(row["count"]), correct=int(row["correct"]))
    except ValueError:
        count, correct = row["count"], row["correct"]
        raise ValueError(f"count {count!r} or correct {correct!r} is not an integer") from None
    if min(stratum.count, stratum.correct) < 0:
        raise ValueError(f"negative count {stratum.count} or correct {stratum.correct}")
    if stratum.correct > stratum.count:
        raise ValueError(f"correct {stratum.correct} exceeds count {stratum.count}")
    model = row["model"]
    if model not in reports:
        reports[model] = EvalReport(task=row["task"], model=model, split=row["split"], strata={})
    if row["stratum"] in reports[model].strata:
        raise ValueError(f"repeated row for model {model!r}, stratum {row['stratum']!r}")
    reports[model].strata[row["stratum"]] = stratum


def cmd_report(args: argparse.Namespace) -> int:
    reports = _reports_from_csv_files(args.files)
    header, rows = merge_reports_wide(reports)

    def writer(handle: IO[str]) -> None:
        writer_obj = csv.writer(handle, lineterminator="\n")
        writer_obj.writerow(header)
        writer_obj.writerows(rows)

    _atomic_write(args.out, writer)
    print(wide_table_text(header, rows), end="")
    _log(f"report: merged {len(reports)} model(s) -> {args.out}")
    return 0


def cmd_significance(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    alpha = args.alpha if args.alpha is not None else float(config.get("alpha", 0.05))
    if not 0.0 < alpha < 1.0:
        raise UsageError("--alpha must lie strictly between 0 and 1")
    model_a = load_model(args.model_a)
    model_b = load_model(args.model_b)
    if model_a.task != model_b.task:
        raise ValueError(f"models solve different tasks: {model_a.task} vs {model_b.task}")
    # Both models score one parse of the test file.
    data = _read_data(args.test, model_a.task)
    report_a = _evaluate(model_a, data, model_a.kind)
    report_b = _evaluate(model_b, data, model_b.kind)
    topics, accs_a, accs_b = paired_topic_vectors(report_a, report_b)
    result = paired_t_test(accs_a, accs_b)

    print(f"model-a: {model_a.kind}  accuracy {report_a.accuracy_of('all'):.4f}")
    print(f"model-b: {model_b.kind}  accuracy {report_b.accuracy_of('all'):.4f}")
    print(f"topics: {len(topics)}")
    if result.degenerate:
        print(f"t: degenerate (zero-variance differences), mean diff {result.mean_diff:+.4f}")
    else:
        print(f"t: {result.t:.4f}  df: {result.df}  p: {result.p:.6f}")
    verdict = "yes" if (not result.degenerate and result.p < alpha) else "no"
    print(f"significant at alpha={alpha:g}: {verdict}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    kinds = [args.model] if args.model else ["logreg", "pair", "path-flat", "path-hier"]
    # path-hier runs a second fixture of one-edge paths, where no GRU step
    # carries a state
    checks = [(kind, False) for kind in kinds]
    if "path-hier" in kinds:
        checks.append(("path-hier", True))
    failures = 0
    for kind, one_edge in checks:
        if kind == "logreg":
            result = gradcheck_logreg(seed=args.seed or 0)
            tolerance = LOGREG_TOLERANCE
        else:
            result = gradcheck_neural(kind, seed=args.seed or 0, one_edge=one_edge)
            tolerance = NEURAL_TOLERANCE
        ok = result.max_rel_error < tolerance
        status = "ok" if ok else "FAIL"
        label = f"{kind} (one-edge paths)" if one_edge else kind
        print(
            f"{label}: max rel error {result.max_rel_error:.3e} "
            f"(tolerance {tolerance:.0e}, {result.parameter_count} params, "
            f"worst {result.worst_block}) {status}"
        )
        if not ok:
            failures += 1
    return 1 if failures else 0


# -------------------------------------------------------------------- parser


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="argtree",
        description="Argument-tree corpora, derived claim-pair tasks, and models over them.",
    )
    # each command takes --seed and --config only if it reads them
    seed_flag = argparse.ArgumentParser(add_help=False)
    seed_flag.add_argument("--seed", type=int, default=None, help="seed (overrides config/env)")
    config_flag = argparse.ArgumentParser(add_help=False)
    config_flag.add_argument("--config", default=None, help="flat key = value config file")
    both = (seed_flag, config_flag)
    subparsers = parser.add_subparsers(dest="command", metavar="<command>")
    registry: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, handler, help_text: str, *flags) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, parents=list(flags), help=help_text)
        p.set_defaults(handler=handler)
        registry[name] = p
        return p

    p = sub("validate", cmd_validate, "check a corpus file against the tree rules")
    p.add_argument("file", help="corpus file (one tree per line)")

    p = sub("stats", cmd_stats, "corpus-level statistics")
    p.add_argument("file", help="corpus file")
    p.add_argument("--per-tree", action="store_true", help="also print one line per tree")
    p.add_argument("-o", "--out", default=None, help="write the summary here instead of stdout")

    p = sub("import-outline", cmd_import_outline, "convert an outline to a one-tree corpus")
    p.add_argument("file", help="outline text file")
    p.add_argument("--topic-id", required=True, help="topic id for the imported tree")
    p.add_argument("--tags", default="", help="comma-separated tags")
    p.add_argument("-o", "--out", required=True, help="output corpus file")

    p = sub("synth", cmd_synth, "generate a seeded synthetic corpus with planted signals", *both)
    p.add_argument("-o", "--out", required=True, help="output corpus file")
    p.add_argument("--ledger", default=None, help="also write the generation ledger here")

    p = sub("split", cmd_split, "topic-disjoint train/dev/test split", *both)
    p.add_argument("corpus", help="corpus file")
    p.add_argument("--ratios", default="0.6,0.2,0.2", help="train,dev,test fractions")
    p.add_argument("-o", "--out", required=True, help="output split file")

    p = sub("derive-pairs", cmd_derive_pairs, "derive labeled claim-pair examples", *both)
    p.add_argument("corpus", help="corpus file")
    p.add_argument("--task", required=True, choices=["specificity", "stance"])
    p.add_argument(
        "--max-distance",
        type=int,
        default=None,
        help="pair distance cap (default: 5 for specificity, 4 for stance)",
    )
    p.add_argument("--split", default=None, help="split file to filter topics with")
    p.add_argument("--part", default=None, choices=["train", "dev", "test"])
    p.add_argument("-o", "--out", required=True, help="output pairs file")

    p = sub("featurize", cmd_featurize, "turn pairs into feature records", *both)
    p.add_argument("pairs", help="derived-pairs file")
    p.add_argument("--task", required=True, choices=["specificity", "stance"])
    p.add_argument(
        "--vocab", required=True, help="vocabulary file (built from the pairs if missing)"
    )
    p.add_argument("--lexicon", default=None, help="polarity lexicon (token TAB pol TAB strength)")
    p.add_argument("--embeddings", default=None, help="token embedding table")
    p.add_argument(
        "--use-path", action="store_true", help="stance: featurize the concatenated path"
    )
    p.add_argument(
        "--feature-set",
        default="both",
        choices=["bow", "surface", "both"],
        help="specificity feature blocks",
    )
    p.add_argument("-o", "--out", required=True, help="output features file")

    p = sub("train", cmd_train, "fit a model and write a checkpoint", *both)
    p.add_argument(
        "--model",
        required=True,
        choices=["majority", "length", "logreg", "pair", "path-flat", "path-hier"],
    )
    p.add_argument("--task", required=True, choices=["specificity", "stance"])
    p.add_argument("--train", required=True, help="training data (pairs or features)")
    p.add_argument("--dev", default=None, help="development data for early stopping")
    p.add_argument("-o", "--out", required=True, help="output checkpoint")

    p = sub("evaluate", cmd_evaluate, "score a checkpoint on a test file")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--test", required=True, help="test data (pairs or features)")
    p.add_argument(
        "--strata", default=None, help="comma list, e.g. all,d1,d2,d3,d4,same-stance"
    )
    p.add_argument("--name", default=None, help="row label for reports (default: model kind)")
    p.add_argument("--split-name", default="test", help="split label recorded in the report")
    p.add_argument("--json", default=None, help="also write the full report as JSON here")
    p.add_argument("-o", "--out", required=True, help="output CSV (one row per stratum)")

    p = sub("significance", cmd_significance, "paired t-test between two checkpoints", config_flag)
    p.add_argument("--model-a", required=True, help="first checkpoint")
    p.add_argument("--model-b", required=True, help="second checkpoint")
    p.add_argument("--test", required=True, help="shared test data")
    p.add_argument("--alpha", type=float, default=None, help="significance level (default 0.05)")

    p = sub("gradcheck", cmd_gradcheck, "verify analytic gradients on tiny fixtures", seed_flag)
    p.add_argument(
        "--model",
        default=None,
        choices=["logreg", "pair", "path-flat", "path-hier"],
        help="check one model kind (default: all four)",
    )

    p = sub("report", cmd_report, "merge evaluation CSVs into one wide table")
    p.add_argument("files", nargs="+", help="evaluation CSVs from `argtree evaluate`")
    p.add_argument("-o", "--out", required=True, help="output wide CSV")

    return parser, registry


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        registry[args.command].print_usage(sys.stderr)
        return 2
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else str(exc)
        print(f"error: file not found: {missing}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
