#!/usr/bin/env python3
"""Pipeline benchmark for argtree: one workload, one process, the CLI flow.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The argtree sources are imported from
the checkout's `src/`; nothing is installed. A run

1. sets up: writes the workload's config files, then runs `argtree synth`
   from the seed (setup_s is timed from the start of the process),
2. runs whole rounds of the workload's CLI flow, each in a fresh
   directory, through `argtree.cli.main`, until the next round would end
   after S seconds (at least one round),
3. checks the first round's outputs (checks.py) and that every later
   round wrote the same bytes,
4. prints one information line (machine, sizes, per-round figures) and,
   last, the result line with `correct`, `attempted`, `failed` and the
   metrics: end-to-end ones with --trace 0 (medians over rounds), per-layer
   ones with --trace 1.

A probe (speed.py) runs before the first command of a round and after
every command; the timed end-to-end figures use each command's wall time
scaled by the probes around it, so that they do not follow the speed of a
shared CPU. setup_s, wall time from the start of the process, is scaled by
the first round's probes.

With --trace 1 the rounds alternate untraced and traced (tracing.py); the
per-layer figures are medians over the traced rounds and
trace.overhead_s is the traced minus the untraced pipeline_s median.

Work files go under `.bench_runs/` in the checkout and are removed unless
something failed. The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks
import speed
import tracing
from workloads import (
    CORPUS,
    EVAL_COMMANDS,
    LEDGER,
    LOGREG_CONF,
    NEURAL_CONF,
    NEURAL_KINDS,
    PARTS,
    PREPARE_COMMANDS,
    SYNTH_CONF,
    WORKLOADS,
    Command,
    Workload,
    checkpoint_file,
    config_text,
    pairs_file,
    report_file,
    round_commands,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
MB = 1e6

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "prepare_s": "s",
    "train_examples_per_s": "examples/s",
    "eval_examples_per_s": "examples/s",
    "peak_rss_mb": "MB",
    "pairs_mb": "MB",
}
CLI_COMMANDS = ("validate", "stats", "split", "derive-pairs", "featurize", "train",
                "evaluate", "report", "significance")
# name -> (unit, span, SpanStats field) read from one traced round; the
# entries without a span are derived in layer_figures()
PER_LAYER = {
    **{f"cli.{c}.s": ("s", f"cli.{c}", "seconds") for c in CLI_COMMANDS},
    "synth.generate_corpus.s": ("s", None, None),  # timed during set-up
    "corpus_io.parse_corpus.calls": ("count", "corpus_io.parse_corpus", "calls"),
    "corpus_io.parse_corpus.s": ("s", "corpus_io.parse_corpus", "seconds"),
    "trees.validate_tree.s": ("s", "trees.validate_tree", "seconds"),
    "stats.corpus_stats.s": ("s", "stats.corpus_stats", "seconds"),
    "pairs.derive.s": ("s", "pairs.derive", "seconds"),
    "pairs.write_pairs.s": ("s", "pairs.write_pairs", "seconds"),
    "pairs.read_pairs.calls": ("count", "pairs.read_pairs", "calls"),
    "pairs.read_pairs.s": ("s", "pairs.read_pairs", "seconds"),
    "text.tokenize.calls": ("count", "text.tokenize", "calls"),
    "text.tokenize.s": ("s", "text.tokenize", "seconds"),
    "text.tokenize.calls_per_claim": ("ratio", None, None),
    "features.build_vocabulary.s": ("s", "features.build_vocabulary", "seconds"),
    "features.featurize.s": ("s", "features.featurize", "seconds"),
    "features.write_features.s": ("s", "features.write_features", "seconds"),
    "features.read_features.calls": ("count", "features.read_features", "calls"),
    "features.read_features.s": ("s", "features.read_features", "seconds"),
    "logreg.design_matrix.calls": ("count", "logreg.design_matrix", "calls"),
    "logreg.design_matrix.s": ("s", "logreg.design_matrix", "seconds"),
    "logreg.loss_and_grad.calls": ("count", "logreg.loss_and_grad", "calls"),
    "logreg.loss_and_grad.s": ("s", "logreg.loss_and_grad", "seconds"),
    "encoder.pack.calls": ("count", "encoder.pack", "calls"),
    "encoder.pack.s": ("s", "encoder.pack", "seconds"),
    "encoder.encode.calls": ("count", "encoder.encode", "calls"),
    "encoder.encode.s": ("s", "encoder.encode", "seconds"),
    "encoder.encode_backward.s": ("s", "encoder.encode_backward", "seconds"),
    "encoder.encodes_per_distinct_edge": ("ratio", None, None),
    "gru.forward.calls": ("count", "gru.forward", "calls"),
    "gru.forward.s": ("s", "gru.forward", "seconds"),
    "gru.backward.s": ("s", "gru.backward", "seconds"),
    "gru.steps": ("count", "gru.forward", "units"),
    "neural.train_step.s": ("s", "neural.train_step", "seconds"),
    "neural.epoch_loss.s": ("s", "neural.epoch_loss", "seconds"),
    "neural.predict.s": ("s", "neural.predict", "seconds"),
    "neural.train.self_s": ("s", "neural.train", "self_seconds"),
    "checkpoint.write.s": ("s", "checkpoint.write", "seconds"),
    "checkpoint.read.calls": ("count", "checkpoint.read", "calls"),
    "checkpoint.read.s": ("s", "checkpoint.read", "seconds"),
    "checkpoint.bytes": ("B", None, None),
    "evaluation.stratified_eval.s": ("s", "evaluation.stratified_eval", "seconds"),
    "evaluation.paired_t_test.s": ("s", "evaluation.paired_t_test", "seconds"),
    "trace.overhead_s": ("s", None, None),
}


def process_age_s() -> float:
    """Seconds since this process started (its start time from /proc)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_program():
    """Import argtree from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "argtree", "cli.py")):
        raise SystemExit(f"error: no argtree sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import argtree.cli

    if not os.path.abspath(argtree.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: argtree imported from {argtree.cli.__file__}, not {SRC}")
    return argtree.cli


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


@dataclass
class CommandRun:
    command: Command
    code: int | None
    seconds: float
    stdout: str
    stderr: str
    scale: float = 1.0  # speed.scale() of the probes around the command

    @property
    def normalised_s(self) -> float:
        return self.seconds * self.scale


@dataclass
class Round:
    directory: str
    traced: bool
    runs: list[CommandRun] = field(default_factory=list)
    wall_s: float = 0.0
    hashes: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    hier_encodes: int = 0

    @property
    def failed(self) -> list[CommandRun]:
        return [r for r in self.runs if r.code != 0]

    @property
    def pipeline_s(self) -> float:
        return sum(r.normalised_s for r in self.runs)


def call_cli(cli, argv, tracer=None) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is not None:
                code = tracer.timed(f"cli.{argv[0]}", cli.main, list(argv))
            else:
                code = cli.main(list(argv))
        except Exception:  # a traceback is a failed command, not a failed benchmark
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def setup(cli, workload: Workload, seed: int, work: str) -> CommandRun:
    os.makedirs(work)
    with open(os.path.join(work, SYNTH_CONF), "w", encoding="utf-8") as handle:
        handle.write(config_text(workload.synth))
    for name, values in ((LOGREG_CONF, workload.logreg_conf), (NEURAL_CONF, workload.neural_conf)):
        if values:
            with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
                handle.write(config_text(values))
    argv = ("synth", "--config", os.path.join(work, SYNTH_CONF), "--seed", str(seed),
            "-o", os.path.join(work, CORPUS), "--ledger", os.path.join(work, LEDGER))
    start = time.perf_counter()
    code, out, err = call_cli(cli, argv)
    return CommandRun(Command(argv), code, time.perf_counter() - start, out, err)


def hash_tree(directory: str) -> dict[str, str]:
    hashes = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            hashes[name] = hashlib.file_digest(handle, "sha256").hexdigest()
    return hashes


def is_hier(command: Command) -> bool:
    return command.model == "path-hier" and command.name in ("train", "evaluate")


def run_round(cli, commands: list[Command], directory: str, tracer=None) -> Round:
    os.makedirs(directory)
    result = Round(directory=directory, traced=tracer is not None)
    previous = os.getcwd()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    os.chdir(directory)
    try:
        first = time.perf_counter()
        probes = [speed.probe()]
        for command in commands:
            encodes = tracer.get("encoder.encode").calls if tracer is not None else 0
            start = time.perf_counter()
            code, out, err = call_cli(cli, command.argv, tracer)
            result.runs.append(CommandRun(command, code, time.perf_counter() - start, out, err))
            probes.append(speed.probe())
            if tracer is not None and is_hier(command):
                result.hier_encodes += tracer.get("encoder.encode").calls - encodes
        result.wall_s = time.perf_counter() - first
    finally:
        os.chdir(previous)
        if tracer is not None:
            tracer.uninstall()
    for i, run in enumerate(result.runs):
        run.scale = speed.scale(probes[i], probes[i + 1])
    result.hashes = hash_tree(directory)
    if tracer is not None:
        for name, (_, span, field_name) in PER_LAYER.items():
            if span is not None:
                result.layers[name] = float(getattr(tracer.get(span), field_name))
    return result


def count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def epochs_run(directory: str, model: str) -> int:
    if model == "length":
        return 0  # the length baseline reads no training data
    if model == "majority":
        return 1
    meta = checks.read_checkpoint_meta(os.path.join(directory, checkpoint_file(model)))
    return len(meta["history"])


def round_figures(result: Round, sizes: dict[str, int], epochs: dict[str, int]) -> dict[str, float]:
    by_name: dict[str, float] = {}
    for run in result.runs:
        by_name[run.command.name] = by_name.get(run.command.name, 0.0) + run.normalised_s
    train_examples = sum(
        sizes["train"] * epochs[run.command.model]
        for run in result.runs if run.command.name == "train"
    )
    scored = sizes["test"] * (
        sum(1 for run in result.runs if run.command.name == "evaluate") + 2
    )
    return {
        "wall_s": result.wall_s,
        "pipeline_s": result.pipeline_s,
        "prepare_s": sum(by_name.get(c, 0.0) for c in PREPARE_COMMANDS),
        "train_examples_per_s": train_examples / by_name["train"],
        "eval_examples_per_s": scored / sum(by_name.get(c, 0.0) for c in EVAL_COMMANDS),
    }


def verify_round(workload: Workload, result: Round, work: str) -> list[str]:
    """All correctness checks on one round's files (run untraced, untimed)."""
    from argtree.models import TrainConfig, load_model
    from argtree.pairs import read_pairs_file

    l2 = float(workload.neural_conf.get("l2", TrainConfig().l2))
    d = result.directory
    corpus = checks.load_corpus(os.path.join(work, CORPUS))
    split = checks.read_json(os.path.join(d, "split.json"))
    failures = checks.check_split(split, corpus)
    pairs = {p: checks.read_jsonl(os.path.join(d, pairs_file(p))) for p in PARTS}
    walked = {p: checks.walk_counts(corpus, split[p], workload.max_distance) for p in PARTS}
    for part in PARTS:
        failures += checks.check_pair_counts(f"{part} pairs", pairs[part], walked[part])
        if workload.task == "stance":
            failures += checks.check_stance_labels(f"{part} pairs", pairs[part], corpus)
        else:
            failures += checks.check_specificity_labels(f"{part} pairs", pairs[part], corpus)

    reports = {m: checks.read_json(os.path.join(d, report_file(m))) for m in workload.models}
    for model, report in reports.items():
        failures += checks.check_report_counts(model, report, walked["test"])
    if "majority" in reports:
        failures += checks.check_majority(reports["majority"], pairs["train"], pairs["test"])
    if "length" in reports:
        ledger = [r for r in checks.read_jsonl(os.path.join(work, LEDGER))
                  if r["record"] == "topic"]
        failures += checks.check_length_accuracy(reports["length"], ledger, set(split["test"]))
    significance = next(r for r in result.runs if r.command.name == "significance")
    model_a, model_b = workload.significance
    failures += checks.check_significance(significance.stdout, reports[model_a], reports[model_b])

    test_examples = None
    for model in workload.models:
        path = os.path.join(d, checkpoint_file(model))
        if model == "logreg":
            failures += checks.check_logreg_loss(model, checks.read_checkpoint_meta(path))
        elif model in NEURAL_KINDS:
            if test_examples is None:
                test_examples = read_pairs_file(os.path.join(d, pairs_file("test")))
            loaded = load_model(path)
            objective, blocks = checks.neural_objective(loaded, test_examples, l2)
            failures += checks.check_gradient(model, objective, blocks)
            failures += checks.check_order_invariance(model, loaded.predict_labels, test_examples)
    return failures


def distinct_edges(corpus: checks.CorpusIndex, records: list[dict]) -> int:
    return len({edge for record in records for edge in checks.path_edges(corpus, record)})


def layer_figures(workload: Workload, rounds: list[Round], work: str,
                  synth_seconds: float) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    figures = {
        name: statistics.median(r.layers[name] for r in traced)
        for name, (_, span, _) in PER_LAYER.items() if span is not None
    }
    figures["synth.generate_corpus.s"] = synth_seconds
    corpus = checks.load_corpus(os.path.join(work, CORPUS))
    figures["text.tokenize.calls_per_claim"] = figures["text.tokenize.calls"] / len(corpus.texts)
    first = rounds[0].directory
    figures["checkpoint.bytes"] = float(sum(
        os.path.getsize(os.path.join(first, checkpoint_file(m))) for m in workload.models
    ))
    ratio = 0.0
    if "path-hier" in workload.models:
        records = {p: checks.read_jsonl(os.path.join(first, pairs_file(p))) for p in PARTS}
        edges = {p: distinct_edges(corpus, records[p]) for p in PARTS}
        epochs = epochs_run(first, "path-hier")
        passes = epochs * (2 * edges["train"] + edges["dev"]) + edges["test"]
        ratio = statistics.median(r.hier_encodes for r in traced) / passes
    figures["encoder.encodes_per_distinct_edge"] = ratio
    figures["trace.overhead_s"] = (statistics.median(r.pipeline_s for r in traced)
                                   - statistics.median(r.pipeline_s for r in plain))
    return figures


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window; rounds start only while they can end inside it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="scale the topic count (the self-test runs at toy size)")
    return parser.parse_args(argv)


def scaled(workload: Workload, size: float) -> Workload:
    """The workload with its topic count scaled, keeping at least 10 topics
    (two test topics for the paired t-test) unless it has fewer already."""
    if size == 1.0:
        return workload
    full = workload.synth["topic_count"]
    synth = dict(workload.synth, topic_count=min(full, max(10, round(full * size))))
    return Workload(**{**workload.__dict__, "synth": synth})


def peak_rss_mb() -> float:
    """High-water resident memory of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def end_to_end_figures(workload: Workload, rounds: list[Round], setup_s: float,
                       peak_mb: float) -> tuple[dict, list]:
    first = rounds[0].directory
    sizes = {p: count_lines(os.path.join(first, pairs_file(p))) for p in PARTS}
    epochs = {m: epochs_run(first, m) for m in workload.models}
    per_round = [round_figures(r, sizes, epochs) for r in rounds if not r.traced]
    # the set-up is scaled like every command, by the machine speed seen over
    # the first round (its probes, weighted by command time): a probe at the
    # end of the set-up is too short to read the machine's phase
    first_round = rounds[0]
    speed_factor = first_round.pipeline_s / sum(r.seconds for r in first_round.runs)
    values = {
        "setup_s": setup_s * speed_factor,
        **{k: statistics.median(f[k] for f in per_round) for k in
           ("pipeline_s", "prepare_s", "train_examples_per_s", "eval_examples_per_s")},
        "peak_rss_mb": peak_mb,
        "pairs_mb": sum(os.path.getsize(os.path.join(first, pairs_file(p))) for p in PARTS) / MB,
    }
    return values, per_round


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = scaled(WORKLOADS[args.workload], args.size)
    cli = import_program()
    work = os.path.join(RUNS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    tracer = tracing.Tracer(tracing.LAYER_HOOKS) if args.trace else None

    if tracer is not None:
        tracer.install()
    synth = setup(cli, workload, args.seed, work)
    setup_s = process_age_s()
    if tracer is not None:
        tracer.uninstall()
        synth_seconds = tracer.get("synth.generate_corpus").seconds
    if synth.code != 0:
        sys.stderr.write(synth.stderr)
        raise SystemExit(f"error: setup failed: argtree {' '.join(synth.command.argv)}")

    commands = round_commands(workload, args.seed)
    rounds: list[Round] = []
    needed = 2 if tracer is not None else 1  # a traced run needs one round of each kind
    window_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        result = run_round(cli, commands, os.path.join(work, f"round{len(rounds) + 1}"),
                           tracer if traced else None)
        rounds.append(result)
        if len(rounds) == 1:
            # set-up and one round, before the checks (which load scipy.stats,
            # whole pairs files and every checkpoint): every round does the
            # same work, and later ones add only allocator growth, which
            # would tie the figure to how many rounds fit in the window
            peak_mb = peak_rss_mb()
        if len(rounds) > 1:
            shutil.rmtree(result.directory)
        elapsed = time.perf_counter() - window_start
        if len(rounds) >= needed and elapsed + result.wall_s > args.seconds:
            break
    attempted = 1 + sum(len(r.runs) for r in rounds)  # the synth command, then every round
    failed = sum(len(r.failed) for r in rounds)

    failures = [f"command failed ({run.code}): argtree {' '.join(run.command.argv)}\n{run.stderr}"
                for result in rounds for run in result.failed]
    for result in rounds[1:]:
        if result.hashes != rounds[0].hashes:
            kind = "traced" if result.traced else "untraced"
            failures.append(f"{kind} round {result.directory}: output bytes differ from round 1")
    values: dict[str, float] = {}
    per_round: list[dict] = []
    if not failed:
        failures += verify_round(workload, rounds[0], work)
        if tracer is None:
            values, per_round = end_to_end_figures(workload, rounds, setup_s, peak_mb)
        else:
            values = layer_figures(workload, rounds, work, synth_seconds)
    units = END_TO_END if tracer is None else {name: spec[0] for name, spec in PER_LAYER.items()}

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "topics": workload.synth["topic_count"],
        "setup_wall_s": setup_s,
        "rounds": len(rounds),
        "window_s": time.perf_counter() - window_start,
        "per_round": per_round,
        "machine": machine_info(),
        "failures": failures,
    }
    result_line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    for failure in failures:
        print(f"benchmark: {failure}", file=sys.stderr)
    if failures:
        print(f"benchmark: work files kept in {work}", file=sys.stderr)
    else:
        shutil.rmtree(work)
    print(json.dumps(info))
    print(json.dumps(result_line))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
