"""The benchmark's workloads: corpus shape, split, models and CLI flow.

Every workload is generated from the run's seed: the seed is the synth
seed, the split seed, the derive seed and the training seed. Tree shapes
are fixed (one branching factor, one depth) except on stance-shallow,
whose 6-8 children per root average out over 150 topics. With a fixed
shape every seed gives the same number of claims and pairs, so the
size-driven metrics (pipeline_s, prepare_s, pairs_mb) measure the code
and not the draw; the seed still changes every text, stance and length.

Sizes and epochs keep one round at 2-5 s on the reference machine, so a
30 s run holds 5-12 rounds to take medians over, while every split part
keeps at least two topics (the paired t-test needs two).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

PARTS = ("train", "dev", "test")
CORPUS = "corpus.jsonl"
LEDGER = "ledger.jsonl"
SYNTH_CONF = "synth.conf"
LOGREG_CONF = "logreg.conf"
NEURAL_CONF = "neural.conf"
NEURAL_KINDS = ("pair", "path-flat", "path-hier")
PREPARE_COMMANDS = ("validate", "stats", "split", "derive-pairs", "featurize")
EVAL_COMMANDS = ("evaluate", "report", "significance")


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    max_distance: int
    synth: dict
    split_ratios: str
    models: tuple[str, ...]
    significance: tuple[str, str]
    featurize: bool = False
    use_path: bool = False
    logreg_conf: dict = field(default_factory=dict)
    neural_conf: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    """One `argtree` invocation of a round; files are relative to the round."""

    argv: tuple[str, ...]
    model: Optional[str] = None

    @property
    def name(self) -> str:
        return self.argv[0]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="specificity-bow",
            task="specificity",
            max_distance=5,
            synth=dict(
                topic_count=16, branch_min=2, branch_max=2, depth_min=6, depth_max=6,
                length_signal_p=0.9,
            ),
            split_ratios="0.6,0.2,0.2",
            models=("majority", "length", "logreg"),
            significance=("logreg", "majority"),
            featurize=True,
            logreg_conf=dict(learning_rate=0.05, batch_size=64, max_epochs=3, patience=0),
        ),
        Workload(
            name="stance-deep",
            task="stance",
            max_distance=4,
            synth=dict(
                topic_count=8, branch_min=2, branch_max=2, depth_min=5, depth_max=5,
                con_probability=0.53, length_signal_p=0.0, stance_marker_p=0.95,
                root_len_min=9, root_len_max=11, min_claim_tokens=6,
            ),
            split_ratios="0.5,0.25,0.25",
            models=("majority", "logreg", "pair", "path-flat", "path-hier"),
            significance=("pair", "path-hier"),
            featurize=True,
            use_path=True,
            logreg_conf=dict(learning_rate=0.05, batch_size=64, max_epochs=3, patience=0),
            neural_conf=dict(learning_rate=0.3, batch_size=16, max_epochs=1, patience=0),
        ),
        Workload(
            name="stance-shallow",
            task="stance",
            max_distance=1,
            synth=dict(
                topic_count=150, branch_min=6, branch_max=8, depth_min=1, depth_max=1,
                con_probability=0.5, length_signal_p=0.0, stance_marker_p=0.95,
                root_len_min=9, root_len_max=11, min_claim_tokens=6,
            ),
            split_ratios="0.6,0.2,0.2",
            models=("majority", "pair", "path-hier"),
            significance=("pair", "path-hier"),
            neural_conf=dict(learning_rate=0.3, batch_size=16, max_epochs=2, patience=0),
        ),
    )
}


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def pairs_file(part: str) -> str:
    return f"{part}.pairs.jsonl"


def features_file(part: str) -> str:
    return f"{part}.features.jsonl"


def checkpoint_file(model: str) -> str:
    return f"{model}.ckpt"


def report_file(model: str) -> str:
    return f"{model}.report.json"


def test_data(model: str) -> str:
    return features_file("test") if model == "logreg" else pairs_file("test")


def train_command(workload: Workload, model: str, seed: int) -> Command:
    argv = ["train", "--model", model, "--task", workload.task]
    if model == "logreg":
        argv += ["--train", features_file("train"), "--dev", features_file("dev"),
                 "--config", f"../{LOGREG_CONF}", "--seed", str(seed)]
    elif model in NEURAL_KINDS:
        argv += ["--train", pairs_file("train"), "--dev", pairs_file("dev"),
                 "--config", f"../{NEURAL_CONF}", "--seed", str(seed)]
    else:
        argv += ["--train", pairs_file("train")]
    argv += ["-o", checkpoint_file(model)]
    return Command(tuple(argv), model)


def round_commands(workload: Workload, seed: int) -> list[Command]:
    """The CLI flow of one round, run inside a fresh round directory."""
    corpus = f"../{CORPUS}"
    commands = [
        Command(("validate", corpus)),
        Command(("stats", corpus, "-o", "stats.txt")),
        Command(("split", corpus, "--ratios", workload.split_ratios, "--seed", str(seed),
                 "-o", "split.json")),
    ]
    for part in PARTS:
        commands.append(Command((
            "derive-pairs", corpus, "--task", workload.task,
            "--max-distance", str(workload.max_distance), "--split", "split.json",
            "--part", part, "--seed", str(seed), "-o", pairs_file(part),
        )))
    if workload.featurize:
        for part in PARTS:
            argv = ["featurize", pairs_file(part), "--task", workload.task, "--vocab", "vocab.json"]
            if workload.use_path:
                argv.append("--use-path")
            commands.append(Command(tuple(argv + ["-o", features_file(part)])))
    for model in workload.models:
        commands.append(train_command(workload, model, seed))
    for model in workload.models:
        commands.append(Command((
            "evaluate", "--model", checkpoint_file(model), "--test", test_data(model),
            "--name", model, "--json", report_file(model), "-o", f"{model}.csv",
        ), model))
    commands.append(Command(("report", *(f"{m}.csv" for m in workload.models), "-o", "report.csv")))
    model_a, model_b = workload.significance
    shared = features_file("test") if "logreg" in workload.significance else pairs_file("test")
    commands.append(Command((
        "significance", "--model-a", checkpoint_file(model_a),
        "--model-b", checkpoint_file(model_b), "--test", shared,
    )))
    return commands
