#!/usr/bin/env python3
"""Paper-shaped run: a seeded corpus the size of the paper's, one process per command.

The paper's corpus has 741 topics and 95,312 claims at depth 2-6. This run
synthesizes 741 full binary trees of depth 6 (94,107 claims), then

    synth -> split -> derive-pairs (specificity and stance, train and test)
    -> featurize (specificity) -> train logreg (3 epochs) and path-hier
    (1 epoch) -> evaluate

Each command runs in its own child process through `argtree.cli.main`,
importing argtree from this checkout's `src/`. The script prints each
command's wall time and peak RSS, read for that child alone from
`os.wait4` (`RUSAGE_CHILDREN` keeps only the maximum over all children),
then the sha256 of every file written and the machine, with the fields
that `benchmark/run.py` prints.

The work directory grows to about 920 MB, so this is not part of the test
suite. Set OPENBLAS_NUM_THREADS=1 for figures comparable across machines.

Usage:
    python scripts/paper_scale.py --workdir DIR [--seed N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = "import sys; from argtree.cli import main; sys.exit(main(sys.argv[1:]))"


def run_child(argv: list[str]) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of `argtree <argv>` in a new process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CHILD, *argv], env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def machine() -> dict:
    sys.path.insert(0, str(ROOT / "benchmark"))
    from run import machine_info

    return machine_info()


def commands(work: Path, seed: int) -> list[tuple[str, list[str]]]:
    corpus, split, vocab = work / "corpus.jsonl", work / "split.json", work / "vocab.json"

    def pairs(task: str, part: str) -> Path:
        return work / f"{task}-{part}.pairs.jsonl"

    def features(part: str) -> Path:
        return work / f"specificity-{part}.features.jsonl"

    steps = [
        ("synth", ["synth", "--config", work / "synth.conf", "-o", corpus]),
        ("split", ["split", corpus, "--seed", seed, "-o", split]),
    ]
    for task in ("specificity", "stance"):
        for part in ("train", "test"):
            steps.append((f"derive-pairs {task} {part}", [
                "derive-pairs", corpus, "--task", task, "--split", split, "--part", part,
                "-o", pairs(task, part),
            ]))
    for part in ("train", "test"):
        steps.append((f"featurize specificity {part}", [
            "featurize", pairs("specificity", part), "--task", "specificity",
            "--vocab", vocab, "-o", features(part),
        ]))
    steps += [
        ("train logreg", [
            "train", "--model", "logreg", "--task", "specificity", "--train", features("train"),
            "--config", work / "logreg.conf", "--seed", seed, "-o", work / "logreg.ckpt",
        ]),
        ("train path-hier", [
            "train", "--model", "path-hier", "--task", "stance", "--train",
            pairs("stance", "train"), "--config", work / "hier.conf", "--seed", seed,
            "-o", work / "path-hier.ckpt",
        ]),
        ("evaluate logreg", [
            "evaluate", "--model", work / "logreg.ckpt", "--test", features("test"),
            "-o", work / "eval-logreg.csv",
        ]),
        ("evaluate path-hier", [
            "evaluate", "--model", work / "path-hier.ckpt", "--test", pairs("stance", "test"),
            "-o", work / "eval-path-hier.csv",
        ]),
    ]
    return [(name, [str(part) for part in argv]) for name, argv in steps]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, help="output directory (about 920 MB)")
    parser.add_argument("--seed", type=int, default=1, help="corpus, split and training seed")
    args = parser.parse_args()
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    (work / "synth.conf").write_text(
        f"topic_count = 741\nbranch_min = 2\nbranch_max = 2\n"
        f"depth_min = 6\ndepth_max = 6\nseed = {args.seed}\n",
        encoding="utf-8",
    )
    (work / "logreg.conf").write_text("max_epochs = 3\n", encoding="utf-8")
    (work / "hier.conf").write_text("max_epochs = 1\n", encoding="utf-8")

    for name, argv in commands(work, args.seed):
        code, wall, rss = run_child(argv)
        print(f"{name:<30} {wall:8.1f} s {rss:9.0f} MB", flush=True)
        if code != 0:
            print(f"error: argtree {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
    print("sha256:")
    for path in sorted(work.iterdir()):
        if path.is_file() and not path.name.endswith(".conf"):
            print(f"  {sha256(path)}  {path.name}  {path.stat().st_size / 1e6:.1f} MB")
    print(json.dumps({"machine": machine()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
