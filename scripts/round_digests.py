#!/usr/bin/env python3
"""sha256 of every output byte of the benchmark's set-up and one round per workload.

For each workload in `benchmark/workloads.py` this runs the benchmark's
set-up (config files and `argtree synth`) and then one untraced round of
its CLI flow, through the same `setup`, `round_commands`, `run_round` and
`hash_tree` that `benchmark/run.py` uses, with argtree imported from this
checkout's `src/`. It prints one `<sha256>  <workload>/<name>` line per
file written and per command's stdout, sorted by name, so that two
checkouts write the same bytes exactly when their outputs `diff` clean:

    python scripts/round_digests.py --seed 5 > change.txt
    (cd ../parent && python scripts/round_digests.py --seed 5) > parent.txt
    diff parent.txt change.txt

Timing is not printed. It takes a few seconds and is not part of the
test suite. Exit 1 if a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

from run import hash_tree, import_program, run_round, setup  # noqa: E402
from workloads import WORKLOADS, round_commands  # noqa: E402


def workload_digests(cli, name: str, seed: int, scratch: str) -> dict[str, str]:
    """{"<name>/<file or stdout>": sha256} of the set-up and one round of the workload."""
    work = os.path.join(scratch, name)
    synth = setup(cli, WORKLOADS[name], seed, work)
    if synth.code != 0:
        raise SystemExit(f"error: {name}: set-up exited {synth.code}\n{synth.stderr}")
    digests = {f"{name}/{file}": digest for file, digest in hash_tree(work).items()}
    result = run_round(cli, round_commands(WORKLOADS[name], seed), os.path.join(work, "round"))
    if result.failed:
        run = result.failed[0]
        raise SystemExit(
            f"error: {name}: argtree {' '.join(run.command.argv)} exited {run.code}\n{run.stderr}"
        )
    digests.update({f"{name}/round/{file}": digest for file, digest in result.hashes.items()})
    for i, run in enumerate(result.runs, start=1):
        stdout = hashlib.sha256(run.stdout.encode("utf-8")).hexdigest()
        digests[f"{name}/stdout/{i:02d}-{run.command.argv[0]}"] = stdout
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="the benchmark's --seed")
    args = parser.parse_args()
    cli = import_program()
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="argtree-digests-") as scratch:
        for name in sorted(WORKLOADS):
            digests.update(workload_digests(cli, name, args.seed, scratch))
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
