#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a checkout:

    python3 benchmark/selftest.py

1. Runs every workload at toy size through `run.py`, untraced and traced,
   and checks the result line against BENCHMARK.json: exactly the keys
   correct/attempted/failed/metrics, correct true, no failed command,
   every metric of the run's kind present with its unit and a finite value.
2. Runs one toy round of specificity-bow and of stance-shallow in this
   process, shows that every correctness check passes on the real outputs,
   and that each check fails once its input is corrupted: a flipped
   label, a swapped prediction, a wrong p-value and the like.

Exits 0 when everything behaved as expected; prints one line per step.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import checks
import run
from workloads import CORPUS, LEDGER, WORKLOADS, checkpoint_file, pairs_file, report_file

TOY = 0.1
SEED = 3
SPECIFICITY_LABELS = ("first_more_specific", "second_more_specific")
STANCE_LABELS = ("supports", "opposes")
problems: list[str] = []


def other(label: str, labels: tuple[str, str]) -> str:
    return labels[1] if label == labels[0] else labels[0]


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        problems.append(label)


def expect_fails(label: str, failures: list[str]) -> None:
    expect(f"check catches {label}", bool(failures))


def result_lines() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
                 "--size", str(TOY)],
                capture_output=True, text=True, cwd=run.ROOT, timeout=600,
            )
            label = f"{workload} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(f"{label}: result line is JSON ({proc.stderr[-500:]})", False)
                continue
            expected = spec["per_layer" if trace else "end_to_end"]
            metrics = result.get("metrics", {})
            expect(f"{label}: exit 0", proc.returncode == 0)
            expect(f"{label}: keys", set(result) == {"correct", "attempted", "failed", "metrics"})
            expect(f"{label}: correct, nothing failed",
                   result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1)
            expect(f"{label}: metric names", set(metrics) == {m["name"] for m in expected})
            expect(f"{label}: units and finite values", all(
                metrics.get(m["name"], {}).get("unit") == m["unit"]
                and isinstance(metrics[m["name"]]["value"], (int, float))
                and math.isfinite(metrics[m["name"]]["value"])
                for m in expected
            ))
            if not trace:
                expect(f"{label}: end-to-end metrics are positive",
                       all(v["value"] > 0 for v in metrics.values()))


def toy_round(cli, name: str, work: str):
    workload = run.scaled(WORKLOADS[name], TOY)
    run.setup(cli, workload, SEED, work)
    result = run.run_round(cli, run.round_commands(workload, SEED), os.path.join(work, "round1"))
    expect(f"{name}: toy round runs every command", not result.failed)
    failures = run.verify_round(workload, result, work)
    expect(f"{name}: every check passes on the real outputs {failures}", not failures)
    return result


def corrupted_specificity(cli, work: str) -> None:
    result = toy_round(cli, "specificity-bow", work)
    d = result.directory
    corpus = checks.load_corpus(os.path.join(work, CORPUS))
    split = checks.read_json(os.path.join(d, "split.json"))
    test = checks.read_jsonl(os.path.join(d, pairs_file("test")))
    train = checks.read_jsonl(os.path.join(d, pairs_file("train")))
    walked = checks.walk_counts(corpus, split["test"], 5)

    overlap = dict(split, train=split["train"] + split["test"][:1])
    expect_fails("a topic in two split parts", checks.check_split(overlap, corpus))
    missing = dict(split, test=split["test"][1:])
    expect_fails("a topic in no split part", checks.check_split(missing, corpus))
    expect_fails("a dropped pair", checks.check_pair_counts("test", test[1:], walked))

    flipped = copy.deepcopy(test)
    flipped[0]["label"] = other(flipped[0]["label"], SPECIFICITY_LABELS)
    expect_fails("a flipped specificity label",
                 checks.check_specificity_labels("test", flipped, corpus))
    one_sided = copy.deepcopy(test)
    for record in one_sided:
        if record["label"] == "first_more_specific":
            record["first_id"], record["second_id"] = record["second_id"], record["first_id"]
            record["label"] = "second_more_specific"
    only_band = checks.check_specificity_labels("test", one_sided, corpus)
    expect_fails("an orientation share far from 0.5",
                 [f for f in only_band if "share" in f])

    ledger = [r for r in checks.read_jsonl(os.path.join(work, LEDGER)) if r["record"] == "topic"]
    length = checks.read_json(os.path.join(d, report_file("length")))
    swapped = copy.deepcopy(length)
    stratum = swapped["strata"]["d1"]
    stratum["correct"] = stratum["count"] - stratum["correct"]  # every prediction swapped
    expect_fails("swapped length predictions vs the ledger",
                 checks.check_length_accuracy(swapped, ledger, set(split["test"])))

    majority = checks.read_json(os.path.join(d, report_file("majority")))
    relabelled = copy.deepcopy(test)
    relabelled[0]["label"] = other(relabelled[0]["label"], SPECIFICITY_LABELS)
    expect_fails("a flipped test label under the majority model",
                 checks.check_majority(majority, train, relabelled))

    wrong_topic = copy.deepcopy(majority)
    topic = next(iter(wrong_topic["per_topic"]))
    wrong_topic["per_topic"][topic][0] += 1
    expect_fails("per-topic correct counts that do not sum to `all`",
                 checks.check_report_counts("majority", wrong_topic, walked))
    wrong_distance = copy.deepcopy(majority)
    wrong_distance["strata"]["d2"]["count"] += 1
    expect_fails("a per-distance count off by one",
                 checks.check_report_counts("majority", wrong_distance, walked))

    logreg = checks.read_json(os.path.join(d, report_file("logreg")))
    significance = next(r for r in result.runs if r.command.name == "significance").stdout
    if "degenerate" not in significance:
        line = next(line for line in significance.splitlines() if line.startswith("t: "))
        p = float(line.rsplit("p: ", 1)[1])
        p += 0.01 if p < 0.5 else -0.01
        wrong_p = significance.replace(line, line.rsplit("p: ", 1)[0] + f"p: {p:.6f}")
        expect_fails("a wrong p-value", checks.check_significance(wrong_p, logreg, majority))
        wrong_t = significance.replace(line, "t: 1" + line[3:])
        expect_fails("a wrong t statistic", checks.check_significance(wrong_t, logreg, majority))
    else:
        expect("specificity toy significance is not degenerate", False)
    same = copy.deepcopy(majority)
    expect_fails("equal per-topic accuracies not called degenerate",
                 checks.check_significance("t: 1.0000  df: 1  p: 0.500000", same, majority))

    meta = checks.read_checkpoint_meta(os.path.join(d, checkpoint_file("logreg")))
    expect("logreg final loss is below ln 2", not checks.check_logreg_loss("logreg", meta))
    meta["history"][-1][1] = math.log(2.0) + 0.01
    expect_fails("a logreg loss above ln 2", checks.check_logreg_loss("logreg", meta))


def corrupted_stance(cli, work: str) -> None:
    from argtree.models import load_model
    from argtree.pairs import read_pairs_file

    result = toy_round(cli, "stance-shallow", work)
    d = result.directory
    corpus = checks.load_corpus(os.path.join(work, CORPUS))
    test = checks.read_jsonl(os.path.join(d, pairs_file("test")))
    flipped = copy.deepcopy(test)
    flipped[0]["label"] = other(flipped[0]["label"], STANCE_LABELS)
    expect_fails("a flipped stance label", checks.check_stance_labels("test", flipped, corpus))

    examples = read_pairs_file(os.path.join(d, pairs_file("test")))
    model = load_model(os.path.join(d, checkpoint_file("path-hier")))
    objective, blocks = checks.neural_objective(model, examples, 1e-4)

    def scaled_gradient():
        loss, grads = objective()
        return loss, [g * 1.01 for g in grads]

    expect_fails("a gradient 1% off", checks.check_gradient("path-hier", scaled_gradient, blocks))

    def position_dependent(batch):
        labels = list(model.predict_labels(batch))
        labels[0] = other(labels[0], STANCE_LABELS)  # swapped prediction
        return labels

    expect_fails("a prediction that depends on its position",
                 checks.check_order_invariance("path-hier", position_dependent, examples))


def main() -> int:
    result_lines()
    cli = run.import_program()
    work = os.path.join(run.RUNS_DIR, f"selftest-{os.getpid()}")
    try:
        corrupted_specificity(cli, os.path.join(work, "specificity"))
        corrupted_stance(cli, os.path.join(work, "stance"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
