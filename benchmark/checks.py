"""Correctness checks on one round's outputs.

Each check compares what the program wrote against a count the benchmark
makes itself from the corpus JSON (walking parent pointers), against an
independent computation (scipy's paired t-test), or against a property
the method must have (loss below ln 2 after training from zero weights,
a gradient that matches central differences, predictions that do not
depend on example order). Every check returns a list of failure
messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

# |share - 0.5| of second_more_specific labels may be at most this many
# standard errors of a fair coin (the orientation is a seeded hash coin).
ORIENTATION_SIGMAS = 5.0
# The length baseline is right on every longer-descendant pair and on the
# equal-length pairs where the coin put the descendant second, so its
# accuracy differs from the ledger's prediction only by that coin.
LENGTH_SIGMAS = 5.0
GRADIENT_TOLERANCE = 1e-4
GRADIENT_EPSILON = 1e-5
GRADIENT_SAMPLE = 8
# Printed precision of `argtree significance`: t to 4 decimals, p to 6.
T_TOLERANCE = 5e-5
P_TOLERANCE = 5e-7


@dataclass
class CorpusIndex:
    """Parent pointers and stances per (topic, claim), read from the JSON."""

    topics: list[str] = field(default_factory=list)
    parent: dict[tuple[str, str], Optional[str]] = field(default_factory=dict)
    stance: dict[tuple[str, str], Optional[str]] = field(default_factory=dict)
    claims: dict[str, list[str]] = field(default_factory=dict)
    texts: set[str] = field(default_factory=set)

    def ancestors(self, topic: str, claim: str, limit: int) -> list[tuple[str, str]]:
        """[(ancestor, stance of the edge below it)...] nearest first."""
        chain = []
        node = claim
        while len(chain) < limit:
            up = self.parent[(topic, node)]
            if up is None:
                break
            chain.append((up, self.stance[(topic, node)]))
            node = up
        return chain


def load_corpus(path: str) -> CorpusIndex:
    index = CorpusIndex()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            topic = record["topic_id"]
            index.topics.append(topic)
            index.claims[topic] = []
            for claim in record["claims"]:
                key = (topic, claim["id"])
                index.parent[key] = claim["parent"]
                index.stance[key] = claim["stance"]
                index.claims[topic].append(claim["id"])
                index.texts.add(claim["text"])
    return index


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_checkpoint_meta(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if len(lines) < 2 or lines[-2] != "[meta]":
        raise ValueError(f"{path}: no [meta] section at the end")
    return json.loads(lines[-1])


def walk_counts(corpus: CorpusIndex, topics: Sequence[str], max_distance: int) -> dict:
    """Pairs per distance and per topic, counted from parent pointers."""
    by_distance: Counter = Counter()
    by_topic: Counter = Counter()
    for topic in topics:
        for claim in corpus.claims[topic]:
            for distance in range(1, len(corpus.ancestors(topic, claim, max_distance)) + 1):
                by_distance[distance] += 1
                by_topic[topic] += 1
    return {"distance": by_distance, "topic": by_topic}


def path_edges(corpus: CorpusIndex, record: dict) -> list[tuple[str, str, str]]:
    """(topic, parent, child) edges from a stance pair's descendant up to its ancestor."""
    topic, node = record["topic_id"], record["b_id"]
    edges = []
    for ancestor, _ in corpus.ancestors(topic, node, record["distance"]):
        edges.append((topic, ancestor, node))
        node = ancestor
    return edges


# ----------------------------------------------------------------- checks


def check_split(split: dict, corpus: CorpusIndex) -> list[str]:
    parts = [set(split[p]) for p in ("train", "dev", "test")]
    failures = []
    if any(parts[i] & parts[j] for i, j in ((0, 1), (0, 2), (1, 2))):
        failures.append("split: parts overlap")
    if set().union(*parts) != set(corpus.topics):
        failures.append("split: parts do not cover exactly the corpus topics")
    return failures


def check_pair_counts(label: str, records: list[dict], expected: dict) -> list[str]:
    got = Counter(r["distance"] for r in records)
    if got != expected["distance"]:
        return [f"{label}: pairs per distance {dict(sorted(got.items()))} != walked "
                f"{dict(sorted(expected['distance'].items()))}"]
    return []


def check_stance_labels(label: str, records: list[dict], corpus: CorpusIndex) -> list[str]:
    bad = 0
    for record in records:
        chain = corpus.ancestors(record["topic_id"], record["b_id"], record["distance"])
        if len(chain) != record["distance"] or chain[-1][0] != record["a_id"]:
            bad += 1
            continue
        cons = sum(1 for _, stance in chain if stance == "con")
        if record["label"] != ("opposes" if cons % 2 else "supports"):
            bad += 1
    return [f"{label}: {bad} stance pair(s) disagree with the con-edge parity"] if bad else []


def check_specificity_labels(label: str, records: list[dict], corpus: CorpusIndex) -> list[str]:
    failures = []
    bad = 0
    second = 0
    for record in records:
        if record["label"] == "second_more_specific":
            second += 1
            general, specific = record["first_id"], record["second_id"]
        else:
            general, specific = record["second_id"], record["first_id"]
        chain = corpus.ancestors(record["topic_id"], specific, record["distance"])
        if len(chain) != record["distance"] or chain[-1][0] != general:
            bad += 1
    if bad:
        failures.append(f"{label}: {bad} pair(s) label the shallower claim more specific")
    n = len(records)
    band = ORIENTATION_SIGMAS * 0.5 / math.sqrt(n) if n else 0.0
    if n and abs(second / n - 0.5) > band:
        failures.append(
            f"{label}: second_more_specific share {second / n:.4f} outside 0.5 +- {band:.4f}"
        )
    return failures


def check_length_accuracy(report: dict, ledger_topics: list[dict], test_topics: set[str]) -> list[str]:
    failures = []
    for distance in range(1, 6):
        key = str(distance)
        longer = equal = total = 0
        for topic in ledger_topics:
            if topic["topic_id"] in test_topics:
                outcome = topic["length_pairs"][key]
                longer += outcome["longer"]
                equal += outcome["equal"]
                total += outcome["longer"] + outcome["equal"] + outcome["shorter"]
        stratum = report["strata"].get(f"d{distance}")
        if stratum is None or stratum["count"] != total:
            failures.append(f"length d{distance}: report has {stratum and stratum['count']} "
                            f"pairs, the ledger {total}")
            continue
        if total == 0:
            continue
        predicted = (longer + 0.5 * equal) / total
        tolerance = LENGTH_SIGMAS * 0.5 * math.sqrt(equal) / total + 1e-12
        measured = stratum["correct"] / total
        if abs(measured - predicted) > tolerance:
            failures.append(f"length d{distance}: accuracy {measured:.4f}, ledger predicts "
                            f"{predicted:.4f} +- {tolerance:.4f}")
    return failures


def majority_label(records: list[dict]) -> str:
    """The CLI's rule: most frequent training label, ties to the sorted first."""
    counts = Counter(r["label"] for r in records)
    best = max(counts.values())
    return sorted(label for label, count in counts.items() if count == best)[0]


def check_majority(report: dict, train: list[dict], test: list[dict]) -> list[str]:
    label = majority_label(train)
    expected = sum(1 for r in test if r["label"] == label)
    got = report["strata"]["all"]
    if (got["correct"], got["count"]) != (expected, len(test)):
        return [f"majority: {got['correct']}/{got['count']} correct, expected "
                f"{expected}/{len(test)} ({label})"]
    return []


def check_report_counts(name: str, report: dict, expected: dict) -> list[str]:
    failures = []
    strata = report["strata"]
    for distance, count in expected["distance"].items():
        got = strata.get(f"d{distance}", {}).get("count")
        if got != count:
            failures.append(f"{name} report: d{distance} count {got}, walked {count}")
    if strata["all"]["count"] != sum(expected["distance"].values()):
        failures.append(f"{name} report: all count {strata['all']['count']} != walked total")
    per_topic = report["per_topic"]
    if {t: n for t, (_, n) in per_topic.items()} != dict(expected["topic"]):
        failures.append(f"{name} report: per-topic counts differ from the walked counts")
    if sum(c for c, _ in per_topic.values()) != strata["all"]["correct"]:
        failures.append(f"{name} report: per-topic correct counts do not sum to `all`")
    return failures


_T_LINE = re.compile(r"^t: (\S+)\s+df: (\d+)\s+p: (\S+)$", re.M)


def check_significance(stdout: str, report_a: dict, report_b: dict) -> list[str]:
    from scipy import stats

    def accuracies(report: dict) -> dict[str, float]:
        return {t: c / n for t, (c, n) in report["per_topic"].items()}

    acc_a, acc_b = accuracies(report_a), accuracies(report_b)
    topics = sorted(set(acc_a) & set(acc_b))
    a = [acc_a[t] for t in topics]
    b = [acc_b[t] for t in topics]
    diffs = [x - y for x, y in zip(a, b)]
    if len(set(diffs)) == 1:
        if "t: degenerate" not in stdout:
            return ["significance: zero-variance differences not reported as degenerate"]
        return []
    match = _T_LINE.search(stdout)
    if match is None:
        return ["significance: no `t: ... df: ... p: ...` line in the output"]
    t_printed, df, p_printed = float(match.group(1)), int(match.group(2)), float(match.group(3))
    expected = stats.ttest_rel(a, b)
    failures = []
    if df != len(topics) - 1:
        failures.append(f"significance: df {df}, expected {len(topics) - 1}")
    if abs(t_printed - expected.statistic) > T_TOLERANCE + 1e-9 * abs(expected.statistic):
        failures.append(f"significance: t {t_printed} != scipy {expected.statistic:.6f}")
    if abs(p_printed - expected.pvalue) > P_TOLERANCE:
        failures.append(f"significance: p {p_printed} != scipy {expected.pvalue:.8f}")
    return failures


def check_logreg_loss(name: str, meta: dict) -> list[str]:
    final = meta["history"][-1][1]
    if not final < math.log(2.0):
        return [f"{name}: final training loss {final:.6f} is not below ln 2"]
    return []


def directional_gradient_error(
    loss_and_grads: Callable[[], tuple[float, list[np.ndarray]]],
    blocks: list[np.ndarray],
    seed: int = 0,
    epsilon: float = GRADIENT_EPSILON,
) -> float:
    """Relative error of the analytic directional derivative.

    The direction mixes a seeded random unit vector with the normalised
    analytic gradient, so the derivative along it is never tiny.
    `loss_and_grads` evaluates at the current values of `blocks`, which are
    perturbed in place and restored.
    """
    rng = np.random.default_rng(seed)
    _, grads = loss_and_grads()
    g_norm = math.sqrt(sum(float((g * g).sum()) for g in grads)) or 1.0
    random = [rng.standard_normal(b.shape) for b in blocks]
    r_norm = math.sqrt(sum(float((r * r).sum()) for r in random))
    direction = [r / r_norm + g / g_norm for r, g in zip(random, grads)]
    analytic = sum(float((g * d).sum()) for g, d in zip(grads, direction))
    originals = [b.copy() for b in blocks]
    for b, d in zip(blocks, direction):
        b += epsilon * d
    plus, _ = loss_and_grads()
    for b, o, d in zip(blocks, originals, direction):
        b[...] = o - epsilon * d
    minus, _ = loss_and_grads()
    for b, o in zip(blocks, originals):
        b[...] = o
    numeric = (plus - minus) / (2.0 * epsilon)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)


def neural_objective(model, examples: list, l2: float, seed: int = 0):
    """(loss_and_grads, blocks) of the training loss on a fixed test sample.

    The sample is GRADIENT_SAMPLE examples drawn with a seeded generator;
    the loss is the one training minimises (mean cross-entropy plus L2).
    """
    from argtree.models.neural import batch_loss_and_grads, pack_dataset

    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(examples), size=min(GRADIENT_SAMPLE, len(examples)),
                              replace=False))
    packed = pack_dataset(model.kind, [examples[i] for i in picks], model.vocab,
                          model.encoder_config, model.label_names)
    names = list(model.params.blocks())

    def loss_and_grads() -> tuple[float, list[np.ndarray]]:
        loss, grads = batch_loss_and_grads(model.kind, model.params, packed, l2)
        grad_blocks = grads.blocks()
        return loss, [grad_blocks[n] for n in names]

    return loss_and_grads, list(model.params.blocks().values())


def check_gradient(name: str, loss_and_grads, blocks: list[np.ndarray], seed: int = 0) -> list[str]:
    error = directional_gradient_error(loss_and_grads, blocks, seed=seed)
    if not error < GRADIENT_TOLERANCE:
        return [f"{name}: directional gradient relative error {error:.3e} >= {GRADIENT_TOLERANCE}"]
    return []


def check_order_invariance(name: str, predict: Callable[[list], list], examples: list,
                           seed: int = 0) -> list[str]:
    in_order = predict(examples)
    permutation = np.random.default_rng(seed).permutation(len(examples))
    shuffled = predict([examples[i] for i in permutation])
    restored = [None] * len(examples)
    for position, original in enumerate(permutation):
        restored[original] = shuffled[position]
    if restored != list(in_order):
        moved = sum(1 for x, y in zip(restored, in_order) if x != y)
        return [f"{name}: {moved} prediction(s) change when the test set is permuted"]
    return []
