"""Acceptance gate: one test per numbered criterion, real experiments inside.

Every test prints a single PASS/FAIL line straight to the terminal (bypassing
capture) with the measured numbers, then asserts. Heavy corpus+training runs
live in module-scoped fixtures so criteria sharing an experiment run it once.
All seeds are pinned, so reruns reproduce the same numbers bit for bit.

Criterion 9 checks reference statistics of the canonical debate-platform corpus;
it runs only when ARGTREE_REAL_CORPUS points at that file and skips otherwise.
"""

from __future__ import annotations

import io
import os
import time

import numpy as np
import pytest

from argtree.evaluation import EvalItem, stratified_eval
from argtree.features import Lexicon, build_vocabulary, featurize_specificity
from argtree.models import (
    dump_checkpoint,
    gradcheck_logreg,
    gradcheck_neural,
    length_predict,
    model_payload,
    neural_train_config,
    train_logreg,
    train_neural,
    TrainConfig,
)
from argtree.pairs import (
    SpecificityLabel,
    derive_specificity_examples,
    derive_stance_examples,
    derive_stance_label,
    split_by_topic,
)
from argtree.stats import corpus_stats
from argtree.corpus_io import parse_corpus_file
from argtree.synth import SynthConfig, generate_corpus, stance_oracle
from argtree.trees import StanceEdge, build_tree, node_depth, path_between
from argtree.trees import ancestor_descendant_pairs


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {label} [{status}] {detail}")
    assert ok, f"{label}: {detail}"


def _stance_report(name, examples, predicted):
    items = [
        EvalItem(
            topic_id=e.topic_id,
            distance=e.distance,
            same_stance=e.same_stance,
            gold=e.label.value,
            predicted=p,
        )
        for e, p in zip(examples, predicted)
    ]
    return stratified_eval(items, task="stance", model=name)


# ---------------------------------------------------------------------------
# Shared experiment 1: marker corpus for the path-context and degradation
# criteria. Depth-5 chains, branch 2, marker reliability 0.95; endpoint
# models can only read the last edge's marker, so composed stances at
# distance >= 2 are invisible to them but recoverable along the path.

MARKER_CONFIG = SynthConfig(
    topic_count=170,
    branch_min=2,
    branch_max=2,
    depth_min=5,
    depth_max=5,
    con_probability=0.53,
    length_signal_p=0.0,
    stance_marker_p=0.95,
    connective_p=0.8,
    root_len_min=9,
    root_len_max=11,
    min_claim_tokens=6,
    seed=101,
)
MARKER_SPLIT_RATIOS = (0.25, 0.10, 0.65)
MARKER_SPLIT_SEED = 101
MARKER_TRAIN_CONFIG = dict(
    max_epochs=30, patience=0, seed=11, learning_rate=0.3, batch_size=16
)


@pytest.fixture(scope="module")
def marker_run():
    trees, _ = generate_corpus(MARKER_CONFIG)
    examples = list(derive_stance_examples(trees, max_distance=4))
    split = split_by_topic(
        [t.topic_id for t in trees], ratios=MARKER_SPLIT_RATIOS, seed=MARKER_SPLIT_SEED
    )
    train = [e for e in examples if e.topic_id in split.train]
    dev = [e for e in examples if e.topic_id in split.dev]
    test = [e for e in examples if e.topic_id in split.test]

    reports = {}
    train_seconds = {}
    for kind in ("pair", "path-flat", "path-hier"):
        started = time.perf_counter()
        model = train_neural(
            kind,
            "stance",
            train,
            dev_examples=dev,
            train_config=neural_train_config(**MARKER_TRAIN_CONFIG),
        )
        train_seconds[kind] = time.perf_counter() - started
        reports[kind] = _stance_report(kind, test, model.predict_labels(test))

    counts = {d: reports["pair"].strata[f"d{d}"].count for d in (1, 2, 3, 4)}
    return {
        "reports": reports,
        "train_seconds": train_seconds,
        "counts": counts,
        "sizes": (len(train), len(dev), len(test)),
    }


# ---------------------------------------------------------------------------
# Shared experiment 2: length-signal corpus. Descendants are drafted longer
# than their parents with probability 0.9, so the token-length comparator
# has a computable ceiling that the generator ledger predicts exactly.

LENGTH_CONFIG = SynthConfig(
    topic_count=380,
    branch_min=2,
    branch_max=3,
    depth_min=5,
    depth_max=6,
    length_signal_p=0.9,
    seed=7,
)
LENGTH_SPLIT_RATIOS = (0.6, 0.2, 0.2)
LENGTH_SPLIT_SEED = 7
LENGTH_DERIVE_SEED = 7


@pytest.fixture(scope="module")
def length_run():
    trees, ledger = generate_corpus(LENGTH_CONFIG)
    examples = list(
        derive_specificity_examples(trees, max_distance=5, seed=LENGTH_DERIVE_SEED)
    )
    split = split_by_topic(
        [t.topic_id for t in trees], ratios=LENGTH_SPLIT_RATIOS, seed=LENGTH_SPLIT_SEED
    )
    test_examples = [e for e in examples if e.topic_id in split.test]

    per_distance: dict[int, list[int]] = {d: [0, 0] for d in (1, 2, 3, 4, 5)}
    for example in test_examples:
        predicted = length_predict(example.first_text, example.second_text)
        bucket = per_distance[example.distance]
        bucket[0] += 1 if predicted is example.label else 0
        bucket[1] += 1
    accuracies = {d: correct / total for d, (correct, total) in per_distance.items()}
    d_counts = {d: total for d, (_, total) in per_distance.items()}

    return {
        "trees": {tree.topic_id: tree for tree in trees},
        "topics": [tree.topic_id for tree in trees],
        "ledger": ledger,
        "examples": examples,
        "length_accuracy": accuracies,
        "length_counts": d_counts,
    }


# ---------------------------------------------------------------------------
# Criterion 1 — the parity shortcut agrees with recursive composition.


def _random_tree(rng: np.random.Generator, index: int):
    node_count = int(rng.integers(30, 301))
    rows = [("n0", None, None, f"Is topic {index} sound?")]
    depths = {"n0": 0}
    spine = index % 3 == 0  # every third tree gets a guaranteed deep chain
    for i in range(1, node_count):
        if spine and i <= 7:
            parent = f"n{i - 1}"
        else:
            candidates = [nid for nid, depth in depths.items() if depth < 7]
            parent = candidates[int(rng.integers(len(candidates)))]
        stance = StanceEdge.PRO if rng.integers(2) else StanceEdge.CON
        rows.append((f"n{i}", parent, stance, f"claim {index}-{i}"))
        depths[f"n{i}"] = depths[parent] + 1
    return build_tree(f"random-{index}", rows)


def test_criterion_1_stance_oracle_equivalence(capsys):
    rng = np.random.default_rng(1234)
    started = time.perf_counter()
    pairs = 0
    mismatches = 0
    max_nodes = 0
    max_depth = 0
    for index in range(200):
        tree = _random_tree(rng, index)
        max_nodes = max(max_nodes, len(tree.nodes))
        max_depth = max(max_depth, max(node_depth(tree, nid) for nid in tree.nodes))
        for ancestor, descendant, _distance in ancestor_descendant_pairs(tree, 4):
            _, edges = path_between(tree, ancestor, descendant)
            if derive_stance_label(edges) is not stance_oracle(tree, ancestor, descendant):
                mismatches += 1
            pairs += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0 and max_nodes <= 300 and max_depth <= 7
    _verdict(
        capsys,
        "CRITERION 1 (stance-label oracle equivalence)",
        ok,
        f"200 trees (max {max_nodes} nodes, max depth {max_depth}), "
        f"{pairs} pairs at distance <= 4, {mismatches} mismatches, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2 — presentation-order balance and the deeper-claim invariant.


def test_criterion_2_specificity_orientation_balance(length_run, capsys):
    examples = length_run["examples"]
    trees = length_run["trees"]
    total = len(examples)
    second_more_specific = sum(
        1 for e in examples if e.label is SpecificityLabel.SECOND_MORE_SPECIFIC
    )
    fraction = second_more_specific / total

    violations = 0
    for example in examples:
        tree = trees[example.topic_id]
        if example.label is SpecificityLabel.SECOND_MORE_SPECIFIC:
            specific, general = example.second_id, example.first_id
        else:
            specific, general = example.first_id, example.second_id
        if node_depth(tree, specific) <= node_depth(tree, general):
            violations += 1

    ok = total >= 20_000 and abs(fraction - 0.50) <= 0.02 and violations == 0
    _verdict(
        capsys,
        "CRITERION 2 (specificity orientation balance)",
        ok,
        f"{total} examples, SecondMoreSpecific fraction {fraction:.4f} "
        f"(target 0.50 +/- 0.02), deeper-claim violations {violations}",
    )


# ---------------------------------------------------------------------------
# Criterion 3 — split hygiene.


def test_criterion_3_split_hygiene(length_run, capsys):
    problems = []
    cases = [
        (length_run["topics"], (0.6, 0.2, 0.2), 7),
        (length_run["topics"], (0.25, 0.10, 0.65), 101),
        ([f"topic-{i}" for i in range(17)], (0.6, 0.2, 0.2), 3),
    ]
    for topics, ratios, seed in cases:
        split = split_by_topic(topics, ratios=ratios, seed=seed)
        parts = (split.train, split.dev, split.test)
        if set.union(*(set(p) for p in parts)) != set(topics):
            problems.append(f"seed {seed}: parts do not cover the topics")
        if sum(len(p) for p in parts) != len(topics):
            problems.append(f"seed {seed}: topic overlap between parts")
        for part, ratio in zip(parts, ratios):
            if abs(len(part) - ratio * len(topics)) > 1.0:
                problems.append(
                    f"seed {seed}: part size {len(part)} vs requested {ratio * len(topics):.1f}"
                )
        again = split_by_topic(topics, ratios=ratios, seed=seed)
        if (split.train, split.dev, split.test) != (again.train, again.dev, again.test):
            problems.append(f"seed {seed}: identical seeds gave different splits")
    _verdict(
        capsys,
        "CRITERION 3 (split hygiene)",
        not problems,
        "; ".join(problems) if problems else f"{len(cases)} corpora: disjoint, "
        "sizes within 1 topic of the ratios, seed-stable",
    )


# ---------------------------------------------------------------------------
# Criterion 4 — analytic gradients match central differences.


def test_criterion_4_gradient_correctness(capsys):
    errors = {"logreg": gradcheck_logreg(seed=0).max_rel_error}
    for kind in ("pair", "path-flat", "path-hier"):
        errors[kind] = gradcheck_neural(kind, seed=0).max_rel_error
    ok = all(error < 1e-4 for error in errors.values())
    rendered = "  ".join(f"{kind}={error:.2e}" for kind, error in errors.items())
    _verdict(
        capsys,
        "CRITERION 4 (gradient correctness)",
        ok,
        f"max relative errors (tolerance 1e-4): {rendered}",
    )


# ---------------------------------------------------------------------------
# Criterion 5 — the planted length signal is measurable at its planted rate.


def test_criterion_5_planted_length_signal(length_run, capsys):
    ledger = length_run["ledger"]
    accuracy = length_run["length_accuracy"]
    counts = length_run["length_counts"]

    edges = ledger.totals["edges"]
    rate = ledger.length_signal_rate()
    predicted_d1 = ledger.predicted_length_accuracy(1)
    measured = [accuracy[d] for d in (1, 2, 3, 4, 5)]
    non_decreasing = all(a <= b + 1e-12 for a, b in zip(measured, measured[1:]))

    checks = {
        "d1 accuracy in 0.90 +/- 0.02": abs(accuracy[1] - 0.90) <= 0.02,
        ">= 10,000 test pairs at d1": counts[1] >= 10_000,
        "non-decreasing d1..d5": non_decreasing,
        "ledger rate 0.90 +/- 0.01 over >= 1e5 edges": (
            edges >= 100_000 and abs(rate - 0.90) <= 0.01
        ),
        "ledger-predicted d1 within 0.02 of measured": abs(predicted_d1 - accuracy[1]) <= 0.02,
    }
    failed = [name for name, passed in checks.items() if not passed]
    rendered = " ".join(f"d{d}={accuracy[d]:.4f}" for d in (1, 2, 3, 4, 5))
    _verdict(
        capsys,
        "CRITERION 5 (planted length signal)",
        not failed,
        f"{rendered}; d1 pairs {counts[1]}, ledger rate {rate:.5f} over {edges} edges, "
        f"predicted d1 {predicted_d1:.4f}"
        + (f"; FAILED: {failed}" if failed else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 6 — path context is required and sufficient at distance >= 2.


@pytest.mark.slow
def test_criterion_6_path_context_helps_stance(marker_run, capsys):
    reports = marker_run["reports"]
    counts = marker_run["counts"]
    seconds = marker_run["train_seconds"]

    def acc(model, d):
        return reports[model].accuracy_of(f"d{d}")

    problems = []
    for d in (2, 3, 4):
        if abs(acc("pair", d) - 0.5) > 0.05:
            problems.append(f"endpoint d{d}={acc('pair', d):.4f} not within 5pts of chance")
        if acc("path-hier", d) - acc("pair", d) < 0.05:
            problems.append(
                f"hier d{d}={acc('path-hier', d):.4f} beats endpoint "
                f"{acc('pair', d):.4f} by under 5pts"
            )
    if acc("path-hier", 4) < acc("path-flat", 4):
        problems.append(
            f"hier d4={acc('path-hier', 4):.4f} < flat d4={acc('path-flat', 4):.4f}"
        )
    thin = [d for d in (1, 2, 3, 4) if counts[d] < 5000]
    if thin:
        problems.append(f"fewer than 5000 test pairs at distances {thin}")
    total_training = sum(seconds.values())
    if total_training >= 30 * 60:
        problems.append(f"training took {total_training:.0f}s (>= 30min)")

    summary = "; ".join(
        f"{model} " + " ".join(f"d{d}={acc(model, d):.4f}" for d in (1, 2, 3, 4))
        for model in ("pair", "path-flat", "path-hier")
    )
    per_model = ", ".join(f"{model} {seconds[model]:.1f}s" for model in seconds)
    _verdict(
        capsys,
        "CRITERION 6 (path context helps stance)",
        not problems,
        f"{summary}; counts {counts}; training {total_training:.0f}s ({per_model})"
        + (f"; FAILED: {problems}" if problems else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 7 — accuracy never improves from d=1 to d=4. Checked for every
# stance model trained in the shared experiment (the three that read claim
# content; a constant majority vote has no distance-dependent behavior, its
# per-distance accuracy is just the label mix of each bucket).


@pytest.mark.slow
def test_criterion_7_stance_degrades_with_distance(marker_run, capsys):
    reports = marker_run["reports"]
    problems = []
    pairs = {}
    for model, report in reports.items():
        d1 = report.accuracy_of("d1")
        d4 = report.accuracy_of("d4")
        pairs[model] = (d1, d4)
        if d1 < d4:
            problems.append(f"{model}: d1 {d1:.4f} < d4 {d4:.4f}")
    rendered = "  ".join(f"{m}: d1={a:.4f} d4={b:.4f}" for m, (a, b) in sorted(pairs.items()))
    _verdict(
        capsys,
        "CRITERION 7 (stance degrades with distance)",
        not problems,
        rendered + (f"; FAILED: {problems}" if problems else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 8 — identical seeds give identical checkpoints and reports.


def _checkpoint_text(model) -> str:
    buffer = io.StringIO()
    dump_checkpoint(buffer, *model_payload(model))
    return buffer.getvalue()


@pytest.mark.slow
def test_criterion_8_deterministic_training(capsys):
    config = SynthConfig(
        topic_count=30,
        branch_min=2,
        branch_max=2,
        depth_min=3,
        depth_max=3,
        stance_marker_p=0.9,
        root_len_min=9,
        root_len_max=11,
        min_claim_tokens=6,
        seed=5,
    )
    trees, _ = generate_corpus(config)
    split = split_by_topic([t.topic_id for t in trees], ratios=(0.6, 0.2, 0.2), seed=5)
    stance = list(derive_stance_examples(trees, max_distance=4))
    train = [e for e in stance if e.topic_id in split.train]
    dev = [e for e in stance if e.topic_id in split.dev]
    test = [e for e in stance if e.topic_id in split.test]

    def neural_once():
        model = train_neural(
            "pair",
            "stance",
            train,
            dev_examples=dev,
            train_config=neural_train_config(
                max_epochs=4, patience=0, seed=11, learning_rate=0.3, batch_size=16
            ),
        )
        report = _stance_report("pair", test, model.predict_labels(test))
        return _checkpoint_text(model), report.to_json_dict()

    specificity = list(derive_specificity_examples(trees, max_distance=5, seed=5))
    vocab = build_vocabulary(
        [t for e in specificity for t in (e.first_text, e.second_text)],
        min_count=2,
        built_from="determinism-check",
    )
    records = featurize_specificity(specificity, vocab, Lexicon())
    first_200 = featurize_specificity(specificity[:200], vocab, Lexicon())

    def logreg_once():
        model = train_logreg(records, first_200, TrainConfig(seed=3, max_epochs=5))
        return _checkpoint_text(model)

    neural_a, report_a = neural_once()
    neural_b, report_b = neural_once()
    logreg_a = logreg_once()
    logreg_b = logreg_once()

    ok = neural_a == neural_b and report_a == report_b and logreg_a == logreg_b
    _verdict(
        capsys,
        "CRITERION 8 (deterministic training)",
        ok,
        f"pair checkpoint {len(neural_a)} chars twice "
        f"{'identical' if neural_a == neural_b else 'DIFFER'}, "
        f"eval reports {'identical' if report_a == report_b else 'DIFFER'}, "
        f"logreg checkpoint {'identical' if logreg_a == logreg_b else 'DIFFER'}",
    )


# ---------------------------------------------------------------------------
# Criterion 9 — reference statistics of the real corpus (if supplied).


def test_criterion_9_real_corpus_statistics(capsys):
    path = os.environ.get("ARGTREE_REAL_CORPUS")
    if not path:
        with capsys.disabled():
            print(
                "\nACCEPTANCE CRITERION 9 (real-corpus statistics) [SKIP] "
                "set ARGTREE_REAL_CORPUS to the corpus file to run"
            )
        pytest.skip("real corpus not supplied")

    trees = parse_corpus_file(path)
    stats = corpus_stats(trees)
    spec_count = sum(1 for _ in derive_specificity_examples(trees, max_distance=5, seed=0))
    stance_count = sum(1 for _ in derive_stance_examples(trees, max_distance=4))

    expected_counts = (741, 95_312, 44_572, 50_740)
    got_counts = (stats.topic_count, stats.claim_count, stats.pro_count, stats.con_count)
    spec_ok = abs(spec_count - 353_467) <= 0.02 * 353_467
    stance_ok = abs(stance_count - 286_349) <= 0.02 * 286_349
    ok = got_counts == expected_counts and spec_ok and stance_ok
    _verdict(
        capsys,
        "CRITERION 9 (real-corpus statistics)",
        ok,
        f"topics/claims/pro/con {got_counts} (expected {expected_counts}), "
        f"specificity {spec_count} (353467 +/- 2%), stance {stance_count} (286349 +/- 2%)",
    )


# ---------------------------------------------------------------------------
# Documented training example: single-depth marker corpus reaches >= 0.93
# at distance 1 (the signal itself is 0.95-reliable by construction).


@pytest.mark.slow
def test_example_marker_corpus_distance_1(capsys):
    config = SynthConfig(
        topic_count=600,
        branch_min=6,
        branch_max=8,
        depth_min=1,
        depth_max=1,
        con_probability=0.5,
        length_signal_p=0.0,
        stance_marker_p=0.95,
        connective_p=0.8,
        root_len_min=9,
        root_len_max=11,
        min_claim_tokens=6,
        seed=202,
    )
    trees, _ = generate_corpus(config)
    examples = list(derive_stance_examples(trees, max_distance=4))
    split = split_by_topic([t.topic_id for t in trees], ratios=(0.5, 0.2, 0.3), seed=7)
    train = [e for e in examples if e.topic_id in split.train]
    dev = [e for e in examples if e.topic_id in split.dev]
    test = [e for e in examples if e.topic_id in split.test]
    model = train_neural(
        "pair",
        "stance",
        train,
        dev_examples=dev,
        train_config=neural_train_config(
            max_epochs=30, patience=0, seed=11, learning_rate=0.3, batch_size=16
        ),
    )
    report = _stance_report("pair", test, model.predict_labels(test))
    d1 = report.accuracy_of("d1")
    _verdict(
        capsys,
        "TRAINING EXAMPLE (marker corpus, distance 1)",
        d1 >= 0.93,
        f"pair encoder d1={d1:.4f} over {report.strata['d1'].count} test pairs (>= 0.93)",
    )
