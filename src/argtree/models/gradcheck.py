"""Central-difference gradient verification on miniature fixtures.

Relative error per coordinate is |analytic - numeric| / max(1, |numeric|).
Fixtures keep every model under a thousand parameters so the full
coordinate sweep stays fast enough to run inside the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..features import FeatureRecord, FeatureSchema, FeatureTable
from .config import EncoderConfig
from .encoder import EncoderVocab, pack_pair, pack_path_flat, pack_path_pairs
from .logreg import design_matrix, label_vector, loss_and_grad
from .neural import (
    NeuralParams,
    PackedExample,
    batch_loss_and_grads,
    dataset_loss,
    init_params,
)

EPSILON = 1e-5
LOGREG_TOLERANCE = 1e-6
NEURAL_TOLERANCE = 1e-4


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_block: str
    parameter_count: int


def _relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(numeric))


def gradcheck_logreg(seed: int = 0, epsilon: float = EPSILON) -> GradCheckResult:
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(
        task="specificity",
        feature_set="both",
        sparse_names=["tok0", "tok1", "tok2", "tok3"],
        dense_names=["len_diff", "pron_diff"],
    )
    records = []
    for i in range(8):
        sparse = {
            int(j): float(rng.integers(-3, 4))
            for j in rng.choice(4, size=2, replace=False)
        }
        dense = {
            "len_diff": float(rng.normal()),
            "pron_diff": float(rng.normal()),
        }
        records.append(
            FeatureRecord(
                label="a" if i % 2 else "b",
                sparse={k: v for k, v in sparse.items() if v != 0.0},
                dense=dense,
                topic_id=f"t{i}",
                distance=1,
                same_stance=None,
            )
        )
    table = FeatureTable.from_records(schema, records)
    X = design_matrix(table, np.zeros(2), np.ones(2))
    y = label_vector(table, ["a", "b"])
    w = rng.normal(scale=0.5, size=schema.width)
    b = float(rng.normal(scale=0.5))
    l2 = 1e-2

    _, grad_w, grad_b = loss_and_grad(X, y, w, b, l2)
    max_error = 0.0
    worst = "weights"
    for i in range(len(w)):
        original = w[i]
        w[i] = original + epsilon
        loss_plus, _, _ = loss_and_grad(X, y, w, b, l2)
        w[i] = original - epsilon
        loss_minus, _, _ = loss_and_grad(X, y, w, b, l2)
        w[i] = original
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        error = _relative_error(grad_w[i], numeric)
        if error > max_error:
            max_error, worst = error, f"weights[{i}]"
    loss_plus, _, _ = loss_and_grad(X, y, w, b + epsilon, l2)
    loss_minus, _, _ = loss_and_grad(X, y, w, b - epsilon, l2)
    numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
    error = _relative_error(grad_b, numeric)
    if error > max_error:
        max_error, worst = error, "bias"
    return GradCheckResult(
        max_rel_error=max_error, worst_block=worst, parameter_count=len(w) + 1
    )


_FIXTURE_TEXTS = [
    "alpha beta gamma",
    "beta gamma delta epsilon",
    "gamma delta alpha",
    "delta epsilon beta alpha",
]


def _fixture_batch(kind: str, vocab: EncoderVocab, config: EncoderConfig) -> list[PackedExample]:
    """Three examples; the third repeats a sequence of the first two.

    For path-hier the paths hold 2, 3 and 1 edges, and the single edge of
    the third is the last edge of the second, so the fixture covers paths
    of different lengths, the longest-first reordering of the batch and,
    with a shared encoder, one edge encoded once for two paths.
    """
    texts = _FIXTURE_TEXTS
    if kind == "pair":
        sequences = [
            [pack_pair(vocab, texts[0], texts[1], config.truncate)],
            [pack_pair(vocab, texts[2], texts[3], config.truncate)],
            [pack_pair(vocab, texts[0], texts[1], config.truncate)],
        ]
    elif kind == "path-flat":
        sequences = [
            [pack_path_flat(vocab, texts[:3], config.truncate)],
            [pack_path_flat(vocab, texts[1:], config.truncate)],
            [pack_path_flat(vocab, texts[:3], config.truncate)],
        ]
    else:
        sequences = [
            pack_path_pairs(vocab, path, config.truncate, config.pair_order)
            for path in (texts[:3], texts, texts[2:])
        ]
    return [
        PackedExample(sequences=seqs, label_index=label)
        for seqs, label in zip(sequences, (0, 1, 1))
    ]


def gradcheck_neural(
    kind: str,
    seed: int = 0,
    epsilon: float = EPSILON,
    share_encoder: bool = True,
) -> GradCheckResult:
    config = EncoderConfig(
        dim=5,
        hidden=4,
        truncate=8,
        share_encoder=share_encoder,
        max_positions=3,
        min_count=1,
    )
    vocab = EncoderVocab(tokens=["alpha", "beta", "gamma", "delta", "epsilon"])
    params = init_params(kind, vocab.size, config, seed)
    return gradcheck_batch(kind, params, _fixture_batch(kind, vocab, config), epsilon=epsilon)


def gradcheck_batch(
    kind: str,
    params: NeuralParams,
    batch: Sequence[PackedExample],
    l2: float = 1e-2,
    epsilon: float = EPSILON,
) -> GradCheckResult:
    """Central differences of dataset_loss against batch_loss_and_grads on `batch`."""
    _, grads = batch_loss_and_grads(kind, params, batch, l2)
    grad_blocks = grads.blocks()
    max_error = 0.0
    worst = ""
    for name, block in params.blocks().items():
        gblock = grad_blocks[name]
        iterator = np.nditer(block, flags=["multi_index"])
        while not iterator.finished:
            index = iterator.multi_index
            original = block[index]
            block[index] = original + epsilon
            loss_plus = dataset_loss(kind, params, batch, l2)
            block[index] = original - epsilon
            loss_minus = dataset_loss(kind, params, batch, l2)
            block[index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            error = _relative_error(float(gblock[index]), numeric)
            if error > max_error:
                max_error, worst = error, f"{name}{list(index)}"
            iterator.iternext()
    return GradCheckResult(
        max_rel_error=max_error,
        worst_block=worst,
        parameter_count=params.parameter_count(),
    )
