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
from ..pairs import StanceExample, derive_stance_label
from ..trees import StanceEdge
from .config import EncoderConfig
from .encoder import EncoderVocab
from .logreg import design_matrix, label_vector, loss_and_grad
from .neural import (
    NeuralParams,
    PackedDataset,
    batch_loss_and_grads,
    dataset_loss,
    inference_chunks,
    init_params,
    pack_dataset,
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


def _pack_paths(
    kind: str,
    paths: Sequence[Sequence[str]],
    opposes: Sequence[bool],
    vocab: EncoderVocab,
    config: EncoderConfig,
) -> PackedDataset:
    """Stance examples along `paths`, packed; an opposing path's first edge is con."""
    examples = []
    for texts, con in zip(paths, opposes):
        edges = [StanceEdge.CON if con else StanceEdge.PRO] + [StanceEdge.PRO] * (len(texts) - 2)
        examples.append(
            StanceExample(
                topic_id="fixture",
                a_id="a",
                b_id="b",
                distance=len(edges),
                path_texts=list(texts),
                path_edges=edges,
                label=derive_stance_label(edges),
                same_stance=None,
            )
        )
    return pack_dataset(kind, examples, vocab, config, ["opposes", "supports"])


def _fixture_batch(kind: str, vocab: EncoderVocab, config: EncoderConfig) -> PackedDataset:
    """Three paths; the third repeats a sequence of the first two.

    For path-hier the paths hold 2, 3 and 1 edges, and the single edge of
    the third is the last edge of the second, so the fixture covers paths
    of different lengths, the longest-first reordering of the batch and,
    with a shared encoder, one edge encoded once for two paths. The pair
    model reads (descendant, ancestor), so its paths run backward through
    the texts.
    """
    texts = _FIXTURE_TEXTS
    paths = {
        "pair": [texts[1::-1], texts[3:1:-1], texts[1::-1]],
        "path-flat": [texts[:3], texts[1:], texts[:3]],
        "path-hier": [texts[:3], texts, texts[2:]],
    }[kind]
    return _pack_paths(kind, paths, (True, False, False), vocab, config)


def _one_edge_batch(vocab: EncoderVocab, config: EncoderConfig) -> PackedDataset:
    """Four one-edge paths for path-hier, the fourth repeating the first.

    No GRU step carries a state, so the GRU skips its recurrent gradients.
    """
    texts = _FIXTURE_TEXTS
    paths = [texts[0:2], texts[1:3], texts[2:4], texts[0:2]]
    return _pack_paths("path-hier", paths, (True, False, True, True), vocab, config)


def gradcheck_neural(
    kind: str,
    seed: int = 0,
    epsilon: float = EPSILON,
    share_encoder: bool = True,
    one_edge: bool = False,
) -> GradCheckResult:
    """Gradients of `kind` on its fixture; one_edge picks the path-hier
    fixture whose paths are all one edge long."""
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
    if one_edge:
        if kind != "path-hier":
            raise ValueError("the one-edge fixture is a path-hier fixture")
        batch = _one_edge_batch(vocab, config)
    else:
        batch = _fixture_batch(kind, vocab, config)
    return gradcheck_batch(kind, params, batch, epsilon=epsilon)


def gradcheck_batch(
    kind: str,
    params: NeuralParams,
    batch: PackedDataset,
    l2: float = 1e-2,
    epsilon: float = EPSILON,
) -> GradCheckResult:
    """Central differences of dataset_loss against batch_loss_and_grads on `batch`."""
    _, grads = batch_loss_and_grads(kind, params, batch, l2)
    grad_blocks = grads.blocks()
    chunks = list(inference_chunks(params, batch))
    max_error = 0.0
    worst = ""
    for name, block in params.blocks().items():
        gblock = grad_blocks[name]
        iterator = np.nditer(block, flags=["multi_index"])
        while not iterator.finished:
            index = iterator.multi_index
            original = block[index]
            block[index] = original + epsilon
            loss_plus = dataset_loss(kind, params, batch, l2, chunks)
            block[index] = original - epsilon
            loss_minus = dataset_loss(kind, params, batch, l2, chunks)
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
