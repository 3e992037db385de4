"""Batched neural kernels against the per-example reference in neural_reference."""

from __future__ import annotations

import numpy as np
import pytest

import argtree.models.neural as neural
from argtree.models.config import EncoderConfig
from argtree.models.encoder import EncoderVocab
from argtree.models.gradcheck import NEURAL_TOLERANCE, gradcheck_batch
from argtree.models.neural import (
    batch_loss_and_grads,
    dataset_loss,
    forward_batch,
    init_params,
    make_batch,
    pack_dataset,
    predict_packed,
)
from argtree.pairs import SpecificityExample, SpecificityLabel, StanceExample, StanceLabel
from argtree.trees import StanceEdge

import neural_reference

TOLERANCE = 1e-10
LABELS = ["opposes", "supports"]
VOCAB = EncoderVocab(tokens=["alpha", "beta", "gamma", "delta", "good", "bad", "root"])

# One chain root -> c1 -> ... -> c5. Paths of 1-4 edges along it share
# edges, so a batch holds each (parent, child) edge several times.
CHAIN = [
    "root claim alpha",
    "good beta",
    "bad gamma delta",
    "alpha alpha good",
    "delta unknownword beta",
    "gamma good bad alpha",
]


def _path(start: int, distance: int, label: StanceLabel) -> StanceExample:
    return StanceExample(
        topic_id="t0",
        a_id=f"c{start}",
        b_id=f"c{start + distance}",
        distance=distance,
        path_texts=CHAIN[start : start + distance + 1],
        path_edges=[StanceEdge.PRO] * distance,
        label=label,
        same_stance=None,
    )


MIXED = [
    _path(start, distance, StanceLabel.SUPPORTS if (start + distance) % 2 else StanceLabel.OPPOSES)
    for start, distance in [(0, 1), (1, 3), (0, 4), (2, 2), (1, 1), (0, 4), (3, 1), (2, 3), (1, 2)]
]

SPECIFICITY = [
    SpecificityExample(
        topic_id="t0",
        first_id=f"a{i}",
        second_id=f"b{i}",
        first_text=CHAIN[i],
        second_text=CHAIN[i + 1],
        distance=1,
        label=SpecificityLabel.SECOND_MORE_SPECIFIC if i % 2 else SpecificityLabel.FIRST_MORE_SPECIFIC,
        same_stance=None,
    )
    for i in range(4)
] + [
    SpecificityExample(
        topic_id="t0",
        first_id="a0",
        second_id="b0",
        first_text=CHAIN[0],
        second_text=CHAIN[1],
        distance=1,
        label=SpecificityLabel.SECOND_MORE_SPECIFIC,
        same_stance=None,
    )
]

CASES = [
    (kind, share, order)
    for kind in ("pair", "path-flat", "path-hier")
    for share in (True, False)
    for order in ("top_down", "bottom_up")
]


def _config(share: bool, order: str) -> EncoderConfig:
    return EncoderConfig(
        dim=6, hidden=5, truncate=8, min_count=1,
        share_encoder=share, max_positions=3, pair_order=order,
    )


def _setup(kind, share, order, examples=MIXED, labels=LABELS, seed=3):
    config = _config(share, order)
    params = init_params(kind, VOCAB.size, config, seed)
    # Move off the initialisation so no block is exactly zero.
    rng = np.random.default_rng(seed)
    for block in params.blocks().values():
        block += rng.normal(scale=0.3, size=block.shape)
    return params, pack_dataset(kind, examples, VOCAB, config, labels)


def _assert_grads_close(got, want):
    want_blocks = want.blocks()
    assert list(got.blocks()) == list(want_blocks)
    for name, block in got.blocks().items():
        np.testing.assert_allclose(block, want_blocks[name], rtol=0, atol=TOLERANCE, err_msg=name)


@pytest.mark.parametrize("kind,share,order", CASES)
def test_loss_and_every_gradient_match_reference(kind, share, order):
    params, packed = _setup(kind, share, order)
    loss, grads = batch_loss_and_grads(kind, params, packed, l2=0.01)
    want_loss, want_grads = neural_reference.reference_loss_and_grads(kind, params, packed, 0.01)
    assert abs(loss - want_loss) <= TOLERANCE
    _assert_grads_close(grads, want_grads)


@pytest.mark.parametrize("kind,share,order", CASES)
def test_probabilities_match_reference(kind, share, order):
    params, packed = _setup(kind, share, order)
    batch = make_batch(params, packed)
    probs = forward_batch(kind, params, batch).probs
    want = neural_reference.reference_probs(kind, params, packed)
    np.testing.assert_allclose(probs, want[batch.order], rtol=0, atol=TOLERANCE)
    assert np.array_equal(predict_packed(kind, params, packed), want.argmax(axis=1))


@pytest.mark.parametrize("kind", ["pair", "path-flat", "path-hier"])
def test_batch_of_one_matches_reference(kind):
    for example in MIXED[:4]:
        params, packed = _setup(kind, True, "top_down", examples=[example])
        loss, grads = batch_loss_and_grads(kind, params, packed, l2=0.0)
        want_loss, want_grads = neural_reference.reference_loss_and_grads(kind, params, packed, 0.0)
        assert abs(loss - want_loss) <= TOLERANCE
        _assert_grads_close(grads, want_grads)


def test_specificity_pairs_match_reference():
    labels = sorted({e.label.value for e in SPECIFICITY})
    params, packed = _setup("pair", True, "top_down", examples=SPECIFICITY, labels=labels)
    loss, grads = batch_loss_and_grads("pair", params, packed, l2=0.01)
    want_loss, want_grads = neural_reference.reference_loss_and_grads("pair", params, packed, 0.01)
    assert abs(loss - want_loss) <= TOLERANCE
    _assert_grads_close(grads, want_grads)


@pytest.mark.parametrize("kind,share,order", CASES)
def test_dataset_loss_matches_reference_across_chunks(kind, share, order, monkeypatch):
    params, packed = _setup(kind, share, order)
    want, _ = neural_reference.reference_loss_and_grads(kind, params, packed, 0.01)
    for chunk in (1, 4, len(packed)):
        monkeypatch.setattr(neural, "INFERENCE_CHUNK", chunk)
        assert abs(dataset_loss(kind, params, packed, 0.01) - want) <= TOLERANCE


@pytest.mark.parametrize("kind", ["pair", "path-flat", "path-hier"])
def test_predictions_ignore_order_and_chunking(kind, monkeypatch):
    params, packed = _setup(kind, False, "top_down", examples=MIXED * 3)
    baseline = predict_packed(kind, params, packed)
    permutation = np.random.default_rng(0).permutation(len(packed))
    for chunk in (1, 5, 64):
        monkeypatch.setattr(neural, "INFERENCE_CHUNK", chunk)
        assert np.array_equal(predict_packed(kind, params, packed), baseline)
        shuffled = predict_packed(kind, params, packed[permutation])
        assert np.array_equal(shuffled, baseline[permutation])


def test_hier_batch_encodes_each_distinct_edge_once():
    params, packed = _setup("path-hier", True, "top_down")
    batch = make_batch(params, packed)
    edges = {
        (tuple(ids), tuple(segments)) for example in packed for ids, segments in example.sequences
    }
    assert [e for e, _ in batch.groups] == [0]
    assert len(batch.groups[0][1]) == len(edges)
    assert len(batch.slots) == sum(len(example.sequences) for example in packed)
    assert len(batch.slots) > len(edges)


def test_unshared_encoders_keep_the_position_in_the_edge_key():
    params, packed = _setup("path-hier", False, "top_down")
    batch = make_batch(params, packed)
    last = len(params.encoders) - 1
    expected = {}
    for example in packed:
        for position, (ids, segments) in enumerate(example.sequences):
            expected.setdefault(min(position, last), set()).add((tuple(ids), tuple(segments)))
    assert {e: len(seqs) for e, seqs in batch.groups} == {
        e: len(keys) for e, keys in expected.items()
    }


@pytest.mark.parametrize("share", [True, False])
@pytest.mark.parametrize("order", ["top_down", "bottom_up"])
def test_gradcheck_with_mixed_path_lengths(share, order):
    """Paths of 1-4 edges with repeated edges: padding, reordering and shared edges."""
    params, packed = _setup("path-hier", share, order)
    assert gradcheck_batch("path-hier", params, packed).max_rel_error < NEURAL_TOLERANCE
