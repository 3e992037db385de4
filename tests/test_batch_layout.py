"""The array-native minibatch layout against the per-sequence one in layout_reference.

pack_dataset packs every distinct sequence into flat arrays, and make_batch
and batch_sequences lay a batch out with array operations. The reference
keeps one pair of arrays per sequence and walks the batch in Python. Both
layouts feed the same kernels, and every probability, loss and gradient
block must come out with the same bits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import layout_reference as ref
from argtree.models.config import EncoderConfig
from argtree.models.encoder import EncoderVocab
from argtree.models.neural import (
    INFERENCE_CHUNK,
    backward_batch,
    batch_loss_and_grads,
    dataset_loss,
    forward_batch,
    inference_chunks,
    init_params,
    make_batch,
    pack_dataset,
    predict_packed,
)
from argtree.pairs import SpecificityExample, SpecificityLabel, StanceExample, StanceLabel
from argtree.trees import StanceEdge

VOCAB = EncoderVocab(tokens=["alpha", "beta", "gamma", "delta", "good", "bad"])
# Paths run down this chain, so paths that overlap share edges; "zeta" and
# "eta" are unknown tokens, so some distinct texts pack alike.
CHAIN = [
    "root alpha claim",
    "good beta",
    "bad gamma delta zeta",
    "alpha alpha good",
    "delta eta beta",
    "gamma good bad alpha beta",
    "beta",
]
OTHER = ["eta zeta", "good good good", "alpha delta", "bad"]


@st.composite
def paths(draw) -> StanceExample:
    distance = draw(st.integers(1, 4))
    start = draw(st.integers(0, len(CHAIN) - 1 - distance))
    texts = CHAIN[start : start + distance + 1]
    if draw(st.integers(0, 4)) == 0:  # now and then an edge off the chain
        texts = [*texts[:-1], draw(st.sampled_from(OTHER))]
    supports = draw(st.booleans())
    return StanceExample(
        topic_id="t0", a_id=f"c{start}", b_id=f"c{start + distance}", distance=distance,
        path_texts=texts, path_edges=[StanceEdge.PRO] * distance,
        label=StanceLabel.SUPPORTS if supports else StanceLabel.OPPOSES, same_stance=None,
    )


@st.composite
def pairs(draw) -> SpecificityExample:
    first, second = draw(st.lists(st.sampled_from(CHAIN + OTHER), min_size=2, max_size=2))
    label = draw(st.sampled_from(list(SpecificityLabel)))
    return SpecificityExample(
        topic_id="t0", first_id="a", second_id="b", first_text=first, second_text=second,
        distance=1, label=label, same_stance=None,
    )


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["pair", "path-flat", "path-hier"]))
    size = draw(st.one_of(st.just(1), st.integers(2, 24), st.just(INFERENCE_CHUNK)))
    strategy = pairs() if kind == "pair" and draw(st.booleans()) else paths()
    examples = draw(st.lists(strategy, min_size=size, max_size=size))
    config = EncoderConfig(
        dim=5, hidden=4, truncate=draw(st.integers(1, 6)), min_count=1,
        share_encoder=draw(st.booleans()), max_positions=draw(st.integers(1, 3)),
        pair_order=draw(st.sampled_from(["top_down", "bottom_up"])),
    )
    return kind, examples, config, draw(st.integers(0, 2**32 - 1))


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _assert_same_layout(got, want) -> None:
    for name in ("order", "lengths", "slots", "labels"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert [e for e, _ in got.groups] == [e for e, _ in want.groups]
    for (_, g), (_, w) in zip(got.groups, want.groups):
        assert _bits(g.columns) == _bits(w.columns)
        assert _bits(g.segments) == _bits(w.segments)
        assert g.tokens.shape == w.tokens.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(g.tokens, name).dtype == getattr(w.tokens, name).dtype, name
            assert _bits(getattr(g.tokens, name)) == _bits(getattr(w.tokens, name)), name


@settings(max_examples=60, deadline=None)
@given(cases())
def test_array_layout_gives_the_bits_of_the_reference_layout(case):
    kind, examples, config, seed = case
    labels = sorted(label.value for label in type(examples[0].label))
    params = init_params(kind, VOCAB.size, config, seed % 1000)
    rng = np.random.default_rng(seed)
    for block in params.blocks().values():  # off the initialisation: no block is zero
        block += rng.normal(scale=0.3, size=block.shape)
    packed = pack_dataset(kind, examples, VOCAB, config, labels)
    want_packed = ref.pack_dataset(kind, examples, VOCAB, config, labels)
    assert [p.keys for p in packed] == [p.keys for p in want_packed]
    assert [p.label_index for p in packed] == [p.label_index for p in want_packed]
    for got, want in zip(packed, want_packed):
        assert [(_bits(i), _bits(s)) for i, s in got.sequences] == [
            (_bits(i), _bits(s)) for i, s in want.sequences
        ]

    batch, want_batch = make_batch(params, packed), ref.make_batch(params, want_packed)
    _assert_same_layout(batch, want_batch)
    assert _bits(forward_batch(kind, params, batch).probs) == _bits(
        forward_batch(kind, params, want_batch).probs
    )

    l2 = 0.01
    loss, grads = batch_loss_and_grads(kind, params, packed, l2)
    want_grads = params.zeros_like()
    cache = forward_batch(kind, params, want_batch)
    backward_batch(kind, params, want_batch, cache, want_grads)
    param_blocks = params.blocks()
    for name, block in want_grads.blocks().items():
        if block.ndim == 2:
            block += l2 * param_blocks[name]
    want_blocks = want_grads.blocks()
    for name, block in grads.blocks().items():
        assert _bits(block) == _bits(want_blocks[name]), name

    chunks = list(inference_chunks(params, packed))
    want_chunks = [
        ref.make_batch(params, want_packed[start : start + INFERENCE_CHUNK])
        for start in range(0, len(want_packed), INFERENCE_CHUNK)
    ]
    for got, want in zip(chunks, want_chunks):
        _assert_same_layout(got, want)
    assert loss == dataset_loss(kind, params, want_packed, l2, want_chunks) == dataset_loss(
        kind, params, packed, l2, chunks
    )
    assert _bits(predict_packed(kind, params, packed)) == _bits(
        predict_packed(kind, params, want_packed, want_chunks)
    )
