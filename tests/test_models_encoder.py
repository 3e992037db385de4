"""Pair/path packing and the mean-pool encoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from argtree.features import build_vocabulary

from argtree.models.encoder import (
    CLS_ID,
    FIRST_REGULAR_ID,
    PAD_ID,
    SEP_ID,
    EncoderVocab,
    PackedSequences,
    batch_sequences,
    build_encoder_vocab,
    encode,
    pack_pair,
    pack_path_flat,
    pack_path_pairs,
)
from argtree.models.neural import init_params
from argtree.models.config import EncoderConfig
from argtree.text import tokenize


VOCAB = EncoderVocab(tokens=["alpha", "beta", "gamma"])


def _batch(sequences):
    """The sequences as one batch, in the given order."""
    return batch_sequences(PackedSequences.concat(sequences), np.arange(len(sequences)))


def test_vocab_ids_start_after_specials():
    assert VOCAB.token_id("alpha") == FIRST_REGULAR_ID
    assert VOCAB.token_id("gamma") == FIRST_REGULAR_ID + 2
    assert VOCAB.size == FIRST_REGULAR_ID + 3


def test_unknown_tokens_collapse_to_pad():
    assert VOCAB.token_id("nonexistent") == PAD_ID


def test_build_encoder_vocab_min_count():
    vocab = build_encoder_vocab(["twice twice once"], min_count=2)
    assert vocab.tokens == ["twice"]


def _per_occurrence_tokens(texts, min_count):
    """Tokenize every occurrence: the counting loop of the old encoder builder."""
    counts = {}
    for text in texts:
        for token in tokenize(text):
            counts[token] = counts.get(token, 0) + 1
    kept = (token for token, count in counts.items() if count >= min_count)
    return sorted(kept, key=lambda t: (-counts[t], t))


REPEATED_TEXTS = ["a b", "b b c", "c, a!", "A a", "d", ""]


@given(
    texts=st.lists(st.one_of(st.sampled_from(REPEATED_TEXTS), st.text(max_size=12)), max_size=12),
    min_count=st.sampled_from([1, 2]),
)
def test_vocabulary_builders_agree_on_token_order(texts, min_count):
    expected = _per_occurrence_tokens(texts, min_count)
    assert build_vocabulary(iter(texts), min_count).tokens() == expected
    assert build_encoder_vocab(iter(texts), min_count).tokens == expected


def test_text_ids_truncate_without_touching_the_memo():
    vocab = EncoderVocab(tokens=["alpha", "beta"])
    a, b = vocab.token_id("alpha"), vocab.token_id("beta")
    assert vocab.text_ids("alpha beta gamma", 2) == [a, b]
    assert vocab.text_ids("alpha beta gamma", 8) == [a, b, PAD_ID]
    assert vocab.text_ids("alpha beta gamma", 1) == [a]


def test_pack_pair_layout():
    ids, segments = pack_pair(VOCAB, "alpha beta", "gamma", truncate=16)
    a, b, g = (VOCAB.token_id(t) for t in ("alpha", "beta", "gamma"))
    assert ids.tolist() == [CLS_ID, a, b, SEP_ID, g, SEP_ID]
    # segment 0 covers CLS, the first claim and its SEP
    assert segments.tolist() == [0, 0, 0, 0, 1, 1]


def test_pack_pair_truncates_each_side():
    ids, _ = pack_pair(VOCAB, "alpha beta gamma", "gamma beta alpha", truncate=2)
    # two tokens per side survive: CLS a b SEP g b SEP
    assert len(ids) == 7


def test_pack_path_flat_reverses_path():
    ids, segments = pack_path_flat(VOCAB, ["alpha", "beta", "gamma"], truncate=8)
    a, b, g = (VOCAB.token_id(t) for t in ("alpha", "beta", "gamma"))
    # descendant (gamma) first, then parent, then ancestor
    assert ids.tolist() == [CLS_ID, g, SEP_ID, b, SEP_ID, a, SEP_ID]
    assert segments.tolist() == [0, 0, 0, 1, 1, 1, 1]


def test_pack_path_flat_distance_one_equals_pack_pair():
    flat_ids, flat_segs = pack_path_flat(VOCAB, ["alpha", "beta"], truncate=8)
    pair_ids, pair_segs = pack_pair(VOCAB, "beta", "alpha", truncate=8)
    assert flat_ids.tolist() == pair_ids.tolist()
    assert flat_segs.tolist() == pair_segs.tolist()


def test_pack_path_pairs_orders():
    top_down = pack_path_pairs(VOCAB, ["alpha", "beta", "gamma"], 8, pair_order="top_down")
    bottom_up = pack_path_pairs(VOCAB, ["alpha", "beta", "gamma"], 8, pair_order="bottom_up")
    assert len(top_down) == 2
    assert [ids.tolist() for ids, _ in bottom_up] == [ids.tolist() for ids, _ in reversed(top_down)]
    # Each pair packs parent first regardless of order.
    first_ids, _ = top_down[0]
    assert first_ids.tolist() == pack_pair(VOCAB, "alpha", "beta", 8)[0].tolist()


def test_pack_path_errors():
    with pytest.raises(ValueError):
        pack_path_flat(VOCAB, ["alpha"], truncate=8)
    with pytest.raises(ValueError):
        pack_path_pairs(VOCAB, ["alpha"], truncate=8)
    with pytest.raises(ValueError):
        pack_path_pairs(VOCAB, ["alpha", "beta"], truncate=8, pair_order="sideways")


def test_encode_is_mean_pool_then_tanh():
    config = EncoderConfig(dim=8, hidden=8, min_count=1)
    params = init_params("pair", VOCAB.size, config, seed=0)
    enc = params.encoders[0]
    ids, segments = pack_pair(VOCAB, "alpha", "beta", truncate=8)
    cache = encode(enc, _batch([(ids, segments)]))
    pool = (enc.tok_emb[ids].sum(axis=0) + enc.seg_emb[segments].sum(axis=0)) / len(ids)
    assert cache.pool[0] == pytest.approx(pool)
    assert cache.h[0] == pytest.approx(np.tanh(enc.proj_w @ pool + enc.proj_b))
    assert cache.h.shape == (1, 8)


def test_encode_deterministic_for_same_input():
    config = EncoderConfig(dim=8, hidden=8, min_count=1)
    params = init_params("pair", VOCAB.size, config, seed=3)
    ids, segments = pack_pair(VOCAB, "alpha gamma", "beta", truncate=8)
    h1 = encode(params.encoders[0], _batch([(ids, segments)])).h
    h2 = encode(params.encoders[0], _batch([(ids, segments)])).h
    assert np.array_equal(h1, h2)


def test_batch_pools_each_sequence_by_its_own_length():
    config = EncoderConfig(dim=8, hidden=8, min_count=1)
    enc = init_params("pair", VOCAB.size, config, seed=4).encoders[0]
    sequences = [
        pack_pair(VOCAB, "alpha beta", "gamma", truncate=8),
        pack_pair(VOCAB, "gamma", "gamma unknown alpha", truncate=8),
        pack_path_flat(VOCAB, ["beta", "alpha", "gamma"], truncate=8),
    ]
    cache = encode(enc, _batch(sequences))
    for row, (ids, segments) in enumerate(sequences):
        single = encode(enc, _batch([(ids, segments)]))
        np.testing.assert_allclose(cache.pool[row], single.pool[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(cache.h[row], single.h[0], rtol=0, atol=1e-15)


def test_batch_takes_the_keyed_sequences_in_key_order():
    config = EncoderConfig(dim=8, hidden=8, min_count=1)
    enc = init_params("pair", VOCAB.size, config, seed=5).encoders[0]
    sequences = [
        pack_pair(VOCAB, "alpha", "beta beta", truncate=8),
        pack_path_flat(VOCAB, ["gamma", "alpha", "beta"], truncate=8),
        pack_pair(VOCAB, "beta unknown", "gamma", truncate=8),
    ]
    packed = PackedSequences.concat(sequences)
    assert packed.lengths.tolist() == [len(ids) for ids, _ in sequences]
    assert packed.second.tolist() == [int(segments.sum()) for _, segments in sequences]
    for key, (ids, segments) in enumerate(sequences):
        assert packed[key][0].tolist() == ids.tolist()
        assert packed[key][1].tolist() == segments.tolist()
    keys = np.array([2, 0, 2])
    got = encode(enc, batch_sequences(packed, keys))
    want = encode(enc, _batch([sequences[k] for k in keys]))
    assert got.pool.tobytes() == want.pool.tobytes()
    assert got.h.tobytes() == want.h.tobytes()
