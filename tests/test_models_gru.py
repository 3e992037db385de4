"""GRU recurrence against an independent step-by-step reference."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argtree.models.gru import (
    GRU_BLOCK_NAMES,
    BiGRUParams,
    GRUParams,
    PackedSteps,
    _scan,
    bigru_backward,
    bigru_forward,
    gru_backward,
    gru_forward,
)

import gru_reference
import neural_reference


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _random_params(rng, hidden, dim) -> GRUParams:
    return GRUParams(
        w_z=rng.normal(size=(hidden, dim)),
        u_z=rng.normal(size=(hidden, hidden)),
        b_z=rng.normal(size=hidden),
        w_r=rng.normal(size=(hidden, dim)),
        u_r=rng.normal(size=(hidden, hidden)),
        b_r=rng.normal(size=hidden),
        w_h=rng.normal(size=(hidden, dim)),
        u_h=rng.normal(size=(hidden, hidden)),
        b_h=rng.normal(size=hidden),
    )


def _pack(sequences: list[np.ndarray]) -> PackedSteps:
    """Time-major packing of sequences already sorted longest first."""
    longest = len(sequences[0])
    rows = [seq[t] for t in range(longest) for seq in sequences if t < len(seq)]
    return PackedSteps(values=np.array(rows), lengths=np.array([len(s) for s in sequences]))


def _reference_gru(params: GRUParams, xs: np.ndarray) -> np.ndarray:
    """Independent re-implementation of the gated recurrence."""
    h_prev = np.zeros(params.hidden)
    states = []
    for x in xs:
        z = _sigmoid(params.w_z @ x + params.u_z @ h_prev + params.b_z)
        r = _sigmoid(params.w_r @ x + params.u_r @ h_prev + params.b_r)
        candidate = np.tanh(params.w_h @ x + params.u_h @ (r * h_prev) + params.b_h)
        h_prev = (1.0 - z) * h_prev + z * candidate
        states.append(h_prev.copy())
    return np.array(states)


def test_gru_forward_matches_reference():
    rng = np.random.default_rng(0)
    params = _random_params(rng, hidden=5, dim=3)
    xs = rng.normal(size=(6, 3))
    cache = gru_forward(params, _pack([xs]))
    expected = _reference_gru(params, xs)
    np.testing.assert_allclose(cache.h, expected, rtol=0, atol=1e-12)


def test_gru_starts_from_zero_state():
    rng = np.random.default_rng(1)
    params = _random_params(rng, hidden=4, dim=2)
    x = rng.normal(size=(1, 2))
    cache = gru_forward(params, _pack([x]))
    z = _sigmoid(params.w_z @ x[0] + params.b_z)
    r = _sigmoid(params.w_r @ x[0] + params.b_r)
    candidate = np.tanh(params.w_h @ x[0] + params.b_h)  # r * 0 drops the U_h term
    np.testing.assert_allclose(cache.h[0], z * candidate, atol=1e-12)
    del r


def test_bigru_alignment():
    """Backward states must be position-aligned: bwd[t] summarizes xs[t:]."""
    rng = np.random.default_rng(2)
    params = BiGRUParams(fwd=_random_params(rng, 4, 3), bwd=_random_params(rng, 4, 3))
    xs = rng.normal(size=(5, 3))
    fwd_states, bwd_states, _ = bigru_forward(params, _pack([xs]))
    assert fwd_states.shape == bwd_states.shape == (5, 4)
    np.testing.assert_allclose(fwd_states, _reference_gru(params.fwd, xs), atol=1e-12)
    reversed_run = _reference_gru(params.bwd, xs[::-1])
    np.testing.assert_allclose(bwd_states, reversed_run[::-1], atol=1e-12)
    # The classifier consumes fwd[-1] (whole path, top down) and bwd[0]
    # (whole path, bottom up): both digest every position.
    np.testing.assert_allclose(bwd_states[0], reversed_run[-1], atol=1e-12)


def test_single_step_fwd_equals_bwd_run():
    rng = np.random.default_rng(3)
    shared = _random_params(rng, 4, 3)
    params = BiGRUParams(fwd=shared, bwd=shared)
    xs = rng.normal(size=(1, 3))
    fwd_states, bwd_states, _ = bigru_forward(params, _pack([xs]))
    np.testing.assert_allclose(fwd_states, bwd_states, atol=1e-12)


def test_packed_rows_are_time_major():
    steps = _pack([np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((1, 2))])
    assert len(steps) == 7
    assert steps.sizes.tolist() == [3, 2, 2]
    assert steps.offsets.tolist() == [0, 3, 5, 7]
    assert steps.row(np.array([2, 0]), np.array([1, 2])).tolist() == [6, 2]


def test_packed_steps_reject_unsorted_lengths():
    with pytest.raises(ValueError, match="non-increasing"):
        PackedSteps(values=np.zeros((3, 2)), lengths=np.array([1, 2]))
    with pytest.raises(ValueError, match="one row"):
        PackedSteps(values=np.zeros((4, 2)), lengths=np.array([2, 1]))


def test_batched_bigru_matches_per_sequence_reference():
    """Mixed lengths, with gaps between them, against one sequence at a time."""
    rng = np.random.default_rng(4)
    params = BiGRUParams(fwd=_random_params(rng, 4, 3), bwd=_random_params(rng, 4, 3))
    sequences = [rng.normal(size=(length, 3)) for length in (4, 4, 2, 1, 1)]
    steps = _pack(sequences)
    fwd_states, bwd_states, cache = bigru_forward(params, steps)
    dh_fwd = rng.normal(size=fwd_states.shape)
    dh_bwd = rng.normal(size=bwd_states.shape)
    grads = params.zeros_like()
    dxs = bigru_backward(params, cache, dh_fwd, dh_bwd, grads)

    expected_grads = params.zeros_like()
    for b, xs in enumerate(sequences):
        rows = steps.row(np.arange(len(xs)), np.full(len(xs), b))
        fwd, bwd, ref_cache = neural_reference.bigru_forward(params, xs)
        np.testing.assert_allclose(fwd_states[rows], fwd, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bwd_states[rows], bwd, rtol=0, atol=1e-12)
        ref_dxs = neural_reference.bigru_backward(
            params, ref_cache, dh_fwd[rows], dh_bwd[rows], expected_grads
        )
        np.testing.assert_allclose(dxs[rows], ref_dxs, rtol=0, atol=1e-12)
    for direction in ("fwd", "bwd"):
        got, want = getattr(grads, direction), getattr(expected_grads, direction)
        for name in ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"):
            np.testing.assert_allclose(
                getattr(got, name), getattr(want, name), rtol=0, atol=1e-12
            )


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shapes and bytes: np.array_equal would also let 0.0 match -0.0."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# Batches of 1-20 sequences of 1-5 steps; every other draw is all one-step
# sequences, the case where no step carries a state.
BATCH_LENGTHS = st.one_of(
    st.lists(st.integers(1, 5), min_size=1, max_size=20),
    st.integers(1, 20).map(lambda n: [1] * n),
)


@settings(max_examples=150, deadline=None)
@given(
    lengths=BATCH_LENGTHS,
    reverse=st.booleans(),
    hidden=st.integers(1, 6),
    dim=st.integers(1, 5),
    zero_start=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(lengths=[1], reverse=False, hidden=3, dim=2, zero_start=True, seed=0)
@example(lengths=[1], reverse=True, hidden=3, dim=2, zero_start=True, seed=0)
@example(lengths=[5], reverse=True, hidden=3, dim=2, zero_start=False, seed=1)
@example(lengths=[1] * 20, reverse=False, hidden=4, dim=3, zero_start=True, seed=2)
def test_gru_matches_the_full_recurrence_bit_for_bit(
    lengths, reverse, hidden, dim, zero_start, seed
):
    """Skipping the zero state's products changes no bit of any output."""
    rng = np.random.default_rng(seed)
    params = _random_params(rng, hidden, dim)
    lengths = sorted(lengths, reverse=True)
    steps = PackedSteps(
        values=rng.normal(size=(sum(lengths), dim)), lengths=np.array(lengths)
    )
    dh = rng.normal(size=(len(steps), hidden))
    start = params.zeros_like()
    if not zero_start:
        for name in GRU_BLOCK_NAMES:
            getattr(start, name)[...] = rng.normal(size=getattr(start, name).shape)

    cache = gru_forward(params, steps, reverse=reverse)
    want_cache = gru_reference.gru_forward(params, steps, reverse=reverse)
    for name in ("prev", "z", "c", "h"):
        assert _same_bits(getattr(cache, name), getattr(want_cache, name)), name
    # The scan's first step starts from the zero state, where c ignores r:
    # its r is never computed and reads +0.0; every other row keeps its bits.
    first = _scan(steps, reverse)[0][0]
    read = np.ones(len(steps), dtype=bool)
    read[first] = False
    assert _same_bits(cache.r[read], want_cache.r[read])
    assert _same_bits(cache.r[first], np.zeros_like(cache.r[first]))

    grads, want_grads = copy.deepcopy(start), copy.deepcopy(start)
    dx = gru_backward(params, cache, dh, grads)
    want_dx = gru_reference.gru_backward(params, want_cache, dh, want_grads)
    assert _same_bits(dx, want_dx)
    for name in GRU_BLOCK_NAMES:
        assert _same_bits(getattr(grads, name), getattr(want_grads, name)), name
