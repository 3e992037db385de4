"""Gated recurrent unit with explicit forward and backward passes.

Gates, for input x_t and previous state h_{t-1} (zero initial state):

    z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)
    r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)
    c_t = tanh(Wh x_t + Uh (r_t * h_{t-1}) + bh)
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t

Every pass runs a whole batch of sequences at once (PackedSteps: sorted
longest first, time-major, padding dropped), so each step is one matmul
per gate over the sequences still running. The input products W x are
computed for all steps in one matmul per gate, and the weight gradients
are summed with one matmul per block after the backward scan.

Terms that are exact zeros are not computed. The first step of a scan
starts every running sequence from the zero state, so it skips the three
recurrent products: z and c come from W x + b alone and h = z * c. Its r
gate is not computed either, since c ignores r when the state is zero;
the cache holds 0.0 there, which the backward pass reads only as r * 0.
When every sequence is one step long, W_r x + b_r is not computed at all.
The backward pass walks that step last and needs no gradient for the fixed
zero state: it skips the U_h product and the carry, and sets the step's r
gradient (a multiple of the zero state) to 0. When every sequence is one
step long no step carries a state, so the U_z, U_r, U_h, W_r and b_r
gradients and the input gradient through W_r would only add zeros, and
they are skipped. For finite weights every skipped term is +-0, and adding
+-0 to a nonzero float leaves its bits unchanged (a result that is itself
zero could at most change sign), so states and gradients keep the bits of
the full recurrence.

The bidirectional wrapper runs an independently parameterized copy from
each sequence's last position down to position 0 and reports its states
aligned to input positions, so the backward state at position 0 is the
final state of the reverse scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logreg import _sigmoid


@dataclass
class GRUParams:
    w_z: np.ndarray  # hidden x input
    u_z: np.ndarray  # hidden x hidden
    b_z: np.ndarray  # hidden
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    u_h: np.ndarray
    b_h: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w_z.shape[0]

    def zeros_like(self) -> "GRUParams":
        return GRUParams(
            **{name: np.zeros_like(getattr(self, name)) for name in GRU_BLOCK_NAMES}
        )


GRU_BLOCK_NAMES = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


@dataclass
class PackedSteps:
    """A batch of variable-length sequences packed time-major, longest first.

    This is the [steps, batch, input] array with its length mask applied:
    the real entries in row-major order, with the padding dropped. Because
    lengths never increase along the batch, the sequences that have a step
    t are a prefix 0..sizes[t]-1 of it, and their step-t inputs are the
    contiguous rows offsets[t]:offsets[t + 1] of `values`. len() is the
    number of real steps.
    """

    values: np.ndarray  # real steps x input
    lengths: np.ndarray  # batch, non-increasing, each >= 1

    def __post_init__(self) -> None:
        if self.lengths.size == 0 or self.lengths[-1] < 1 or np.any(np.diff(self.lengths) > 0):
            raise ValueError("sequence lengths must be positive and non-increasing")
        if self.values.shape[0] != self.lengths.sum():
            raise ValueError("one row of values per real step expected")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        """How many sequences have a step t, for t = 0..longest-1."""
        return np.bincount(self.lengths - 1)[::-1].cumsum()[::-1]

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], self.sizes.cumsum()])

    def row(self, step: np.ndarray, sequence: np.ndarray) -> np.ndarray:
        """Row of `values` holding step `step` of sequence `sequence`."""
        return self.offsets[step] + sequence


@dataclass
class GRUCache:
    steps: PackedSteps
    reverse: bool
    prev: np.ndarray  # real steps x hidden: the state each step starts from
    z: np.ndarray  # real steps x hidden
    r: np.ndarray
    c: np.ndarray
    h: np.ndarray  # the state after each step


def _scan(steps: PackedSteps, reverse: bool) -> list[tuple[slice, int]]:
    """(rows, running sequences) per step, in scan order."""
    offsets = steps.offsets
    order = [
        (slice(offsets[t], offsets[t + 1]), offsets[t + 1] - offsets[t])
        for t in range(len(offsets) - 1)
    ]
    return order[::-1] if reverse else order


def gru_forward(params: GRUParams, steps: PackedSteps, reverse: bool = False) -> GRUCache:
    """Scan positions 0..T-1 (T-1..0 when reverse) for every sequence at once.

    A reverse scan starts each sequence from zero at its own last step:
    the sequences that join at step t are the ones whose length is t + 1.
    """
    xs = steps.values
    hidden = params.hidden
    (rows, n), *rest = _scan(steps, reverse)
    wz = xs @ params.w_z.T + params.b_z
    if rest:
        wr = xs @ params.w_r.T + params.b_r
    wh = xs @ params.w_h.T + params.b_h
    prev = np.empty((len(xs), hidden))
    z = np.empty_like(prev)
    r = np.empty_like(prev)
    c = np.empty_like(prev)
    h = np.empty_like(prev)
    state = np.zeros((len(steps.lengths), hidden))
    prev[rows] = 0.0
    z[rows] = _sigmoid(wz[rows])
    r[rows] = 0.0
    c[rows] = np.tanh(wh[rows])
    h[rows] = state[:n] = z[rows] * c[rows]
    for rows, n in rest:
        prev[rows] = state[:n]
        p = prev[rows]
        z[rows] = _sigmoid(wz[rows] + p @ params.u_z.T)
        r[rows] = _sigmoid(wr[rows] + p @ params.u_r.T)
        c[rows] = np.tanh(wh[rows] + (r[rows] * p) @ params.u_h.T)
        h[rows] = state[:n] = (1.0 - z[rows]) * p + z[rows] * c[rows]
    return GRUCache(steps=steps, reverse=reverse, prev=prev, z=z, r=r, c=c, h=h)


def gru_backward(
    params: GRUParams, cache: GRUCache, dh: np.ndarray, grads: GRUParams
) -> np.ndarray:
    """Accumulate parameter gradients; return gradients w.r.t. the inputs.

    dh holds the externally supplied gradient at every real step, packed
    like the inputs; recurrent contributions are added while walking the
    scan backward. The last step walked, which started from the zero
    state, carries nothing further.
    """
    prev, z, r, c = cache.prev, cache.z, cache.r, cache.c
    da_z = np.empty_like(prev)  # gradients of the gate pre-activations
    da_r = np.empty_like(prev)
    da_c = np.empty_like(prev)
    carry = np.zeros((len(cache.steps.lengths), params.hidden))
    *carrying, (first, first_n) = _scan(cache.steps, not cache.reverse)
    for rows, n in carrying:
        g = dh[rows] + carry[:n]
        zt, rt, ct, pt = z[rows], r[rows], c[rows], prev[rows]
        da_c[rows] = g * zt * (1.0 - ct * ct)
        d_rh = da_c[rows] @ params.u_h
        da_r[rows] = d_rh * pt * rt * (1.0 - rt)
        da_z[rows] = g * (ct - pt) * zt * (1.0 - zt)
        carry[:n] = (
            g * (1.0 - zt) + d_rh * rt + da_r[rows] @ params.u_r + da_z[rows] @ params.u_z
        )
    # The scan's first step, walked last, started from the fixed zero state.
    g = dh[first] + carry[:first_n]
    zt, ct = z[first], c[first]
    da_c[first] = g * zt * (1.0 - ct * ct)
    da_r[first] = 0.0
    da_z[first] = g * ct * zt * (1.0 - zt)

    xs = cache.steps.values
    grads.w_z += da_z.T @ xs
    grads.w_h += da_c.T @ xs
    grads.b_z += da_z.sum(axis=0)
    grads.b_h += da_c.sum(axis=0)
    dx = da_z @ params.w_z
    if carrying:
        grads.w_r += da_r.T @ xs
        grads.u_z += da_z.T @ prev
        grads.u_r += da_r.T @ prev
        grads.u_h += da_c.T @ (r * prev)
        grads.b_r += da_r.sum(axis=0)
        dx += da_r @ params.w_r
    return dx + da_c @ params.w_h


@dataclass
class BiGRUParams:
    fwd: GRUParams
    bwd: GRUParams

    def zeros_like(self) -> "BiGRUParams":
        return BiGRUParams(fwd=self.fwd.zeros_like(), bwd=self.bwd.zeros_like())


@dataclass
class BiGRUCache:
    fwd: GRUCache
    bwd: GRUCache  # scanned from each sequence's last position to its first


def bigru_forward(
    params: BiGRUParams, steps: PackedSteps
) -> tuple[np.ndarray, np.ndarray, BiGRUCache]:
    """Returns (forward_states, backward_states), packed like steps.values.

    Both are aligned to input positions: a sequence's forward state at its
    last step and its backward state at step 0 have each read all of it.
    """
    fwd_cache = gru_forward(params.fwd, steps)
    bwd_cache = gru_forward(params.bwd, steps, reverse=True)
    return fwd_cache.h, bwd_cache.h, BiGRUCache(fwd=fwd_cache, bwd=bwd_cache)


def bigru_backward(
    params: BiGRUParams,
    cache: BiGRUCache,
    dh_fwd: np.ndarray,
    dh_bwd: np.ndarray,
    grads: BiGRUParams,
) -> np.ndarray:
    """dh_fwd / dh_bwd are position-aligned gradients, packed like the states."""
    dx = gru_backward(params.fwd, cache.fwd, dh_fwd, grads.fwd)
    return dx + gru_backward(params.bwd, cache.bwd, dh_bwd, grads.bwd)
