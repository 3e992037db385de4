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
are summed with one matmul per block after the backward scan. z and r sit
side by side in one buffer, so each step adds U h to both and takes both
sigmoids in one pass; the scans write their temporaries into buffers
allocated once per call.

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

from dataclasses import dataclass, field

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
    number of real steps. The layout is computed once, at construction.
    """

    values: np.ndarray  # real steps x input
    lengths: np.ndarray  # batch, non-increasing, each >= 1
    sizes: np.ndarray = field(init=False, repr=False)  # sequences with a step t
    offsets: np.ndarray = field(init=False, repr=False)  # first row of step t
    steps: list[tuple[slice, int]] = field(init=False, repr=False)  # (rows, sizes[t])

    def __post_init__(self) -> None:
        if self.lengths.size == 0 or self.lengths[-1] < 1 or np.any(np.diff(self.lengths) > 0):
            raise ValueError("sequence lengths must be positive and non-increasing")
        if self.values.shape[0] != self.lengths.sum():
            raise ValueError("one row of values per real step expected")
        self.sizes = np.bincount(self.lengths - 1)[::-1].cumsum()[::-1]
        self.offsets = np.concatenate([[0], self.sizes.cumsum()])
        bounds = self.offsets.tolist()
        self.steps = [(slice(a, b), b - a) for a, b in zip(bounds, bounds[1:])]

    def __len__(self) -> int:
        return self.values.shape[0]

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
    return steps.steps[::-1] if reverse else steps.steps


def gru_forward(params: GRUParams, steps: PackedSteps, reverse: bool = False) -> GRUCache:
    """Scan positions 0..T-1 (T-1..0 when reverse) for every sequence at once.

    A reverse scan starts each sequence from zero at its own last step:
    the sequences that join at step t are the ones whose length is t + 1.
    """
    xs = steps.values
    hidden = params.hidden
    (rows, _), *rest = _scan(steps, reverse)
    # z and r share one buffer, each row z then r. It starts as W x + b for
    # every step, so a step adds U h to both gates and takes their sigmoid in
    # one pass each; c likewise starts as W_h x + b_h.
    gates = np.empty((len(xs), 2 * hidden))
    z, r = gates[:, :hidden], gates[:, hidden:]
    np.matmul(xs, params.w_z.T, out=z)
    z += params.b_z
    if rest:
        np.matmul(xs, params.w_r.T, out=r)
        r += params.b_r
    c = xs @ params.w_h.T
    c += params.b_h
    prev = np.zeros((len(xs), hidden))
    h = np.empty_like(prev)
    _sigmoid(z[rows], out=z[rows])
    r[rows] = 0.0
    np.tanh(c[rows], out=c[rows])
    np.multiply(z[rows], c[rows], out=h[rows])
    products = np.empty((len(steps.lengths), 2 * hidden))  # U_z h, U_r h; then U_h (r * h)
    scratch = np.empty((len(steps.lengths), hidden))
    for (last, last_n), (rows, n) in zip(_scan(steps, reverse), rest):
        # Sequences that ran the last step start from its state; in a
        # reverse scan the ones that join here keep the zero state.
        carried = min(n, last_n)
        p = prev[rows]
        p[:carried] = h[last.start : last.start + carried]
        zr, uh, tmp = gates[rows], products[:n], scratch[:n]
        np.matmul(p, params.u_z.T, out=uh[:, :hidden])
        np.matmul(p, params.u_r.T, out=uh[:, hidden:])
        zr += uh
        _sigmoid(zr, out=zr, work=uh)
        zt, ct, ht = zr[:, :hidden], c[rows], h[rows]
        ct += np.matmul(np.multiply(zr[:, hidden:], p, out=tmp), params.u_h.T, out=uh[:, :hidden])
        np.tanh(ct, out=ct)
        np.multiply(zt, ct, out=ht)
        np.subtract(1.0, zt, out=tmp)
        tmp *= p
        ht += tmp
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
    g_buffer, d_rh_buffer, scratch, z_buffer, r_buffer = np.empty((5, *carry.shape))
    *carrying, (first, first_n) = _scan(cache.steps, not cache.reverse)
    for rows, n in carrying:
        g = np.add(dh[rows], carry[:n], out=g_buffer[:n])
        zt, rt, ct, pt, tmp = z[rows], r[rows], c[rows], prev[rows], scratch[:n]
        dc = np.multiply(g, zt, out=da_c[rows])
        dc *= np.subtract(1.0, np.multiply(ct, ct, out=tmp), out=tmp)
        d_rh = np.matmul(dc, params.u_h, out=d_rh_buffer[:n])
        one_minus_z = np.subtract(1.0, zt, out=z_buffer[:n])
        dr = np.multiply(d_rh, pt, out=da_r[rows])
        dr *= rt
        dr *= np.subtract(1.0, rt, out=r_buffer[:n])
        dz = np.subtract(ct, pt, out=da_z[rows])
        dz *= g
        dz *= zt
        dz *= one_minus_z
        out = np.multiply(g, one_minus_z, out=carry[:n])
        out += np.multiply(d_rh, rt, out=tmp)
        out += np.matmul(dr, params.u_r, out=tmp)
        out += np.matmul(dz, params.u_z, out=tmp)
    # The scan's first step, walked last, started from the fixed zero state.
    g = np.add(dh[first], carry[:first_n], out=g_buffer[:first_n])
    zt, ct, tmp = z[first], c[first], scratch[:first_n]
    dc = np.multiply(g, zt, out=da_c[first])
    dc *= np.subtract(1.0, np.multiply(ct, ct, out=tmp), out=tmp)
    da_r[first] = 0.0
    dz = np.multiply(g, ct, out=da_z[first])
    dz *= zt
    dz *= np.subtract(1.0, zt, out=tmp)

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
