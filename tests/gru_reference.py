"""Reference batched GRU kernels.

This is the scan that `argtree.models.gru` ran before it learned to skip
work whose result is known: every step multiplies its previous state by
U_z, U_r and U_h, even where that state is the zero initial state, and the
backward scan computes a carry at every step, including the last one,
whose carry nothing reads. Its sigmoid is the np.where form, not the
library's in-place one. The tests compare the library's states and
gradients with these loops bit for bit.
"""

from __future__ import annotations

import numpy as np

from argtree.models.gru import GRUCache, GRUParams, PackedSteps, _scan


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def gru_forward(params: GRUParams, steps: PackedSteps, reverse: bool = False) -> GRUCache:
    xs = steps.values
    hidden = params.hidden
    wz = xs @ params.w_z.T + params.b_z
    wr = xs @ params.w_r.T + params.b_r
    wh = xs @ params.w_h.T + params.b_h
    prev = np.empty((len(xs), hidden))
    z = np.empty_like(prev)
    r = np.empty_like(prev)
    c = np.empty_like(prev)
    h = np.empty_like(prev)
    state = np.zeros((len(steps.lengths), hidden))
    for rows, n in _scan(steps, reverse):
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
    prev, z, r, c = cache.prev, cache.z, cache.r, cache.c
    da_z = np.empty_like(prev)
    da_r = np.empty_like(prev)
    da_c = np.empty_like(prev)
    carry = np.zeros((len(cache.steps.lengths), params.hidden))
    for rows, n in _scan(cache.steps, not cache.reverse):
        g = dh[rows] + carry[:n]
        zt, rt, ct, pt = z[rows], r[rows], c[rows], prev[rows]
        da_c[rows] = g * zt * (1.0 - ct * ct)
        d_rh = da_c[rows] @ params.u_h
        da_r[rows] = d_rh * pt * rt * (1.0 - rt)
        da_z[rows] = g * (ct - pt) * zt * (1.0 - zt)
        carry[:n] = (
            g * (1.0 - zt) + d_rh * rt + da_r[rows] @ params.u_r + da_z[rows] @ params.u_z
        )

    xs = cache.steps.values
    grads.w_z += da_z.T @ xs
    grads.w_r += da_r.T @ xs
    grads.w_h += da_c.T @ xs
    grads.u_z += da_z.T @ prev
    grads.u_r += da_r.T @ prev
    grads.u_h += da_c.T @ (r * prev)
    grads.b_z += da_z.sum(axis=0)
    grads.b_r += da_r.sum(axis=0)
    grads.b_h += da_c.sum(axis=0)
    return da_z @ params.w_z + da_r @ params.w_r + da_c @ params.w_h
