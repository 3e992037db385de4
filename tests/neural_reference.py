"""Per-example reference for the batched neural kernels.

This is the original one-example, one-step implementation of the encoder,
the GRU and the classifier head. The library runs whole minibatches at
once; the tests compare its probabilities, losses and gradients with the
results of this loop on the same parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from argtree.models.encoder import EncoderParams
from argtree.models.gru import BiGRUParams, GRUParams
from argtree.models.logreg import _sigmoid
from argtree.models.neural import NeuralParams, PackedExample


# ---------------------------------------------------------------------------
# Encoder: mean pool, projection, tanh, one sequence at a time


@dataclass
class EncodeCache:
    ids: np.ndarray
    segments: np.ndarray
    pool: np.ndarray
    h: np.ndarray


def encode(params: EncoderParams, ids: np.ndarray, segments: np.ndarray) -> EncodeCache:
    pool = (params.tok_emb[ids].sum(axis=0) + params.seg_emb[segments].sum(axis=0)) / len(ids)
    h = np.tanh(params.proj_w @ pool + params.proj_b)
    return EncodeCache(ids=ids, segments=segments, pool=pool, h=h)


def encode_backward(
    params: EncoderParams, cache: EncodeCache, dh: np.ndarray, grads: EncoderParams
) -> None:
    du = dh * (1.0 - cache.h * cache.h)
    grads.proj_w += np.outer(du, cache.pool)
    grads.proj_b += du
    dpool = params.proj_w.T @ du
    dtoken = dpool / len(cache.ids)
    np.add.at(grads.tok_emb, cache.ids, dtoken)
    np.add.at(grads.seg_emb, cache.segments, dtoken)


# ---------------------------------------------------------------------------
# GRU: one step at a time, one outer product per step and block


@dataclass
class GRUCache:
    xs: np.ndarray
    z: np.ndarray
    r: np.ndarray
    c: np.ndarray
    h: np.ndarray


def gru_forward(params: GRUParams, xs: np.ndarray) -> GRUCache:
    steps = xs.shape[0]
    hidden = params.hidden
    z = np.zeros((steps, hidden))
    r = np.zeros((steps, hidden))
    c = np.zeros((steps, hidden))
    h = np.zeros((steps, hidden))
    h_prev = np.zeros(hidden)
    for t in range(steps):
        x = xs[t]
        z[t] = _sigmoid(params.w_z @ x + params.u_z @ h_prev + params.b_z)
        r[t] = _sigmoid(params.w_r @ x + params.u_r @ h_prev + params.b_r)
        c[t] = np.tanh(params.w_h @ x + params.u_h @ (r[t] * h_prev) + params.b_h)
        h[t] = (1.0 - z[t]) * h_prev + z[t] * c[t]
        h_prev = h[t]
    return GRUCache(xs=xs, z=z, r=r, c=c, h=h)


def gru_backward(
    params: GRUParams, cache: GRUCache, dh: np.ndarray, grads: GRUParams
) -> np.ndarray:
    steps = cache.xs.shape[0]
    dxs = np.zeros_like(cache.xs)
    carry = np.zeros(params.hidden)
    for t in range(steps - 1, -1, -1):
        h_prev = cache.h[t - 1] if t > 0 else np.zeros(params.hidden)
        g = dh[t] + carry
        z, r, c = cache.z[t], cache.r[t], cache.c[t]
        x = cache.xs[t]

        dz = g * (c - h_prev)
        dc = g * z
        dh_prev = g * (1.0 - z)

        da_c = dc * (1.0 - c * c)
        grads.w_h += np.outer(da_c, x)
        grads.u_h += np.outer(da_c, r * h_prev)
        grads.b_h += da_c
        d_rh = params.u_h.T @ da_c
        dr = d_rh * h_prev
        dh_prev += d_rh * r

        da_r = dr * r * (1.0 - r)
        grads.w_r += np.outer(da_r, x)
        grads.u_r += np.outer(da_r, h_prev)
        grads.b_r += da_r
        dh_prev += params.u_r.T @ da_r

        da_z = dz * z * (1.0 - z)
        grads.w_z += np.outer(da_z, x)
        grads.u_z += np.outer(da_z, h_prev)
        grads.b_z += da_z
        dh_prev += params.u_z.T @ da_z

        dxs[t] = params.w_z.T @ da_z + params.w_r.T @ da_r + params.w_h.T @ da_c
        carry = dh_prev
    return dxs


def bigru_forward(params: BiGRUParams, xs: np.ndarray):
    fwd_cache = gru_forward(params.fwd, xs)
    bwd_cache = gru_forward(params.bwd, xs[::-1])
    return fwd_cache.h, bwd_cache.h[::-1], (fwd_cache, bwd_cache)


def bigru_backward(params: BiGRUParams, cache, dh_fwd, dh_bwd, grads: BiGRUParams):
    fwd_cache, bwd_cache = cache
    dx = gru_backward(params.fwd, fwd_cache, dh_fwd, grads.fwd)
    dx_rev = gru_backward(params.bwd, bwd_cache, dh_bwd[::-1], grads.bwd)
    return dx + dx_rev[::-1]


# ---------------------------------------------------------------------------
# Classifier head, one example at a time


@dataclass
class ForwardCache:
    encode_caches: list[EncodeCache]
    gru_cache: object
    representation: np.ndarray
    probs: np.ndarray


def forward_example(kind: str, params: NeuralParams, packed: PackedExample) -> ForwardCache:
    encode_caches = [
        encode(params.encoders[params.encoder_index(k)], ids, segments)
        for k, (ids, segments) in enumerate(packed.sequences)
    ]
    gru_cache = None
    if kind == "path-hier":
        xs = np.stack([cache.h for cache in encode_caches])
        fwd_states, bwd_states, gru_cache = bigru_forward(params.gru, xs)
        representation = np.concatenate([fwd_states[-1], bwd_states[0]])
    else:
        representation = encode_caches[0].h
    logits = params.cls_w @ representation + params.cls_b
    exp = np.exp(logits - logits.max())
    return ForwardCache(
        encode_caches=encode_caches,
        gru_cache=gru_cache,
        representation=representation,
        probs=exp / exp.sum(),
    )


def backward_example(
    kind: str,
    params: NeuralParams,
    packed: PackedExample,
    cache: ForwardCache,
    grads: NeuralParams,
    scale: float,
) -> None:
    dlogits = cache.probs.copy()
    dlogits[packed.label_index] -= 1.0
    dlogits *= scale
    grads.cls_w += np.outer(dlogits, cache.representation)
    grads.cls_b += dlogits
    drep = params.cls_w.T @ dlogits
    if kind == "path-hier":
        hidden = params.gru.fwd.hidden
        steps = len(packed.sequences)
        dh_fwd = np.zeros((steps, hidden))
        dh_bwd = np.zeros((steps, hidden))
        dh_fwd[-1] = drep[:hidden]
        dh_bwd[0] = drep[hidden:]
        dxs = bigru_backward(params.gru, cache.gru_cache, dh_fwd, dh_bwd, grads.gru)
        for k, encode_cache in enumerate(cache.encode_caches):
            encoder = params.encoder_index(k)
            encode_backward(params.encoders[encoder], encode_cache, dxs[k], grads.encoders[encoder])
    else:
        encode_backward(params.encoders[0], cache.encode_caches[0], drep, grads.encoders[0])


def _l2_penalty(params: NeuralParams, l2: float) -> float:
    total = 0.0
    for block in params.blocks().values():
        if block.ndim == 2:
            total += float((block * block).sum())
    return 0.5 * l2 * total


def reference_probs(kind: str, params: NeuralParams, batch: Sequence[PackedExample]) -> np.ndarray:
    return np.stack([forward_example(kind, params, packed).probs for packed in batch])


def reference_loss_and_grads(
    kind: str, params: NeuralParams, batch: Sequence[PackedExample], l2: float
) -> tuple[float, NeuralParams]:
    """Mean cross-entropy plus L2 on 2-D blocks, summed example by example."""
    grads = params.zeros_like()
    scale = 1.0 / len(batch)
    data_loss = 0.0
    for packed in batch:
        cache = forward_example(kind, params, packed)
        data_loss -= math.log(float(cache.probs[packed.label_index]) + 1e-12)
        backward_example(kind, params, packed, cache, grads, scale)
    param_blocks = params.blocks()
    for name, gblock in grads.blocks().items():
        if gblock.ndim == 2:
            gblock += l2 * param_blocks[name]
    return data_loss * scale + _l2_penalty(params, l2), grads
