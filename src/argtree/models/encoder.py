"""Claim-pair encoder: token + segment embeddings, mean pool, tanh projection.

Sequences are packed as [CLS] a [SEP] b [SEP] with segment 0 covering CLS,
the first claim and the first SEP, segment 1 the rest. Unknown tokens map
to PAD, which shares id 0 with padding. Each claim is truncated to a fixed
token budget before packing. A batch of sequences is pooled at once by a
sparse matrix whose row for a sequence holds 1/len at each of its tokens;
the backward pass scatters into the embeddings through its transpose.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..features import build_vocabulary, csr_matrix, index_dtype
from ..text import tokenize

if TYPE_CHECKING:
    import scipy.sparse as sp

PAD_ID = 0
CLS_ID = 1
SEP_ID = 2
SPECIAL_TOKENS = ("<pad>", "<cls>", "<sep>")
FIRST_REGULAR_ID = len(SPECIAL_TOKENS)


@dataclass
class EncoderVocab:
    """Regular tokens get ids from 3 upward; unknown tokens collapse to PAD.

    The ids of each distinct text are computed once per vocabulary object.
    """

    tokens: list[str]

    def __post_init__(self) -> None:
        self._token_to_id = {
            token: FIRST_REGULAR_ID + i for i, token in enumerate(self.tokens)
        }
        self._text_ids = functools.cache(lambda text: self.encode_tokens(tokenize(text)))

    @property
    def size(self) -> int:
        return FIRST_REGULAR_ID + len(self.tokens)

    def token_id(self, token: str) -> int:
        return self._token_to_id.get(token, PAD_ID)

    def encode_tokens(self, tokens: Sequence[str]) -> list[int]:
        return [self.token_id(t) for t in tokens]

    def text_ids(self, text: str, truncate: int) -> list[int]:
        """Ids of the text's first `truncate` tokens."""
        return self._text_ids(text)[:truncate]


def build_encoder_vocab(texts: Iterable[str], min_count: int = 2) -> EncoderVocab:
    return EncoderVocab(tokens=build_vocabulary(texts, min_count).tokens())


def pack_pair(
    vocab: EncoderVocab, a_text: str, b_text: str, truncate: int
) -> tuple[np.ndarray, np.ndarray]:
    a_ids = vocab.text_ids(a_text, truncate)
    b_ids = vocab.text_ids(b_text, truncate)
    ids = [CLS_ID] + a_ids + [SEP_ID] + b_ids + [SEP_ID]
    segments = [0] * (len(a_ids) + 2) + [1] * (len(b_ids) + 1)
    return np.array(ids, dtype=np.int64), np.array(segments, dtype=np.int64)


def pack_path_flat(
    vocab: EncoderVocab, path_texts: Sequence[str], truncate: int
) -> tuple[np.ndarray, np.ndarray]:
    """Whole path in one sequence, descendant first, then each ancestor.

    [CLS] B [SEP] parent(B) [SEP] ... A [SEP]; segment 0 covers CLS, B and
    the first SEP. For a distance-one path this equals pack_pair(B, A).
    """
    if len(path_texts) < 2:
        raise ValueError("path must contain at least two claims")
    claims = [vocab.text_ids(t, truncate) for t in reversed(path_texts)]
    ids = [CLS_ID]
    for claim_ids in claims:
        ids.extend(claim_ids)
        ids.append(SEP_ID)
    segments = [0] * (len(claims[0]) + 2)
    segments += [1] * (len(ids) - len(segments))
    return np.array(ids, dtype=np.int64), np.array(segments, dtype=np.int64)


def pack_path_pairs(
    vocab: EncoderVocab,
    path_texts: Sequence[str],
    truncate: int,
    pair_order: str = "top_down",
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Adjacent (parent, child) pairs along the path, one packed pair each.

    top_down yields the pair nearest the ancestor first; bottom_up reverses
    the sequence order (pairs themselves keep parent first).
    """
    if len(path_texts) < 2:
        raise ValueError("path must contain at least two claims")
    if pair_order not in ("top_down", "bottom_up"):
        raise ValueError(f"unknown pair order {pair_order!r}")
    pairs = [
        pack_pair(vocab, path_texts[i], path_texts[i + 1], truncate)
        for i in range(len(path_texts) - 1)
    ]
    if pair_order == "bottom_up":
        pairs.reverse()
    return pairs


@dataclass
class EncoderParams:
    tok_emb: np.ndarray  # vocab x dim
    seg_emb: np.ndarray  # 2 x dim
    proj_w: np.ndarray  # dim x dim
    proj_b: np.ndarray  # dim

    @property
    def dim(self) -> int:
        return self.tok_emb.shape[1]

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(
            tok_emb=np.zeros_like(self.tok_emb),
            seg_emb=np.zeros_like(self.seg_emb),
            proj_w=np.zeros_like(self.proj_w),
            proj_b=np.zeros_like(self.proj_b),
        )


@dataclass
class PackedSequences:
    """Packed sequences laid end to end in flat arrays.

    Sequence k's token ids are ids[offsets[k]:offsets[k + 1]] and its
    segments the same slice of `segments`; `lengths` and `second` (its
    count of segment 1 tokens) are kept per sequence.
    """

    ids: np.ndarray
    segments: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    second: np.ndarray

    @classmethod
    def concat(cls, sequences: Sequence[tuple[np.ndarray, np.ndarray]]) -> "PackedSequences":
        lengths = np.array([len(ids) for ids, _ in sequences], dtype=np.int64)
        offsets = np.zeros(len(sequences) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        empty = np.zeros(0, dtype=np.int64)  # so that no sequences concatenate too
        ids = np.concatenate([empty, *(ids for ids, _ in sequences)])
        segments = np.concatenate([empty, *(segments for _, segments in sequences)])
        second = np.add.reduceat(segments, offsets[:-1])
        return cls(ids=ids, segments=segments, offsets=offsets, lengths=lengths, second=second)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, key: int) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(self.offsets[key], self.offsets[key + 1])
        return self.ids[rows], self.segments[rows]


@dataclass
class SequenceBatch:
    """Packed sequences as mean-pooling weights over the tokens they use.

    `tokens` is a CSR matrix with one row per sequence and one column per
    entry of `columns` (the distinct token ids of the batch, ascending);
    each token occurrence adds 1/len to its row. `segments` holds each
    sequence's share of segment 0 and segment 1 tokens.
    """

    tokens: sp.csr_matrix
    columns: np.ndarray
    segments: np.ndarray

    def __len__(self) -> int:
        return self.tokens.shape[0]


def batch_sequences(packed: PackedSequences, keys: np.ndarray) -> SequenceBatch:
    """The sequences `keys` of `packed`, in that order, as one batch."""
    lengths = packed.lengths[keys]
    total = int(lengths.sum())
    dtype = index_dtype(total)
    indptr = np.zeros(len(keys) + 1, dtype=dtype)
    np.cumsum(lengths, out=indptr[1:])
    # Each token's position in `packed`: its position in the batch plus the
    # distance from its sequence's start there to its start in `packed`.
    shift = np.repeat(packed.offsets[keys] - indptr[:-1], lengths)
    columns, indices = np.unique(packed.ids[np.arange(total) + shift], return_inverse=True)
    weights = np.repeat(1.0 / lengths, lengths)
    tokens = csr_matrix(
        (weights, indices.astype(dtype, copy=False), indptr), shape=(len(keys), len(columns))
    )
    second = packed.second[keys]
    segments = np.stack([lengths - second, second], axis=1) / lengths[:, None]
    return SequenceBatch(tokens=tokens, columns=columns, segments=segments)


@dataclass
class EncodeCache:
    batch: SequenceBatch
    pool: np.ndarray  # sequences x dim
    h: np.ndarray  # sequences x dim


def encode(params: EncoderParams, batch: SequenceBatch) -> EncodeCache:
    pool = batch.tokens @ params.tok_emb[batch.columns] + batch.segments @ params.seg_emb
    h = np.tanh(pool @ params.proj_w.T + params.proj_b)
    return EncodeCache(batch=batch, pool=pool, h=h)


def encode_backward(
    params: EncoderParams, cache: EncodeCache, dh: np.ndarray, grads: EncoderParams
) -> None:
    """Accumulate parameter gradients for a batch; dh holds one row per sequence."""
    du = dh * (1.0 - cache.h * cache.h)
    grads.proj_w += du.T @ cache.pool
    grads.proj_b += du.sum(axis=0)
    dpool = du @ params.proj_w
    grads.tok_emb[cache.batch.columns] += cache.batch.tokens.T @ dpool
    grads.seg_emb += cache.batch.segments.T @ dpool
