"""Reference minibatch layout for the batched neural kernels.

This is the layout `argtree.models.neural` built before it packed every
distinct sequence into flat arrays: pack_dataset keeps one pair of arrays
per sequence and one PackedExample per example, and make_batch walks the
examples step by step in Python, building each encoder's SequenceBatch
from the per-sequence arrays. The tests run the library's forward and
backward passes on both layouts and compare the results bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from argtree.features import csr_matrix
from argtree.models.config import EncoderConfig
from argtree.models.encoder import EncoderVocab, SequenceBatch, pack_pair, pack_path_flat
from argtree.models.neural import (
    Batch,
    Example,
    NeuralParams,
    PackedExample,
    _sequence_texts,
)


def pack_dataset(
    kind: str,
    examples: Sequence[Example],
    vocab: EncoderVocab,
    config: EncoderConfig,
    label_names: Sequence[str],
) -> list[PackedExample]:
    index = {name: i for i, name in enumerate(label_names)}
    by_texts: dict[tuple[str, ...], tuple[int, tuple[np.ndarray, np.ndarray]]] = {}
    by_bytes: dict[bytes, int] = {}
    packed = []
    for example in examples:
        label = example.label.value
        if label not in index:
            raise ValueError(f"unknown label {label!r}")
        units = []
        for texts in _sequence_texts(kind, example, config.pair_order):
            unit = by_texts.get(texts)
            if unit is None:
                if kind == "path-flat":
                    ids, segments = pack_path_flat(vocab, texts, config.truncate)
                else:
                    ids, segments = pack_pair(vocab, texts[0], texts[1], config.truncate)
                key = by_bytes.setdefault(ids.tobytes() + segments.tobytes(), len(by_bytes))
                unit = by_texts[texts] = (key, (ids, segments))
            units.append(unit)
        packed.append(
            PackedExample(
                sequences=[sequence for _, sequence in units],
                keys=[key for key, _ in units],
                label_index=index[label],
            )
        )
    return packed


def batch_sequences(sequences: Sequence[tuple[np.ndarray, np.ndarray]]) -> SequenceBatch:
    lengths = np.array([len(ids) for ids, _ in sequences], dtype=np.int64)
    indptr = np.zeros(len(sequences) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    columns, indices = np.unique(
        np.concatenate([ids for ids, _ in sequences]), return_inverse=True
    )
    weights = np.repeat(1.0 / lengths, lengths)
    tokens = csr_matrix((weights, indices, indptr), shape=(len(sequences), len(columns)))
    second = np.add.reduceat(np.concatenate([seg for _, seg in sequences]), indptr[:-1])
    segments = np.stack([lengths - second, second], axis=1) / lengths[:, None]
    return SequenceBatch(tokens=tokens, columns=columns, segments=segments)


def make_batch(params: NeuralParams, packed: Sequence[PackedExample]) -> Batch:
    lengths = np.array([len(example.sequences) for example in packed], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    ordered = [packed[i] for i in order]
    rows: list[dict[int, int]] = [{} for _ in params.encoders]
    sequences: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in params.encoders]
    keys: list[tuple[int, int]] = []
    for t in range(lengths.max()):
        encoder = params.encoder_index(t)
        for example in ordered:
            if len(example.sequences) <= t:
                break
            key = example.keys[t]
            row = rows[encoder].get(key)
            if row is None:
                row = rows[encoder][key] = len(sequences[encoder])
                sequences[encoder].append(example.sequences[t])
            keys.append((encoder, row))
    offsets = np.cumsum([0] + [len(seqs) for seqs in sequences])
    return Batch(
        order=order,
        lengths=lengths[order],
        groups=[(e, batch_sequences(seqs)) for e, seqs in enumerate(sequences) if seqs],
        slots=np.array([offsets[e] + row for e, row in keys], dtype=np.int64),
        labels=np.array([example.label_index for example in ordered], dtype=np.int64),
    )
