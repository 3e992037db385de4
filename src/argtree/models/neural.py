"""From-scratch neural claim-pair and path classifiers.

Three model kinds share one training set-up:

- "pair": encode the two claims as a single packed pair and classify the
  pooled representation. For path data the pair is (descendant, ancestor),
  so the model sees only the endpoints.
- "path-flat": encode the whole path as one packed sequence (descendant
  first) and classify it; at distance one this is exactly the pair model's
  input.
- "path-hier": encode each adjacent (parent, child) pair along the path,
  feed the pair vectors to a bidirectional GRU, and classify the
  concatenation of the forward output at the last position and the
  backward output at the first.

Every forward and backward pass runs a whole minibatch at once (see
Batch); dataset_loss and predict_packed run chunks of INFERENCE_CHUNK
examples the same way, and train_neural lays its train and dev chunks out
once for all epochs. pack_dataset packs each distinct edge or path once
into flat arrays (PackedDataset) and keys it with an integer id, and
make_batch lays a batch out from those arrays with array operations. In a
batch each distinct packed sequence is encoded once per encoder that reads
it, and its gradient is the sum over the places that read it.

All matrices initialize uniformly in +-1/sqrt(fan_in) with fan_in the
column count; biases start at zero. L2 applies to 2-D blocks only.
Training runs through config.fit, as logistic regression does: seeded
mini-batch gradient descent with best-dev checkpointing, early stopping on
dev accuracy, and a divergence guard.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from ..features import FeatureTable
from ..pairs import SpecificityExample, StanceExample, example_texts
from .config import EncoderConfig, EpochStats, TrainConfig, fit, neural_train_config
from .encoder import (
    EncodeCache,
    EncoderParams,
    EncoderVocab,
    PackedSequences,
    SequenceBatch,
    batch_sequences,
    build_encoder_vocab,
    encode,
    encode_backward,
    pack_pair,
    pack_path_flat,
    pack_path_pairs,  # noqa: F401  (benchmark/tracing.py wraps the packers by these names)
)
from .gru import (
    GRU_BLOCK_NAMES,
    BiGRUCache,
    BiGRUParams,
    GRUParams,
    PackedSteps,
    bigru_backward,
    bigru_forward,
)

MODEL_KINDS = ("pair", "path-flat", "path-hier")

Example = Union[SpecificityExample, StanceExample]
IntOrArray = Union[int, np.ndarray]


@dataclass
class NeuralParams:
    encoders: list[EncoderParams]
    gru: Optional[BiGRUParams]
    cls_w: np.ndarray
    cls_b: np.ndarray

    def zeros_like(self) -> "NeuralParams":
        return NeuralParams(
            encoders=[enc.zeros_like() for enc in self.encoders],
            gru=self.gru.zeros_like() if self.gru is not None else None,
            cls_w=np.zeros_like(self.cls_w),
            cls_b=np.zeros_like(self.cls_b),
        )

    def encoder_index(self, position: IntOrArray) -> IntOrArray:
        """The encoder that reads position `position` (or each of an array's)."""
        return np.minimum(position, len(self.encoders) - 1)

    def slots(self) -> Iterator[tuple[str, object, str]]:
        """(name, holder, attribute) of every parameter array, in a canonical order."""
        if len(self.encoders) == 1:
            prefixes = ["enc"]
        else:
            prefixes = [f"enc{i}" for i in range(len(self.encoders))]
        for prefix, enc in zip(prefixes, self.encoders):
            for attribute in ("tok_emb", "seg_emb", "proj_w", "proj_b"):
                yield f"{prefix}/{attribute}", enc, attribute
        if self.gru is not None:
            for direction, params in (("gru_fwd", self.gru.fwd), ("gru_bwd", self.gru.bwd)):
                for name in GRU_BLOCK_NAMES:
                    yield f"{direction}/{name}", params, name
        yield "cls/w", self, "cls_w"
        yield "cls/b", self, "cls_b"

    def blocks(self) -> dict[str, np.ndarray]:
        """Named views of every parameter array, in a canonical order."""
        return {name: getattr(holder, attribute) for name, holder, attribute in self.slots()}

    def parameter_count(self) -> int:
        return sum(block.size for block in self.blocks().values())


def encoder_count(kind: str, config: EncoderConfig) -> int:
    """path-hier without a shared encoder has one encoder per position up to
    max_positions; every other model has one."""
    return config.max_positions if kind == "path-hier" and not config.share_encoder else 1


def param_layout(
    kind: str, vocab_size: int, config: EncoderConfig, zeros: Callable = np.zeros
) -> NeuralParams:
    """Zero parameters of a `kind` model: the name and shape of every block.

    init_params fills the layout from a seed. `zeros` makes each block from
    its shape tuple; with `tuple` the layout holds the bare shapes, which
    load_model checks against a checkpoint and replaces with its blocks.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    dim, hidden = config.dim, config.hidden
    encoders = [
        EncoderParams(
            tok_emb=zeros((vocab_size, dim)),
            seg_emb=zeros((2, dim)),
            proj_w=zeros((dim, dim)),
            proj_b=zeros((dim,)),
        )
        for _ in range(encoder_count(kind, config))
    ]
    if kind != "path-hier":
        return NeuralParams(encoders, None, cls_w=zeros((2, dim)), cls_b=zeros((2,)))
    shapes = {"w": (hidden, dim), "u": (hidden, hidden), "b": (hidden,)}
    fwd, bwd = ({n: zeros(shapes[n[0]]) for n in GRU_BLOCK_NAMES} for _ in range(2))
    gru = BiGRUParams(fwd=GRUParams(**fwd), bwd=GRUParams(**bwd))
    return NeuralParams(encoders, gru, cls_w=zeros((2, 2 * hidden)), cls_b=zeros((2,)))


def init_params(
    kind: str, vocab_size: int, config: EncoderConfig, seed: int
) -> NeuralParams:
    """The layout with each matrix drawn uniformly in +-1/sqrt(columns), one seeded
    generator in blocks() order; vectors stay zero."""
    params = param_layout(kind, vocab_size, config)
    rng = np.random.default_rng(seed)
    for block in params.blocks().values():
        if block.ndim == 2:
            bound = 1.0 / math.sqrt(block.shape[1])
            block[...] = rng.uniform(-bound, bound, size=block.shape)
    return params


@dataclass
class PackedExample:
    """One example of a PackedDataset: its packed sequences, in reading
    order, their keys and its label."""

    sequences: list[tuple[np.ndarray, np.ndarray]]
    keys: list[int]
    label_index: int


@dataclass
class PackedDataset:
    """Examples packed for the batched kernels.

    `sequences` holds each distinct packed sequence once; its index there
    is its key, so two sequences share a key iff their token ids and
    segments are equal. Row i of `keys` holds example i's keys in reading
    order, padded with -1 past its `counts[i]` sequences. Indexing with an
    int gives that example as a PackedExample; with a slice or an array
    of indices, those examples over the same `sequences`.
    """

    sequences: PackedSequences
    keys: np.ndarray  # examples x most sequences per example
    counts: np.ndarray  # sequences per example
    labels: np.ndarray  # label index per example

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(
        self, index: Union[int, slice, np.ndarray]
    ) -> Union[PackedExample, "PackedDataset"]:
        if isinstance(index, (int, np.integer)):
            keys = self.keys[index, : self.counts[index]].tolist()
            return PackedExample(
                sequences=[self.sequences[key] for key in keys],
                keys=keys,
                label_index=int(self.labels[index]),
            )
        return PackedDataset(
            self.sequences, self.keys[index], self.counts[index], self.labels[index]
        )

    def __iter__(self) -> Iterator[PackedExample]:
        return (self[i] for i in range(len(self)))


def _sequence_texts(kind: str, example: Example, pair_order: str) -> list[tuple[str, ...]]:
    """The claim texts of each sequence the model reads, in reading order.

    pair and path-hier sequences are pairs packed by pack_pair (path-hier
    reads each (parent, child) edge, as pack_path_pairs orders them), and
    the path-flat sequence is the whole path packed by pack_path_flat.
    """
    if isinstance(example, SpecificityExample):
        if kind != "pair":
            raise ValueError("path models need path examples, not claim pairs")
        return [(example.first_text, example.second_text)]
    texts = example.path_texts
    if kind == "pair":
        return [(texts[-1], texts[0])]
    if kind == "path-flat":
        return [tuple(texts)]
    if kind == "path-hier":
        if len(texts) < 2:
            raise ValueError("path must contain at least two claims")
        edges = list(zip(texts, texts[1:]))
        return edges[::-1] if pair_order == "bottom_up" else edges
    raise ValueError(f"unknown model kind {kind!r}")


def pack_dataset(
    kind: str,
    examples: Sequence[Example],
    vocab: EncoderVocab,
    config: EncoderConfig,
    label_names: Sequence[str],
) -> PackedDataset:
    """Pack each distinct edge or path of the examples once.

    Repeated texts share one packed sequence, keyed by the bytes of its
    token ids and segments, so texts that pack alike (unknown tokens map
    to PAD, truncation cuts claims) share a key as well.
    """
    index = {name: i for i, name in enumerate(label_names)}
    by_texts: dict[tuple[str, ...], int] = {}
    by_bytes: dict[bytes, int] = {}
    distinct: list[tuple[np.ndarray, np.ndarray]] = []
    keys: list[int] = []
    counts: list[int] = []
    labels: list[int] = []
    for example in examples:
        label = example.label.value
        if label not in index:
            raise ValueError(f"unknown label {label!r}")
        labels.append(index[label])
        sequence_texts = _sequence_texts(kind, example, config.pair_order)
        for texts in sequence_texts:
            key = by_texts.get(texts)
            if key is None:
                if kind == "path-flat":
                    ids, segments = pack_path_flat(vocab, texts, config.truncate)
                else:
                    ids, segments = pack_pair(vocab, texts[0], texts[1], config.truncate)
                key = by_bytes.setdefault(ids.tobytes() + segments.tobytes(), len(distinct))
                if key == len(distinct):
                    distinct.append((ids, segments))
                by_texts[texts] = key
            keys.append(key)
        counts.append(len(sequence_texts))
    count_array = np.array(counts, dtype=np.int64)
    table = np.full((len(examples), max(counts, default=0)), -1, dtype=np.int64)
    table[np.arange(table.shape[1]) < count_array[:, None]] = keys
    return PackedDataset(
        PackedSequences.concat(distinct), table, count_array, np.array(labels, dtype=np.int64)
    )


# Examples per forward pass in dataset_loss and predict_packed. Larger
# chunks run no faster and hold more memory.
INFERENCE_CHUNK = 128


@dataclass
class Batch:
    """A minibatch laid out for the batched kernels.

    Examples are sorted by sequence count, longest first (`order` holds
    their positions in the input), so the GRU can run only the prefix of
    the batch that is still running. Each distinct (encoder, packed
    sequence) of the batch is encoded once: `groups` holds one
    SequenceBatch per encoder, and their outputs stacked in group order
    form the rows that `slots` gathers from. The slots are the real steps
    in time-major order, the row order of PackedSteps. Within a group the
    rows keep the order in which that walk first reaches them.
    """

    order: np.ndarray
    lengths: np.ndarray
    groups: list[tuple[int, SequenceBatch]]
    slots: np.ndarray
    labels: np.ndarray


def make_batch(params: NeuralParams, packed: PackedDataset) -> Batch:
    order = np.argsort(-packed.counts, kind="stable")
    lengths = packed.counts[order]
    # The real steps in time-major order: step t of every example that has one.
    keys = packed.keys[order, : lengths[0]].T
    real = np.arange(lengths[0])[:, None] < lengths
    step_keys = keys[real]
    encoders = params.encoder_index(np.nonzero(real)[0])
    # The walk reaches the encoders in order, so sorting the distinct
    # (encoder, key) pairs by first sight groups them by encoder as well.
    _, first, inverse = np.unique(
        encoders * len(packed.sequences) + step_keys, return_index=True, return_inverse=True
    )
    seen = np.argsort(first)
    rows = np.empty_like(seen)
    rows[seen] = np.arange(len(seen))
    row_keys = step_keys[first[seen]]
    bounds = np.searchsorted(encoders[first[seen]], np.arange(len(params.encoders) + 1))
    return Batch(
        order=order,
        lengths=lengths,
        groups=[
            (e, batch_sequences(packed.sequences, row_keys[start:stop]))
            for e, (start, stop) in enumerate(zip(bounds, bounds[1:]))
            if stop > start
        ],
        slots=rows[inverse],
        labels=packed.labels[order],
    )


@dataclass
class ForwardCache:
    encode_caches: list[EncodeCache]  # one per entry of Batch.groups
    gru_cache: Optional[BiGRUCache]
    representation: np.ndarray  # examples x features
    probs: np.ndarray  # examples x 2


def forward_batch(kind: str, params: NeuralParams, batch: Batch) -> ForwardCache:
    encode_caches = [encode(params.encoders[e], seqs) for e, seqs in batch.groups]
    states = np.concatenate([cache.h for cache in encode_caches])[batch.slots]
    gru_cache = None
    if kind == "path-hier":
        steps = PackedSteps(values=states, lengths=batch.lengths)
        fwd_states, bwd_states, gru_cache = bigru_forward(params.gru, steps)
        sequences = np.arange(len(batch.lengths))
        representation = np.concatenate(
            [fwd_states[steps.row(batch.lengths - 1, sequences)], bwd_states[sequences]], axis=1
        )
    else:
        representation = states
    logits = representation @ params.cls_w.T + params.cls_b
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return ForwardCache(
        encode_caches=encode_caches,
        gru_cache=gru_cache,
        representation=representation,
        probs=exp / exp.sum(axis=1, keepdims=True),
    )


def backward_batch(
    kind: str, params: NeuralParams, batch: Batch, cache: ForwardCache, grads: NeuralParams
) -> None:
    """Accumulate the gradients of the batch's mean cross-entropy."""
    dlogits = cache.probs.copy()
    dlogits[np.arange(len(batch.labels)), batch.labels] -= 1.0
    dlogits /= len(batch.labels)
    grads.cls_w += dlogits.T @ cache.representation
    grads.cls_b += dlogits.sum(axis=0)
    drep = dlogits @ params.cls_w
    if kind == "path-hier":
        hidden = params.gru.fwd.hidden
        steps = cache.gru_cache.fwd.steps
        sequences = np.arange(len(batch.lengths))
        dh_fwd = np.zeros((len(steps), hidden))
        dh_bwd = np.zeros_like(dh_fwd)
        dh_fwd[steps.row(batch.lengths - 1, sequences)] = drep[:, :hidden]
        dh_bwd[sequences] = drep[:, hidden:]
        drep = bigru_backward(params.gru, cache.gru_cache, dh_fwd, dh_bwd, grads.gru)
    # Sum the gradients of slots that share an encoded sequence.
    order = np.argsort(batch.slots, kind="stable")
    _, starts = np.unique(batch.slots[order], return_index=True)
    dstates = np.add.reduceat(drep[order], starts, axis=0)
    start = 0
    for (e, _), encode_cache in zip(batch.groups, cache.encode_caches):
        stop = start + encode_cache.h.shape[0]
        encode_backward(params.encoders[e], encode_cache, dstates[start:stop], grads.encoders[e])
        start = stop


def _cross_entropy_sum(cache: ForwardCache, labels: np.ndarray) -> float:
    picked = cache.probs[np.arange(len(labels)), labels]
    return -float(np.log(picked + 1e-12).sum())


def _l2_penalty(params: NeuralParams, l2: float) -> float:
    if l2 == 0.0:
        return 0.0
    total = 0.0
    for block in params.blocks().values():
        if block.ndim == 2:
            total += float((block * block).sum())
    return 0.5 * l2 * total


@dataclass
class GradientBuffer:
    """Gradients of `params`, each block paired with its parameter block once.

    The training loop keeps one buffer for all its minibatches; `pairs`
    holds (parameter, gradient) per block, in the canonical order.
    """

    grads: NeuralParams
    pairs: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def for_params(cls, params: NeuralParams) -> "GradientBuffer":
        grads = params.zeros_like()
        return cls(grads, list(zip(params.blocks().values(), grads.blocks().values())))


def batch_loss_and_grads(
    kind: str,
    params: NeuralParams,
    batch: PackedDataset,
    l2: float,
    buffer: Optional[GradientBuffer] = None,
) -> tuple[Optional[float], NeuralParams]:
    """Mean cross-entropy over the batch plus L2 on 2-D blocks, and its gradients.

    Given a `buffer` for `params`, the gradients overwrite its blocks and
    the loss is not computed (None): the training loop reuses one buffer
    and reads only gradients.
    """
    want_loss = buffer is None
    if buffer is None:
        buffer = GradientBuffer.for_params(params)
    else:
        for _, gblock in buffer.pairs:
            gblock.fill(0.0)
    laid_out = make_batch(params, batch)
    cache = forward_batch(kind, params, laid_out)
    backward_batch(kind, params, laid_out, cache, buffer.grads)
    if l2 != 0.0:
        for block, gblock in buffer.pairs:
            if gblock.ndim == 2:
                gblock += l2 * block
    if not want_loss:
        return None, buffer.grads
    data_loss = _cross_entropy_sum(cache, laid_out.labels) / len(batch)
    return data_loss + _l2_penalty(params, l2), buffer.grads


def inference_chunks(params: NeuralParams, packed: PackedDataset) -> Iterator[Batch]:
    """The examples laid out INFERENCE_CHUNK at a time, in order.

    The layout depends on the parameters' shapes only, so a caller that
    scores the same examples again can keep the list and pass it as
    `chunks` to dataset_loss and predict_packed.
    """
    for start in range(0, len(packed), INFERENCE_CHUNK):
        yield make_batch(params, packed[start : start + INFERENCE_CHUNK])


def dataset_loss(
    kind: str,
    params: NeuralParams,
    packed: PackedDataset,
    l2: float,
    chunks: Optional[Sequence[Batch]] = None,
) -> float:
    total = 0.0
    for batch in inference_chunks(params, packed) if chunks is None else chunks:
        total += _cross_entropy_sum(forward_batch(kind, params, batch), batch.labels)
    return total / len(packed) + _l2_penalty(params, l2)


def predict_packed(
    kind: str,
    params: NeuralParams,
    packed: PackedDataset,
    chunks: Optional[Sequence[Batch]] = None,
) -> np.ndarray:
    out = np.zeros(len(packed), dtype=np.int64)
    batches = inference_chunks(params, packed) if chunks is None else chunks
    for start, batch in zip(range(0, len(packed), INFERENCE_CHUNK), batches):
        out[start + batch.order] = np.argmax(forward_batch(kind, params, batch).probs, axis=1)
    return out


@dataclass
class NeuralModel:
    kind: str
    task: str
    label_names: list[str]
    vocab: EncoderVocab
    encoder_config: EncoderConfig
    params: NeuralParams
    seed: int
    history: list[EpochStats] = field(default_factory=list)

    def predict_labels(self, data: FeatureTable | Sequence[Example]) -> list[str]:
        if isinstance(data, FeatureTable):
            raise ValueError("neural evaluation needs a derived-pairs file (it reads texts)")
        packed = pack_dataset(self.kind, data, self.vocab, self.encoder_config, self.label_names)
        indices = predict_packed(self.kind, self.params, packed)
        return [self.label_names[i] for i in indices]


def train_neural(
    kind: str,
    task: str,
    train_examples: Sequence[Example],
    dev_examples: Optional[Sequence[Example]] = None,
    encoder_config: Optional[EncoderConfig] = None,
    train_config: Optional[TrainConfig] = None,
) -> NeuralModel:
    encoder_config = encoder_config or EncoderConfig()
    encoder_config.validate()
    train_config = train_config or neural_train_config()
    train_config.validate()
    if not train_examples:
        raise ValueError("no training examples")
    vocab = build_encoder_vocab(
        (text for example in train_examples for text in example_texts(example)),
        min_count=encoder_config.min_count,
    )
    label_names = sorted({example.label.value for example in train_examples})
    if len(label_names) != 2:
        raise ValueError(f"expected exactly 2 classes, got {label_names}")
    packed_train = pack_dataset(kind, train_examples, vocab, encoder_config, label_names)
    packed_dev = None
    if dev_examples:
        packed_dev = pack_dataset(kind, dev_examples, vocab, encoder_config, label_names)

    params = init_params(kind, vocab.size, encoder_config, train_config.seed)
    train_chunks = list(inference_chunks(params, packed_train))
    dev_chunks = list(inference_chunks(params, packed_dev)) if packed_dev is not None else None
    buffer = GradientBuffer.for_params(params)  # overwritten by every minibatch

    def step(batch_indices: np.ndarray) -> None:
        batch_loss_and_grads(kind, params, packed_train[batch_indices], train_config.l2, buffer)
        for block, gblock in buffer.pairs:
            block -= train_config.learning_rate * gblock

    def dev_accuracy() -> float:
        predictions = predict_packed(kind, params, packed_dev, dev_chunks)
        return float(np.mean(predictions == packed_dev.labels))

    best_params, history = fit(
        train_config,
        len(packed_train),
        step,
        epoch_loss=lambda: dataset_loss(kind, params, packed_train, train_config.l2, train_chunks),
        dev_accuracy=dev_accuracy if packed_dev is not None else None,
        snapshot=lambda: copy.deepcopy(params),
    )
    return NeuralModel(
        kind=kind,
        task=task,
        label_names=label_names,
        vocab=vocab,
        encoder_config=encoder_config,
        params=best_params,
        seed=train_config.seed,
        history=history,
    )
