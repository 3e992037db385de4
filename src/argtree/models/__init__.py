"""Model zoo: baselines, logistic regression and neural pair/path models.

save_model / load_model give every model one on-disk representation (see
checkpoint.py) keyed by a kind string: majority, length, logreg, pair,
path-flat or path-hier.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Callable, Union

import numpy as np

from .baselines import LengthBaseline, MajorityBaseline, length_predict, majority_fit
from .checkpoint import CheckpointFormatError, dump_checkpoint, read_checkpoint
from .config import (
    EncoderConfig,
    EpochStats,
    TrainConfig,
    TrainingDivergedError,
    neural_train_config,
)
from .encoder import EncoderVocab
from .gradcheck import LOGREG_TOLERANCE, NEURAL_TOLERANCE, gradcheck_logreg, gradcheck_neural
from .logreg import LogisticRegressionModel, train_logreg
from .neural import MODEL_KINDS, NeuralModel, encoder_count, param_layout, train_neural

AnyModel = Union[MajorityBaseline, LengthBaseline, LogisticRegressionModel, NeuralModel]


def _history_to_meta(history: list[EpochStats]) -> list[list]:
    return [[h.epoch, h.train_loss, h.dev_accuracy] for h in history]


def _history_from_meta(rows: list) -> list[EpochStats]:
    return [
        EpochStats(epoch=int(e), train_loss=float(l), dev_accuracy=None if d is None else float(d))
        for e, l, d in rows
    ]


def model_payload(model: AnyModel) -> tuple[str, int, dict[str, np.ndarray], dict]:
    """(kind, seed, blocks, meta) — everything a checkpoint stores."""
    if isinstance(model, MajorityBaseline):
        meta = {"task": model.task, "label": model.label, "counts": model.counts}
        return "majority", 0, {}, meta
    if isinstance(model, LengthBaseline):
        return "length", 0, {}, {"task": model.task}
    if isinstance(model, LogisticRegressionModel):
        blocks = {
            "weights": model.weights,
            "bias": np.array([model.bias]),
            "dense_mean": model.dense_mean,
            "dense_std": model.dense_std,
        }
        meta = {
            "task": model.task,
            "feature_set": model.feature_set,
            "label_names": model.label_names,
            "sparse_names": model.sparse_names,
            "dense_names": model.dense_names,
            "history": _history_to_meta(model.history),
        }
        return "logreg", model.seed, blocks, meta
    if isinstance(model, NeuralModel):
        meta = {
            "task": model.task,
            "label_names": model.label_names,
            "tokens": model.vocab.tokens,
            "encoder_config": dataclasses.asdict(model.encoder_config),
            "history": _history_to_meta(model.history),
        }
        return model.kind, model.seed, model.params.blocks(), meta
    raise TypeError(f"cannot save model of type {type(model).__name__}")


def save_model(model: AnyModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        dump_checkpoint(handle, *model_payload(model))


class _Entries(dict):
    """One section of a checkpoint; looking up an entry it lacks is a format error."""

    def __init__(self, what: str, entries: dict):
        super().__init__(entries)
        self.what = what

    def __missing__(self, key: str):
        raise CheckpointFormatError(f"missing {self.what} {key!r}")

    def check_types(self, types: dict[str, tuple[Callable[[object], bool], str]]) -> "_Entries":
        """Self, once each entry that `types` names and the section holds is
        valid; one that is not is a format error naming it."""
        for key, (valid, what) in types.items():
            if key in self and not valid(self[key]):
                raise CheckpointFormatError(f"{self.what} {key!r} must be {what}")
        return self


def _of(kind: type) -> Callable[[object], bool]:
    return lambda value: isinstance(value, kind)


def _list_of(kind: type) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _is_history(rows: object) -> bool:
    number, accuracy = _list_of((int, float)), _list_of((int, float, type(None)))
    return _list_of(list)(rows) and all(
        len(row) == 3 and number(row[:2]) and accuracy(row[2:]) for row in rows
    )


_META_TYPES = {
    **dict.fromkeys(("task", "label", "feature_set"), (_of(str), "a string")),
    **dict.fromkeys(
        ("label_names", "sparse_names", "dense_names", "tokens"),
        (_list_of(str), "a list of strings"),
    ),
    "counts": (lambda c: _of(dict)(c) and _list_of(int)(list(c.values())), "an object of counts"),
    "history": (_is_history, "a list of [epoch, loss, accuracy] rows"),
    "encoder_config": (_of(dict), "an object"),
}


def _check_shapes(shapes: dict[str, tuple], blocks: _Entries) -> None:
    """Every block of the layout `shapes` is in the file with its shape, and
    no other block is. Shapes compare as the file's rows x columns: the
    reader gives a one-row block as a vector."""
    extra = [name for name in blocks if name not in shapes]
    if extra:
        raise CheckpointFormatError(f"unexpected block {extra[0]!r}")
    for name, shape in shapes.items():
        got, want = np.atleast_2d(blocks[name]).shape, ((1,) + shape)[-2:]
        if got != want:
            raise CheckpointFormatError(
                f"block {name!r} is {got[0]} x {got[1]}, expected {want[0]} x {want[1]}"
            )


def load_model(path: str) -> AnyModel:
    """Load any checkpoint that save_model writes.

    The model's layout (param_layout for the neural kinds) comes from its
    meta and is filled from the blocks. A meta key the model needs and the
    file lacks or holds with a value of the wrong type (_META_TYPES), and a
    block that is missing, extra or of another shape, is a
    CheckpointFormatError that names the file and the entry; an
    encoder_config that EncoderConfig.validate rejects is one that names
    the file.
    """
    kind, seed, blocks, meta = read_checkpoint(path)
    try:
        meta = _Entries("meta key", meta).check_types(_META_TYPES)
        return _model_from(kind, seed, _Entries("block", blocks), meta)
    except ValueError as exc:  # CheckpointFormatError among them
        raise CheckpointFormatError(f"{path}: {exc}") from None


def _model_from(kind: str, seed: int, blocks: _Entries, meta: _Entries) -> AnyModel:
    if kind == "majority":
        _check_shapes({}, blocks)
        return MajorityBaseline(
            label=meta["label"],
            counts={k: int(v) for k, v in meta["counts"].items()},
            task=meta["task"],
        )
    if kind == "length":
        _check_shapes({}, blocks)
        return LengthBaseline(task=meta["task"])
    if kind == "logreg":
        dense = (len(meta["dense_names"]),)
        weights = (len(meta["sparse_names"]) + dense[0],)
        _check_shapes(dict(weights=weights, bias=(1,), dense_mean=dense, dense_std=dense), blocks)
        return LogisticRegressionModel(
            task=meta["task"],
            feature_set=meta["feature_set"],
            sparse_names=list(meta["sparse_names"]),
            dense_names=list(meta["dense_names"]),
            label_names=list(meta["label_names"]),
            weights=blocks["weights"],
            bias=float(blocks["bias"][0]),
            dense_mean=blocks["dense_mean"],
            dense_std=blocks["dense_std"],
            seed=seed,
            history=_history_from_meta(meta.get("history", [])),
        )
    if kind in MODEL_KINDS:
        types = typing.get_type_hints(EncoderConfig)
        raw = _Entries("encoder_config key", meta["encoder_config"])
        raw.check_types({name: (_of(t), t.__name__) for name, t in types.items()})
        config = EncoderConfig(**{name: cast(raw[name]) for name, cast in types.items()})
        config.validate()
        vocab = EncoderVocab(tokens=list(meta["tokens"]))
        # The meta's sizes must fit the file's blocks before the layout is allocated.
        if (encoders := encoder_count(kind, config)) > len(blocks):
            raise CheckpointFormatError(f"encoder_config asks for {encoders} encoders")
        params = param_layout(kind, vocab.size, config, zeros=tuple)
        _check_shapes(params.blocks(), blocks)
        for name, holder, attribute in params.slots():
            setattr(holder, attribute, blocks[name].reshape(getattr(holder, attribute)))
        return NeuralModel(
            kind=kind,
            task=meta["task"],
            label_names=list(meta["label_names"]),
            vocab=vocab,
            encoder_config=config,
            params=params,
            seed=seed,
            history=_history_from_meta(meta.get("history", [])),
        )
    raise CheckpointFormatError(f"unknown model kind {kind!r}")
