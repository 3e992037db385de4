"""Model zoo: baselines, logistic regression and neural pair/path models.

save_model / load_model give every model one on-disk representation (see
checkpoint.py) keyed by a kind string: majority, length, logreg, pair,
path-flat or path-hier.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Union

import numpy as np

from .baselines import LengthBaseline, MajorityBaseline, length_predict, majority_fit
from .checkpoint import (
    CheckpointFormatError,
    dump_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .config import (
    EncoderConfig,
    EpochStats,
    TrainConfig,
    TrainingDivergedError,
    neural_train_config,
)
from .encoder import EncoderParams, EncoderVocab, build_encoder_vocab
from .gradcheck import (
    LOGREG_TOLERANCE,
    NEURAL_TOLERANCE,
    GradCheckResult,
    gradcheck_logreg,
    gradcheck_neural,
)
from .gru import GRU_BLOCK_NAMES, BiGRUParams, GRUParams
from .logreg import LogisticRegressionModel, train_logreg
from .neural import MODEL_KINDS, NeuralModel, NeuralParams, train_neural

AnyModel = Union[MajorityBaseline, LengthBaseline, LogisticRegressionModel, NeuralModel]

__all__ = [
    "AnyModel",
    "BiGRUParams",
    "CheckpointFormatError",
    "EncoderConfig",
    "EncoderParams",
    "EncoderVocab",
    "EpochStats",
    "GradCheckResult",
    "GRUParams",
    "GRU_BLOCK_NAMES",
    "LengthBaseline",
    "LogisticRegressionModel",
    "LOGREG_TOLERANCE",
    "MajorityBaseline",
    "MODEL_KINDS",
    "NeuralModel",
    "NeuralParams",
    "NEURAL_TOLERANCE",
    "TrainConfig",
    "TrainingDivergedError",
    "build_encoder_vocab",
    "dump_checkpoint",
    "gradcheck_logreg",
    "gradcheck_neural",
    "length_predict",
    "load_model",
    "majority_fit",
    "model_payload",
    "neural_train_config",
    "read_checkpoint",
    "save_model",
    "train_logreg",
    "train_neural",
    "write_checkpoint",
]


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
    kind, seed, blocks, meta = model_payload(model)
    write_checkpoint(path, kind, seed, blocks, meta)


class _Entries(dict):
    """One section of a checkpoint; looking up an entry it lacks is a format error."""

    def __init__(self, what: str, entries: dict):
        super().__init__(entries)
        self.what = what

    def __missing__(self, key: str):
        raise CheckpointFormatError(f"missing {self.what} {key!r}")


def _neural_params_from_blocks(blocks: _Entries, hier: bool) -> NeuralParams:
    if "enc/tok_emb" in blocks:
        prefixes = ["enc"]
    else:
        ids = sorted(
            int(name[3:].split("/")[0]) for name in blocks if name.startswith("enc") and "/tok_emb" in name
        )
        prefixes = [f"enc{i}" for i in ids]
    if not prefixes:
        raise CheckpointFormatError("checkpoint has no encoder blocks")
    encoders = [
        EncoderParams(
            tok_emb=blocks[f"{p}/tok_emb"],
            seg_emb=blocks[f"{p}/seg_emb"],
            proj_w=blocks[f"{p}/proj_w"],
            proj_b=blocks[f"{p}/proj_b"],
        )
        for p in prefixes
    ]
    gru = None
    if hier:
        gru = BiGRUParams(
            fwd=GRUParams(**{n: blocks[f"gru_fwd/{n}"] for n in GRU_BLOCK_NAMES}),
            bwd=GRUParams(**{n: blocks[f"gru_bwd/{n}"] for n in GRU_BLOCK_NAMES}),
        )
    return NeuralParams(encoders=encoders, gru=gru, cls_w=blocks["cls/w"], cls_b=blocks["cls/b"])


def load_model(path: str) -> AnyModel:
    """Load any checkpoint that save_model writes.

    A block or meta key that the model needs and the file lacks is a
    CheckpointFormatError that names the file and the entry.
    """
    kind, seed, blocks, meta = read_checkpoint(path)
    try:
        return _model_from(kind, seed, _Entries("block", blocks), _Entries("meta key", meta))
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from None


def _model_from(kind: str, seed: int, blocks: _Entries, meta: _Entries) -> AnyModel:
    if kind == "majority":
        return MajorityBaseline(
            label=meta["label"],
            counts={k: int(v) for k, v in meta["counts"].items()},
            task=meta["task"],
        )
    if kind == "length":
        return LengthBaseline(task=meta["task"])
    if kind == "logreg":
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
        raw = _Entries("encoder_config key", meta["encoder_config"])
        types = typing.get_type_hints(EncoderConfig)
        config = EncoderConfig(**{name: cast(raw[name]) for name, cast in types.items()})
        return NeuralModel(
            kind=kind,
            task=meta["task"],
            label_names=list(meta["label_names"]),
            vocab=EncoderVocab(tokens=list(meta["tokens"])),
            encoder_config=config,
            params=_neural_params_from_blocks(blocks, hier=kind == "path-hier"),
            seed=seed,
            history=_history_from_meta(meta.get("history", [])),
        )
    raise CheckpointFormatError(f"unknown model kind {kind!r}")
