"""Training and architecture configuration dataclasses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

DEFAULT_LOGREG_LR = 0.01
DEFAULT_NEURAL_LR = 0.001

DIVERGENCE_FACTOR = 10.0
DIVERGENCE_EPOCHS = 2


class TrainingDivergedError(RuntimeError):
    """Raised when the loss blows up or becomes NaN/Inf."""


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_accuracy: Optional[float]


@dataclass
class TrainConfig:
    learning_rate: float = DEFAULT_LOGREG_LR
    l2: float = 1e-4
    batch_size: int = 64
    max_epochs: int = 5
    patience: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        if self.patience < 0:
            raise ValueError("patience must be non-negative (0 disables early stopping)")


State = TypeVar("State")


def fit(
    config: TrainConfig,
    n: int,
    step: Callable[[np.ndarray], None],
    epoch_loss: Callable[[], float],
    dev_accuracy: Optional[Callable[[], float]],
    snapshot: Callable[[], State],
) -> tuple[State, list[EpochStats]]:
    """Seeded mini-batch descent with a divergence guard and best-dev checkpointing.

    Each epoch shuffles range(n) with the seeded generator and calls `step`
    on every batch_size slice of the order, then reads `epoch_loss()`. A
    non-finite loss, or one above DIVERGENCE_FACTOR times the first epoch's
    for DIVERGENCE_EPOCHS epochs in a row, raises TrainingDivergedError.
    With `dev_accuracy`, the result is the `snapshot()` taken at the last
    strict improvement of dev accuracy, and training stops after `patience`
    epochs without one (0 never stops); without it, the state after the
    last epoch.
    """
    rng = np.random.default_rng(config.seed)
    history: list[EpochStats] = []
    best: Optional[State] = None
    best_dev = -1.0
    stale = 0
    initial_loss: Optional[float] = None
    high_loss_streak = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            step(order[start : start + config.batch_size])
        loss = epoch_loss()
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        if initial_loss is None:
            initial_loss = loss
        if loss > DIVERGENCE_FACTOR * initial_loss:
            high_loss_streak += 1
            if high_loss_streak >= DIVERGENCE_EPOCHS:
                raise TrainingDivergedError(
                    f"loss {loss:.4f} exceeded {DIVERGENCE_FACTOR}x the initial "
                    f"loss for {DIVERGENCE_EPOCHS} consecutive epochs"
                )
        else:
            high_loss_streak = 0

        accuracy = None if dev_accuracy is None else dev_accuracy()
        history.append(EpochStats(epoch=epoch, train_loss=loss, dev_accuracy=accuracy))
        if accuracy is None:
            continue
        if accuracy > best_dev:
            best_dev = accuracy
            best = snapshot()
            stale = 0
        else:
            stale += 1
            if config.patience and stale >= config.patience:
                break

    if dev_accuracy is None:
        best = snapshot()
    return best, history


def neural_train_config(**overrides) -> TrainConfig:
    config = TrainConfig(learning_rate=DEFAULT_NEURAL_LR)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


@dataclass
class EncoderConfig:
    dim: int = 64
    hidden: int = 128
    truncate: int = 64
    pair_order: str = "top_down"
    share_encoder: bool = True
    max_positions: int = 8
    min_count: int = 2

    def validate(self) -> None:
        if self.dim < 1 or self.hidden < 1 or self.truncate < 1:
            raise ValueError("dim, hidden and truncate must be positive")
        if self.pair_order not in ("top_down", "bottom_up"):
            raise ValueError(f"pair_order must be top_down or bottom_up, got {self.pair_order!r}")
        if self.max_positions < 1:
            raise ValueError("max_positions must be positive")
