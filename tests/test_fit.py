"""The shared training driver, run on fake callbacks: no model trains here."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest

from argtree.models.config import (
    DIVERGENCE_EPOCHS,
    DIVERGENCE_FACTOR,
    TrainConfig,
    TrainingDivergedError,
    fit,
)


class FakeRun:
    """Scripted epoch losses and dev accuracies; the state is the number of finished epochs."""

    def __init__(self, losses: Sequence[float], accuracies: Optional[Sequence[float]] = None):
        self.losses = list(losses)
        self.accuracies = None if accuracies is None else list(accuracies)
        self.epochs = 0
        self.batches: list[list[int]] = []
        self.snapshots = 0

    def step(self, batch: np.ndarray) -> None:
        self.batches.append(batch.tolist())

    def epoch_loss(self) -> float:
        self.epochs += 1
        return self.losses[self.epochs - 1]

    def dev_accuracy(self) -> float:
        return self.accuracies[self.epochs - 1]

    def snapshot(self) -> int:
        self.snapshots += 1
        return self.epochs

    def fit(self, n: int = 5, **config):
        config.setdefault("max_epochs", len(self.losses))
        dev = None if self.accuracies is None else self.dev_accuracy
        return fit(TrainConfig(**config), n, self.step, self.epoch_loss, dev, self.snapshot)


def test_batches_slice_one_seeded_permutation_per_epoch():
    run = FakeRun([1.0, 1.0])
    run.fit(n=7, batch_size=3, seed=4)
    rng = np.random.default_rng(4)
    for epoch in range(2):
        order = rng.permutation(7).tolist()
        assert run.batches[3 * epoch : 3 * epoch + 3] == [order[0:3], order[3:6], order[6:7]]
    assert len(run.batches) == 6


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_loss_raises_at_its_epoch(bad):
    run = FakeRun([1.0, bad, 1.0])
    with pytest.raises(TrainingDivergedError, match="non-finite loss at epoch 2"):
        run.fit()
    assert run.epochs == 2


def test_divergence_guard_needs_consecutive_high_epochs():
    high = DIVERGENCE_FACTOR * 1.0 + 1.0
    # One epoch short of the streak, a recovery that resets it, then exactly at the
    # factor (not above it), then the full streak.
    losses = (
        [1.0] + [high] * (DIVERGENCE_EPOCHS - 1) + [1.0] + [DIVERGENCE_FACTOR]
        + [high] * DIVERGENCE_EPOCHS + [1.0]
    )
    run = FakeRun(losses)
    with pytest.raises(TrainingDivergedError, match="consecutive epochs"):
        run.fit()
    assert run.epochs == len(losses) - 1


def test_divergence_is_measured_against_the_first_epoch():
    # No loss is far above the one before it, but the last ones are above the factor
    # times the first.
    high = DIVERGENCE_FACTOR * 1.0 + 1.0
    run = FakeRun([1.0, high / 2] + [high] * DIVERGENCE_EPOCHS)
    with pytest.raises(TrainingDivergedError):
        run.fit()
    assert run.epochs == 2 + DIVERGENCE_EPOCHS


def test_patience_stops_after_epochs_without_a_gain():
    run = FakeRun([1.0] * 6, accuracies=[0.5, 0.6, 0.6, 0.55, 0.9, 0.9])
    state, history = run.fit(patience=2)
    assert len(history) == 4
    assert [h.dev_accuracy for h in history] == [0.5, 0.6, 0.6, 0.55]
    assert state == 2


def test_zero_patience_never_stops():
    run = FakeRun([1.0] * 5, accuracies=[0.9, 0.1, 0.1, 0.1, 0.1])
    state, history = run.fit(patience=0)
    assert len(history) == 5
    assert state == 1


def test_best_snapshot_only_on_strict_improvement():
    run = FakeRun([1.0] * 5, accuracies=[0.5, 0.5, 0.7, 0.7, 0.6])
    state, history = run.fit(patience=0)
    assert state == 3  # the tie at epoch 2 and 4 does not replace the earlier snapshot
    assert run.snapshots == 2
    assert [h.epoch for h in history] == [1, 2, 3, 4, 5]


def test_no_dev_returns_the_state_after_the_last_epoch():
    run = FakeRun([3.0, 2.0, 1.0])
    state, history = run.fit(patience=1)
    assert state == 3
    assert run.snapshots == 1
    assert [(h.train_loss, h.dev_accuracy) for h in history] == [(3.0, None), (2.0, None), (1.0, None)]
