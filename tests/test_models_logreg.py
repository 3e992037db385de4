"""Logistic regression: gradients, training behavior, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from argtree.features import FeatureRecord, FeatureSchema, FeatureTable
from argtree.models import TrainConfig, TrainingDivergedError, train_logreg
from argtree.models.logreg import (
    _sigmoid,
    design_matrix,
    label_vector,
    loss_and_grad,
    standardization_stats,
)


def _schema(n_sparse: int = 3, dense=("bias_feat",)) -> FeatureSchema:
    return FeatureSchema(
        task="specificity",
        feature_set="both",
        sparse_names=[f"tok{i}" for i in range(n_sparse)],
        dense_names=list(dense),
    )


def _record(label: str, sparse: dict[int, float], dense_value: float, topic="t0") -> FeatureRecord:
    return FeatureRecord(
        label=label,
        sparse=sparse,
        dense={"bias_feat": dense_value},
        topic_id=topic,
        distance=1,
        same_stance=None,
    )


SEPARABLE_RECORDS = [
    _record("neg", {0: 2.0}, -1.0),
    _record("neg", {0: 1.0, 1: 1.0}, -0.5),
    _record("neg", {0: 3.0}, -1.5),
    _record("pos", {2: 2.0}, 1.0),
    _record("pos", {1: -1.0, 2: 1.0}, 0.5),
    _record("pos", {2: 3.0}, 1.2),
]
SEPARABLE = FeatureTable.from_records(_schema(), SEPARABLE_RECORDS)


def test_standardization_stats_zero_std_guard():
    schema = _schema(dense=("constant",))
    records = FeatureTable.from_records(schema, [
        FeatureRecord("a", {}, {"constant": 4.0}, "t", 1, None),
        FeatureRecord("b", {}, {"constant": 4.0}, "t", 1, None),
    ])
    mean, std = standardization_stats(records)
    assert mean[0] == pytest.approx(4.0)
    assert std[0] == 1.0  # zero spread maps to unit scale, not division by zero


def test_design_matrix_layout():
    schema = _schema()
    records = FeatureTable.from_records(schema, SEPARABLE_RECORDS[:2])
    mean, std = standardization_stats(records)
    X = design_matrix(records, mean, std)
    assert X.shape == (2, 4)  # 3 sparse + 1 dense
    dense_col = X.toarray()[:, 3]
    assert dense_col == pytest.approx((np.array([-1.0, -0.5]) - mean[0]) / std[0])
    assert X.toarray()[0, 0] == 2.0


def test_label_vector_uses_sorted_positive_class():
    y = label_vector(SEPARABLE, ["neg", "pos"])
    assert y.tolist() == [0, 0, 0, 1, 1, 1]
    with pytest.raises(ValueError):
        other = FeatureTable.from_records(_schema(), [_record("other", {}, 0.0)])
        label_vector(other, ["neg", "pos"])


def test_sigmoid_has_the_bits_of_the_where_form():
    """In place or not, _sigmoid gives what exp(-|z|) and np.where give.

    A NaN stays NaN; its sign bit is left to the platform's ufunc loops.
    """
    rng = np.random.default_rng(0)
    z = np.concatenate(
        [
            rng.normal(scale=20.0, size=500),
            [0.0, -0.0, np.nan, np.inf, -np.inf, 745.0, -745.0, 1e-300, -1e-300],
        ]
    )
    e = np.exp(-np.abs(z))
    expected = np.where(z >= 0, 1.0, e) / (1.0 + e)
    in_place = z.copy()
    _sigmoid(in_place, out=in_place, work=np.empty_like(z))
    for got in (_sigmoid(z), in_place):
        assert np.array_equal(np.isnan(got), np.isnan(z))
        number = ~np.isnan(z)
        assert got[number].tobytes() == expected[number].tobytes()


def test_first_gradient_step_from_zero_weights():
    """With zero weights every probability is one half, so the gradient is
    the mean of (0.5 - y) times the feature row."""
    mean, std = standardization_stats(SEPARABLE)
    X = design_matrix(SEPARABLE, mean, std)
    y = label_vector(SEPARABLE, ["neg", "pos"])
    w = np.zeros(4)
    loss, grad_w, grad_b = loss_and_grad(X, y, w, 0.0, l2=0.0)
    assert loss == pytest.approx(np.log(2.0))
    expected = np.asarray(X.T @ ((0.5 - y) / len(y))).ravel()
    assert grad_w == pytest.approx(expected)
    assert grad_b == pytest.approx(float(np.mean(0.5 - y)))


def test_l2_penalty_enters_loss_and_grad():
    mean, std = standardization_stats(SEPARABLE)
    X = design_matrix(SEPARABLE, mean, std)
    y = label_vector(SEPARABLE, ["neg", "pos"])
    w = np.ones(4)
    loss_plain, grad_plain, _ = loss_and_grad(X, y, w, 0.0, l2=0.0)
    loss_l2, grad_l2, _ = loss_and_grad(X, y, w, 0.0, l2=0.5)
    assert loss_l2 == pytest.approx(loss_plain + 0.25 * 4)
    assert grad_l2 == pytest.approx(grad_plain + 0.5 * w)


def test_training_separates_separable_data():
    model = train_logreg(
        SEPARABLE, SEPARABLE,
        TrainConfig(learning_rate=0.5, max_epochs=60, patience=0, seed=0),
    )
    predictions = model.predict_labels(SEPARABLE)
    assert predictions == [r.label for r in SEPARABLE_RECORDS]
    assert model.label_names == ["neg", "pos"]


def test_training_is_seed_deterministic():
    config = TrainConfig(learning_rate=0.2, max_epochs=8, patience=0, seed=5)
    a = train_logreg(SEPARABLE, SEPARABLE, config)
    b = train_logreg(SEPARABLE, SEPARABLE, config)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert [(h.epoch, h.train_loss, h.dev_accuracy) for h in a.history] == [
        (h.epoch, h.train_loss, h.dev_accuracy) for h in b.history
    ]


def test_divergent_learning_rate_raises():
    # lr * l2 > 2 flips and grows the weights every step.
    config = TrainConfig(learning_rate=1e3, l2=1.0, batch_size=2, max_epochs=6)
    with pytest.raises(TrainingDivergedError):
        train_logreg(SEPARABLE, config=config)


def test_training_rejects_single_class():
    only_pos = FeatureTable.from_records(
        _schema(), [r for r in SEPARABLE_RECORDS if r.label == "pos"]
    )
    with pytest.raises(ValueError, match="single class"):
        train_logreg(only_pos, only_pos, TrainConfig())


def test_top_features_ranked_by_magnitude():
    model = train_logreg(
        SEPARABLE, SEPARABLE,
        TrainConfig(learning_rate=0.5, max_epochs=40, patience=0, seed=0),
    )
    tops = model.top_features(2)
    names = [name for name, _ in tops]
    assert len(tops) == 2
    weight_by_name = dict(model.top_features(4))
    assert abs(weight_by_name[names[0]]) >= abs(weight_by_name[names[1]])


def test_early_stopping_respects_patience():
    config = TrainConfig(learning_rate=0.5, max_epochs=50, patience=1, seed=0)
    model = train_logreg(SEPARABLE, SEPARABLE, config)
    # Dev accuracy saturates at 1.0 quickly; patience one stops the run
    # on the first epoch that fails to improve.
    assert len(model.history) < 50
