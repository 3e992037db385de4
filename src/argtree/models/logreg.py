"""Binary logistic regression over sparse + dense feature blocks.

The design matrix is CSR: bag-of-words differences occupy the leading
columns, dense features (standardized with training-split statistics)
the trailing ones. A single weight vector spans both blocks; the bias is
excluded from the L2 penalty. Labels are the two class names in sorted
order; the second one is the positive class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional, Sequence

import numpy as np

from ..features import FeatureTable, csr_matrix, index_dtype
from .config import EpochStats, TrainConfig, fit

if TYPE_CHECKING:
    import scipy.sparse as sp


def standardization_stats(table: FeatureTable) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std per dense feature; zero-variance features get std 1."""
    k = table.dense.shape[1]
    if not len(table):
        return np.zeros(k), np.ones(k)
    std = table.dense.std(axis=0)
    return table.dense.mean(axis=0), np.where(std == 0.0, 1.0, std)


def design_matrix(
    table: FeatureTable, dense_mean: np.ndarray, dense_std: np.ndarray
) -> sp.csr_matrix:
    """Each row holds its sparse entries, then every standardized dense value.

    A dense value that standardizes to zero is still a stored entry, so
    every row has the same number of dense entries.
    """
    sparse = table.sparse
    n, k = table.dense.shape
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.diff(sparse.indptr) + k, out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=index_dtype(n, sparse.shape[1] + k, indptr[-1]))
    dense_at = (indptr[1:] - k)[:, None] + np.arange(k)
    # the sparse entries, in order, fill every place the dense entries leave
    is_sparse = np.ones(indptr[-1], dtype=bool)
    is_sparse[dense_at] = False
    data[is_sparse] = sparse.data
    indices[is_sparse] = sparse.indices
    data[dense_at] = (table.dense - dense_mean) / dense_std
    indices[dense_at] = sparse.shape[1] + np.arange(k)
    return csr_matrix((data, indices, indptr), shape=(n, sparse.shape[1] + k))


def label_vector(table: FeatureTable, label_names: Sequence[str]) -> np.ndarray:
    if len(label_names) != 2:
        raise ValueError(f"expected exactly 2 classes, got {list(label_names)}")
    unknown = [label for label in table.labels if label not in label_names]
    if unknown:
        raise ValueError(f"unknown label {unknown[0]!r}")
    return (np.array(table.labels, dtype=object) == label_names[1]).astype(np.float64)


def _sigmoid(
    z: np.ndarray, out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None
) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows.

    The numerator is max(z >= 0, e^-|z|), as e^-|z| is at most 1 and a NaN
    stays NaN. The result is written to `out` (which may be `z` itself) if
    given, and `work` (shaped like z, if given) holds the numerator.
    """
    if out is None:
        out = np.empty_like(z)
    numerator = np.greater_equal(z, 0.0, out=np.empty_like(z) if work is None else work)
    np.abs(z, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.maximum(numerator, out, out=numerator)
    out += 1.0
    return np.divide(numerator, out, out=out)


def loss_and_grad(
    X: sp.csr_matrix, y: np.ndarray, w: np.ndarray, b: float, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy plus 0.5 * l2 * ||w||^2; bias unpenalized."""
    z = X @ w + b
    p = _sigmoid(z)
    eps = 1e-12
    ce = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
    loss = float(ce + 0.5 * l2 * float(w @ w))
    residual = (p - y) / len(y)
    grad_w = np.asarray(X.T @ residual).ravel() + l2 * w
    grad_b = float(residual.sum())
    return loss, grad_w, grad_b


@dataclass
class LogisticRegressionModel:
    task: str
    feature_set: str
    sparse_names: list[str]
    dense_names: list[str]
    label_names: list[str]
    weights: np.ndarray
    bias: float
    dense_mean: np.ndarray
    dense_std: np.ndarray
    seed: int
    history: list[EpochStats] = field(default_factory=list)
    kind: ClassVar[str] = "logreg"

    def predict_labels(self, data: FeatureTable | Sequence) -> list[str]:
        """Labels for a features table in this model's feature space."""
        if not isinstance(data, FeatureTable):
            raise ValueError("logreg evaluation needs a features file")
        if (data.schema.sparse_names, data.schema.dense_names) != (
            self.sparse_names,
            self.dense_names,
        ):
            raise ValueError("feature file does not match the model's feature space")
        X = design_matrix(data, self.dense_mean, self.dense_std)
        values = X @ self.weights + self.bias
        return [self.label_names[1] if v > 0 else self.label_names[0] for v in values]

    def top_features(self, k: int = 20) -> list[tuple[str, float]]:
        names = list(self.sparse_names) + list(self.dense_names)
        order = sorted(range(len(names)), key=lambda i: (-abs(self.weights[i]), names[i]))
        return [(names[i], float(self.weights[i])) for i in order[:k]]


def train_logreg(
    train: FeatureTable,
    dev: Optional[FeatureTable] = None,
    config: Optional[TrainConfig] = None,
) -> LogisticRegressionModel:
    """Seeded mini-batch gradient descent with best-dev checkpointing."""
    config = config or TrainConfig()
    config.validate()
    if not len(train):
        raise ValueError("no training records")
    schema = train.schema
    label_names = sorted(set(train.labels))
    if len(label_names) == 1:
        raise ValueError(f"training data contains a single class {label_names[0]!r}")
    dense_mean, dense_std = standardization_stats(train)
    X = design_matrix(train, dense_mean, dense_std)
    y = label_vector(train, label_names)
    X_dev = y_dev = None
    if dev is not None and len(dev):
        X_dev = design_matrix(dev, dense_mean, dense_std)
        y_dev = label_vector(dev, label_names)

    w = np.zeros(schema.width)
    b = 0.0

    def step(batch: np.ndarray) -> None:
        nonlocal w, b
        _, grad_w, grad_b = loss_and_grad(X[batch], y[batch], w, b, config.l2)
        w -= config.learning_rate * grad_w
        b -= config.learning_rate * grad_b

    def dev_accuracy() -> float:
        predictions = (X_dev @ w + b) > 0
        return float(np.mean(predictions == (y_dev > 0.5)))

    (w, b), history = fit(
        config,
        len(train),
        step,
        epoch_loss=lambda: loss_and_grad(X, y, w, b, config.l2)[0],
        dev_accuracy=dev_accuracy if X_dev is not None else None,
        snapshot=lambda: (w.copy(), b),
    )
    return LogisticRegressionModel(
        task=schema.task,
        feature_set=schema.feature_set,
        sparse_names=list(schema.sparse_names),
        dense_names=list(schema.dense_names),
        label_names=label_names,
        weights=w,
        bias=b,
        dense_mean=dense_mean,
        dense_std=dense_std,
        seed=config.seed,
        history=history,
    )
