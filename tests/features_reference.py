"""Per-record reference for the columnar feature table.

This is the original list-of-records implementation of the features file
reader and writer and of the logistic regression's design matrix,
standardization statistics and label vector. The library keeps features
as one columnar table; the tests compare its parse, its file bytes and
its CSR matrices with the results of these loops.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from argtree.features import FEATURES_SCHEMA, FeatureRecord, FeatureSchema, FeatureTable
from argtree.pairs import located_error


def table_records(table: FeatureTable) -> list[FeatureRecord]:
    """The table's rows as records: stored sparse entries, every dense name."""
    sparse = table.sparse
    records = []
    for row in range(len(table)):
        start, end = sparse.indptr[row], sparse.indptr[row + 1]
        records.append(
            FeatureRecord(
                label=table.labels[row],
                sparse=dict(zip(sparse.indices[start:end].tolist(), sparse.data[start:end].tolist())),
                dense=dict(zip(table.schema.dense_names, table.dense[row].tolist())),
                topic_id=table.topic_ids[row],
                distance=table.distances[row],
                same_stance=table.same_stance[row],
            )
        )
    return records


def write_features(schema: FeatureSchema, records: Iterable[FeatureRecord], stream: IO[str]) -> None:
    header = {
        "schema": FEATURES_SCHEMA,
        "task": schema.task,
        "feature_set": schema.feature_set,
        "sparse_names": schema.sparse_names,
        "dense_names": schema.dense_names,
    }
    stream.write(json.dumps(header, ensure_ascii=False) + "\n")
    for record in records:
        row = {
            "label": record.label,
            "sparse": {str(i): v for i, v in sorted(record.sparse.items())},
            "dense": record.dense,
            "topic_id": record.topic_id,
            "distance": record.distance,
            "same_stance": "n/a" if record.same_stance is None else record.same_stance,
        }
        stream.write(json.dumps(row, ensure_ascii=False) + "\n")


def _feature_record(row: object) -> FeatureRecord:
    if not isinstance(row, dict):
        raise ValueError("expected a JSON object")
    sparse, dense = row["sparse"], row["dense"]
    if not isinstance(sparse, dict) or not isinstance(dense, dict):
        raise ValueError("sparse and dense must be JSON objects")
    same_stance = row["same_stance"]
    return FeatureRecord(
        label=row["label"],
        sparse={int(i): float(v) for i, v in sparse.items()},
        dense={k: float(v) for k, v in dense.items()},
        topic_id=row["topic_id"],
        distance=int(row["distance"]),
        same_stance=None if same_stance == "n/a" else bool(same_stance),
    )


def read_features_file(path: str) -> tuple[FeatureSchema, list[FeatureRecord]]:
    """Every format error is one ValueError naming the file and line."""
    with open(path, encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise ValueError(f"empty features file {path!r}")
        try:
            header = json.loads(header_line)
            if not isinstance(header, dict) or header.get("schema") != FEATURES_SCHEMA:
                raise ValueError(f"schema mismatch: expected {FEATURES_SCHEMA!r}")
            schema = FeatureSchema(
                task=header["task"],
                feature_set=header["feature_set"],
                sparse_names=list(header["sparse_names"]),
                dense_names=list(header["dense_names"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise located_error(path, 1, exc) from None
        records = []
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                records.append(_feature_record(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise located_error(path, line_no, exc) from None
    return schema, records


def standardization_stats(
    records: Sequence[FeatureRecord], dense_names: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std per dense feature; zero-variance features get std 1."""
    if not dense_names:
        return np.zeros(0), np.ones(0)
    values = np.array(
        [[record.dense.get(name, 0.0) for name in dense_names] for record in records]
    )
    mean = values.mean(axis=0) if len(records) else np.zeros(len(dense_names))
    std = values.std(axis=0) if len(records) else np.ones(len(dense_names))
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def design_matrix(
    records: Sequence[FeatureRecord],
    schema: FeatureSchema,
    dense_mean: np.ndarray,
    dense_std: np.ndarray,
) -> sp.csr_matrix:
    n_sparse = len(schema.sparse_names)
    dense_names = schema.dense_names
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for record in records:
        for index in sorted(record.sparse):
            indices.append(index)
            data.append(record.sparse[index])
        for j, name in enumerate(dense_names):
            raw = record.dense.get(name, 0.0)
            indices.append(n_sparse + j)
            data.append((raw - dense_mean[j]) / dense_std[j])
        indptr.append(len(data))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(records), schema.width),
    )


def label_vector(records: Sequence[FeatureRecord], label_names: Sequence[str]) -> np.ndarray:
    if len(label_names) != 2:
        raise ValueError(f"expected exactly 2 classes, got {list(label_names)}")
    positive = label_names[1]
    y = np.zeros(len(records))
    for i, record in enumerate(records):
        if record.label not in label_names:
            raise ValueError(f"unknown label {record.label!r}")
        if record.label == positive:
            y[i] = 1.0
    return y
