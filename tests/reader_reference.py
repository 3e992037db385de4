"""Per-field reference for the features, pairs and corpus readers.

This is how the readers converted each record before they decoded lines in
blocks and converted fields by table lookup: one json.loads per line, int()
for every sparse key, float() for every value with the dense values put in
a dict per row, an Enum call for every label, path edge and corpus stance,
one helper call per shared string, and a set of the missing claim fields
built for every claim. The tests feed the same files to these readers and
to the library's and require equal results and equal errors.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator, Optional
from unittest import mock

from argtree import corpus_io
from argtree.corpus_io import CorpusFormatError
from argtree.features import FEATURES_SCHEMA, FeatureSchema, FeatureTable, _Columns, _RowError
from argtree.pairs import (
    SpecificityExample,
    SpecificityLabel,
    StanceExample,
    StanceLabel,
    _check_path,
    located_error,
    open_text,
)
from argtree.trees import ArgumentTree, StanceEdge


# ------------------------------------------------------------------ features

def _read_row(row: object, columns: _Columns) -> None:
    """Appends one parsed row; sparse keys convert with int(), values with float()."""
    if not isinstance(row, dict):
        raise ValueError("expected a JSON object")
    sparse, dense = row["sparse"], row["dense"]
    if not isinstance(sparse, dict) or not isinstance(dense, dict):
        raise ValueError("sparse and dense must be JSON objects")
    same_stance = row["same_stance"]
    label = row["label"]
    indices = list(map(int, sparse))
    data = list(map(float, sparse.values()))
    values = dict(zip(dense, map(float, dense.values())))
    topic_id = row["topic_id"]
    distance = int(row["distance"])
    if not isinstance(label, str) or not isinstance(topic_id, str):
        raise ValueError("label and topic_id must be strings")
    columns.append(
        label, topic_id, distance, None if same_stance == "n/a" else bool(same_stance),
        indices, data, [values.get(name, 0.0) for name in columns.schema.dense_names],
    )


def read_features_file(path: str) -> FeatureTable:
    with open_text(path) as handle:
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
        columns = _Columns(schema)
        line_numbers = []
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                _read_row(json.loads(line), columns)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise located_error(path, line_no, exc) from None
            line_numbers.append(line_no)
    try:
        return columns.table()
    except _RowError as exc:
        raise located_error(path, line_numbers[exc.row], exc) from None


# --------------------------------------------------------------------- pairs

def _same_stance_from_json(value) -> Optional[bool]:
    if value == "n/a":
        return None
    return bool(value)


def _shared(value: object, strings: dict[str, str]) -> object:
    """The str object equal to value that strings holds, which gains value if new."""
    return strings.setdefault(value, value) if isinstance(value, str) else value


def _example_from_record(
    record: object, strings: dict[str, str]
) -> SpecificityExample | StanceExample:
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    task = record.get("task")
    if task == "specificity":
        return SpecificityExample(
            topic_id=_shared(record["topic_id"], strings),
            first_id=_shared(record["first_id"], strings),
            second_id=_shared(record["second_id"], strings),
            first_text=_shared(record["first_text"], strings),
            second_text=_shared(record["second_text"], strings),
            distance=int(record["distance"]),
            label=SpecificityLabel(record["label"]),
            same_stance=_same_stance_from_json(record["same_stance"]),
        )
    if task == "stance":
        example = StanceExample(
            topic_id=_shared(record["topic_id"], strings),
            a_id=_shared(record["a_id"], strings),
            b_id=_shared(record["b_id"], strings),
            distance=int(record["distance"]),
            path_texts=[_shared(t, strings) for t in record["path_texts"]],
            path_edges=[StanceEdge(e) for e in record["path_edges"]],
            label=StanceLabel(record["label"]),
            same_stance=_same_stance_from_json(record["same_stance"]),
        )
        _check_path(example)
        return example
    raise ValueError(f"unknown task {task!r}")


def read_pairs(
    stream: IO[str] | Iterable[str], source: str = "<pairs>"
) -> Iterator[SpecificityExample | StanceExample]:
    strings: dict[str, str] = {}
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            example = _example_from_record(json.loads(line), strings)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise located_error(source, line_no, exc) from None
        yield example


def read_pairs_file(path: str) -> list[SpecificityExample | StanceExample]:
    with open_text(path) as handle:
        return list(read_pairs(handle, source=path))


# -------------------------------------------------------------------- corpus

def _claim_rows(record: dict, line_no: int) -> list[tuple[str, Optional[str], Optional[StanceEdge], str]]:
    rows = []
    for claim in record["claims"]:
        if not isinstance(claim, dict):
            raise CorpusFormatError(line_no, "claim entry is not an object")
        missing = {"id", "parent", "stance", "text"} - set(claim)
        if missing:
            raise CorpusFormatError(line_no, f"claim missing fields {sorted(missing)}")
        stance_raw = claim["stance"]
        if stance_raw is None:
            stance = None
        else:
            try:
                stance = StanceEdge(stance_raw)
            except ValueError:
                raise CorpusFormatError(line_no, f"invalid stance {stance_raw!r}") from None
        if not isinstance(claim["id"], str) or not isinstance(claim["text"], str):
            raise CorpusFormatError(line_no, "claim id and text must be strings")
        rows.append((claim["id"], claim["parent"], stance, claim["text"]))
    return rows


def parse_corpus_file(path: str) -> list[ArgumentTree]:
    """The library's corpus reader with the per-claim conversion above."""
    with mock.patch.object(corpus_io, "_claim_rows", _claim_rows):
        return corpus_io.parse_corpus_file(path)
