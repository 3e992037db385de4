"""Features files pass through memory one block of BLOCK_ROWS rows at a time.

The writer renders one block of the table as text at a time, and the
reader packs each block of rows into arrays as it fills. These tests hold
the features writer's memory, and the pairs writer's, to about one block,
compare tables whose size falls at and around block edges with the
per-record reference in `features_reference`, and check that errors keep
their lines and their order when the bad rows sit in different blocks.
"""

from __future__ import annotations

import io
import json
import random
import tracemalloc

import numpy as np
import pytest

import features_reference as ref
from argtree.features import (
    SPECIFICITY_DENSE_NAMES,
    FeatureSchema,
    FeatureTable,
    csr_matrix,
    read_features_file,
    write_features,
)
from argtree.jsonl import BLOCK_ROWS
from argtree.models.logreg import design_matrix, standardization_stats
from argtree.pairs import SpecificityExample, SpecificityLabel, write_pairs

WIDTH = 40


def _header(dense_names=SPECIFICITY_DENSE_NAMES, width=WIDTH) -> dict:
    return {
        "schema": "argtree-features/1",
        "task": "specificity",
        "feature_set": "both",
        "sparse_names": [f"tok{i}" for i in range(width)],
        "dense_names": list(dense_names),
    }


def _rows(count: int, dense_names=SPECIFICITY_DENSE_NAMES, width=WIDTH, seed=0) -> list[dict]:
    """Rows with unsorted sparse keys, stored zeros, integer values and missing or extra names."""
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        indices = rng.sample(range(width), rng.randint(0, min(6, width)))
        sparse = {str(i): rng.choice([0.0, 1, -2, rng.uniform(-5, 5)]) for i in indices}
        names = [name for name in dense_names if rng.random() < 0.8]
        dense = {name: rng.uniform(-3, 3) for name in names}
        if rng.random() < 0.1:
            dense["extra"] = 1.0
        rows.append({
            "label": rng.choice(["first_more_specific", "second_more_specific"]),
            "sparse": sparse,
            "dense": dense,
            "topic_id": f"t{rng.randint(0, 9)}",
            "distance": rng.randint(1, 5),
            "same_stance": rng.choice(["n/a", True, False]),
        })
    return rows


def _write(tmp_path, header: dict, lines: list) -> str:
    """lines holds row dicts and raw strings, each written as one line."""
    path = tmp_path / "features.jsonl"
    text = [json.dumps(header)] + [line if isinstance(line, str) else json.dumps(line)
                                   for line in lines]
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return str(path)


def _assert_same_csr(got, want) -> None:
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _assert_matches_reference(path: str) -> FeatureTable:
    table = read_features_file(path)
    schema, records = ref.read_features_file(path)
    assert table.schema == schema and len(table) == len(records)
    for got, want in zip(ref.table_records(table), records):
        assert (got.label, got.topic_id, got.distance, got.same_stance) == (
            want.label, want.topic_id, want.distance, want.same_stance
        )
        assert list(got.sparse.items()) == sorted(want.sparse.items())
        assert got.dense == {name: want.dense.get(name, 0.0) for name in schema.dense_names}
    assert ref.table_from_records(schema, records) == table
    mean, std = standardization_stats(table)
    _assert_same_csr(design_matrix(table, mean, std), ref.design_matrix(records, schema, mean, std))
    return table


def test_equal_labels_and_topic_ids_read_as_one_object(tmp_path):
    """The reader keeps one str per distinct label and topic id, not one per row."""
    table = read_features_file(_write(tmp_path, _header(), _rows(BLOCK_ROWS + 5)))
    assert len(set(table.topic_ids)) < len(table) // 10
    for column in (table.labels, table.topic_ids):
        first_seen: dict[str, str] = {}
        for value in column:
            assert first_seen.setdefault(value, value) is value


@pytest.mark.parametrize(
    "count",
    [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1],
    ids=["block-less-one", "one-block", "block-plus-one", "two-blocks-plus-one"],
)
def test_reader_at_block_edges_equals_the_reference(tmp_path, count):
    rows = _rows(count)
    # a blank line in the first block shifts every later row's line number
    path = _write(tmp_path, _header(), rows[:7] + [""] + rows[7:])
    table = _assert_matches_reference(path)
    assert len(table) == count


@pytest.mark.parametrize("width, dense_names", [(WIDTH, ()), (0, ()), (0, ("len_first",))],
                         ids=["no-dense", "no-columns", "no-sparse"])
def test_design_matrix_without_dense_or_sparse_columns_equals_the_reference(
    tmp_path, width, dense_names
):
    rows = _rows(BLOCK_ROWS + 3, dense_names=dense_names, width=width)
    _assert_matches_reference(_write(tmp_path, _header(dense_names, width), rows))


def test_writer_bytes_at_block_edges_equal_the_reference_writer(tmp_path):
    rows = _rows(2 * BLOCK_ROWS + 1)
    for row in rows:
        row["dense"] = {name: row["dense"].get(name, 0.5) for name in SPECIFICITY_DENSE_NAMES}
        row["sparse"] = {key: float(value) for key, value in row["sparse"].items()}
    path = _write(tmp_path, _header(), rows)
    schema, records = ref.read_features_file(path)
    got, want = io.StringIO(), io.StringIO()
    write_features(read_features_file(path), got)
    ref.write_features(schema, records, want)
    assert got.getvalue() == want.getvalue()


def _table(rows: int, seed: int = 0) -> FeatureTable:
    """A table of `rows` rows, 8 sparse entries each, built straight as arrays."""
    rng = np.random.default_rng(seed)
    per_row = 8
    indices = np.sort(rng.random((rows, WIDTH)).argsort(axis=1)[:, :per_row], axis=1)
    schema = FeatureSchema("specificity", "both", _header()["sparse_names"],
                           list(SPECIFICITY_DENSE_NAMES))
    return FeatureTable(
        schema=schema,
        labels=["first_more_specific"] * rows,
        topic_ids=[f"t{i % 50}" for i in range(rows)],
        distances=[1 + i % 5 for i in range(rows)],
        same_stance=[None] * rows,
        sparse=csr_matrix(
            (rng.standard_normal(rows * per_row), indices.ravel(),
             np.arange(0, rows * per_row + 1, per_row)),
            shape=(rows, WIDTH),
        ),
        dense=rng.standard_normal((rows, len(SPECIFICITY_DENSE_NAMES))),
    )


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def _writer_peak(table: FeatureTable) -> int:
    tracemalloc.start()
    try:
        write_features(table, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_held_to_about_one_block():
    one_block = _writer_peak(_table(BLOCK_ROWS))
    # 20,000 rows is almost 20 blocks; converted whole, they would peak near 20x one block
    assert _writer_peak(_table(20_000, seed=1)) < 2 * one_block


def _pairs_writer_peak(blocks: int) -> int:
    """write_pairs's peak over a generator of blocks * BLOCK_ROWS examples.

    The examples draw their texts from one pool, as pairs of one corpus
    repeat its claims, so the writer's encoded strings stop growing in
    the first block.
    """
    texts = [f"claim {i}: " + "a \"quoted\" word é " * 8 for i in range(300)]

    def examples():
        for i in range(blocks * BLOCK_ROWS):
            yield SpecificityExample(
                f"t{i % 7}", f"c{i % 300}", f"c{i * 7 % 300}", texts[i % 300],
                texts[i * 7 % 300], 1 + i % 5, SpecificityLabel.FIRST_MORE_SPECIFIC, None,
            )

    tracemalloc.start()
    try:
        assert write_pairs(examples(), _Discard()) == blocks * BLOCK_ROWS
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pairs_writer_memory_is_held_to_about_one_block():
    # written whole, 20 blocks of lines would peak near 20x one block
    assert _pairs_writer_peak(20) < 2 * _pairs_writer_peak(1)


def _good(index: int) -> dict:
    return {"label": "first_more_specific", "sparse": {str(index % WIDTH): 1.0},
            "dense": {}, "topic_id": "t", "distance": 1, "same_stance": "n/a"}


@pytest.mark.parametrize(
    "bad, reason",
    [
        ("{not json", "invalid JSON"),
        (json.dumps({k: v for k, v in _good(0).items() if k != "distance"}),
         "missing field 'distance'"),
        (dict(_good(0), sparse={str(WIDTH): 1.0}), f"sparse index {WIDTH} out of range"),
        (dict(_good(0), sparse={"99999999999999999999": 1.0}), "out of range"),
        (dict(_good(0), sparse={"3": 1.0, "03": 2.0}), "sparse index 3 repeats"),
        (dict(_good(0), distance=1e999), "cannot convert float infinity to integer"),
    ],
    ids=["json", "missing-field", "out-of-range", "huge", "repeated", "infinite-distance"],
)
def test_bad_row_in_the_second_block_raises_at_its_own_line(tmp_path, bad, reason):
    at = BLOCK_ROWS + 5
    rows = [_good(i) for i in range(BLOCK_ROWS + 20)]
    rows[at] = bad
    path = _write(tmp_path, _header(()), rows)
    with pytest.raises(ValueError) as excinfo:
        read_features_file(path)
    assert str(excinfo.value).startswith(f"{path}:{at + 2}: ")
    assert reason in str(excinfo.value)


@pytest.mark.parametrize(
    "first, second, failing, reason",
    [
        ({"99999999999999999999": 1.0}, "{not json", "second", "invalid JSON"),
        ({"3": 1.0, "03": 1.0}, "{not json", "second", "invalid JSON"),
        ({"3": 1.0, "03": 1.0}, {"-1": 1.0}, "second", "sparse index -1 out of range"),
        ({str(WIDTH): 1.0}, {"3": 1.0, "03": 1.0}, "first", f"sparse index {WIDTH} out of range"),
        ({"3.5": 1.0}, "{not json", "first", "invalid literal"),
        ({str(WIDTH): 1.0}, {"-1": 1.0}, "first", f"sparse index {WIDTH} out of range"),
        ({"3": 1.0, "03": 1.0}, {"4": 1.0, "04": 1.0}, "first", "sparse index 3 repeats"),
    ],
    ids=["huge-then-json", "repeat-then-json", "repeat-then-range", "range-then-repeat",
         "bad-key-then-json", "range-then-range", "repeat-then-repeat"],
)
def test_error_order_holds_across_blocks(tmp_path, first, second, failing, reason):
    """A row's format error, then an index out of range, then a repeated index, wherever they sit."""
    rows = [_good(i) for i in range(2 * BLOCK_ROWS)]
    at = {"first": 10, "second": BLOCK_ROWS + 10}
    for row, bad in ((at["first"], first), (at["second"], second)):
        rows[row] = bad if isinstance(bad, str) else dict(_good(0), sparse=bad)
    path = _write(tmp_path, _header(()), rows)
    with pytest.raises(ValueError) as excinfo:
        read_features_file(path)
    assert str(excinfo.value).startswith(f"{path}:{at[failing] + 2}: ")
    assert reason in str(excinfo.value)
