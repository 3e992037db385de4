"""The columnar feature table against the per-record reference.

`features_reference` keeps the list-of-records reader, writer and design
matrix that the table replaced. Generated files cover unsorted sparse keys,
values written as JSON integers, dense names a row leaves out or adds,
empty rows and stored zeros. Mutated files (truncated lines, deleted or
replaced fields, lines that are not JSON objects) are read as
`reader_reference` reads them: the list-of-records reader checks no field
types, so it is no judge of a replaced field.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import features_reference as ref
import reader_reference
from argtree.features import FeatureSchema, read_features_file, write_features
from argtree.models.logreg import design_matrix, label_vector, standardization_stats
from document_fuzz import json_mutations

DENSE_POOL = ("len_first", "len_second", "pol_diff", "jaccard")

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

values = st.one_of(
    st.integers(-5, 5),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


# Values the writer must render as json.dumps does: non-finite floats as
# NaN / Infinity / -Infinity, and -0.0 apart from 0.0.
ODD_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16)
# Labels, topic ids and dense names that JSON escapes or keeps as they are.
ODD_TEXTS = st.text(
    alphabet=st.sampled_from('a"\\/\x00\x1f\t\n\u2028\u2029é中\U0001f600 '), max_size=6
)


@st.composite
def feature_files(draw, float_values=False, full_dense=False, odd=False):
    """(header, rows) of a features file; each row is the dict one line holds.

    odd, for the writer test, adds ODD_FLOATS to the values and ODD_TEXTS
    to labels, topic ids and dense names.
    """
    n_sparse = draw(st.integers(0, 6))
    dense_pool = DENSE_POOL + ('ré"d\\', "\x01\u2028") if odd else DENSE_POOL
    dense_names = draw(st.lists(st.sampled_from(dense_pool), unique=True, max_size=3))
    header = {
        "schema": "argtree-features/1",
        "task": "specificity",
        "feature_set": "both",
        "sparse_names": [f"tok{i}" for i in range(n_sparse)],
        "dense_names": dense_names,
    }
    value = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False) if float_values else values
    label, topic_id = st.sampled_from(["neg", "pos"]), st.sampled_from(["t0", "t1", "t2"])
    if odd:
        value = st.one_of(value, st.sampled_from(ODD_FLOATS))
        label, topic_id = st.one_of(label, ODD_TEXTS), st.one_of(topic_id, ODD_TEXTS)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        indices = draw(st.lists(st.integers(0, n_sparse - 1), unique=True, max_size=n_sparse)
                       if n_sparse else st.just([]))
        sparse = {str(i): draw(value) for i in indices}
        if full_dense:
            dense = {name: draw(value) for name in dense_names}
        else:
            names = draw(st.lists(st.sampled_from(DENSE_POOL), unique=True, max_size=4))
            dense = {name: draw(value) for name in names}
        rows.append({
            "label": draw(label),
            "sparse": sparse,
            "dense": dense,
            "topic_id": draw(topic_id),
            "distance": draw(st.integers(1, 5)),
            "same_stance": draw(st.sampled_from(["n/a", True, False])),
        })
    return header, rows


def _file_text(header, rows) -> str:
    return "".join(json.dumps(line) + "\n" for line in [header] + rows)


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "features.jsonl"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _assert_same_csr(got, want) -> None:
    assert got.shape == want.shape
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()
    for name in ("indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name))


@SETTINGS
@given(feature_files())
def test_table_equals_the_reference_records(tmp_path, file):
    path = _write(tmp_path, _file_text(*file))
    table = read_features_file(path)
    schema, records = ref.read_features_file(path)
    assert table.schema == schema
    assert len(table) == len(records)
    for got, want in zip(ref.table_records(table), records):
        assert (got.label, got.topic_id, got.distance, got.same_stance) == (
            want.label, want.topic_id, want.distance, want.same_stance
        )
        assert got.sparse == want.sparse
        assert list(got.sparse) == sorted(want.sparse)
        assert got.dense == {name: want.dense.get(name, 0.0) for name in schema.dense_names}
    assert ref.table_from_records(schema, records) == table


@SETTINGS
@given(feature_files())
def test_design_matrix_is_bit_identical_to_the_reference(tmp_path, file):
    path = _write(tmp_path, _file_text(*file))
    table = read_features_file(path)
    schema, records = ref.read_features_file(path)
    mean, std = standardization_stats(table)
    want_mean, want_std = ref.standardization_stats(records, schema.dense_names)
    assert mean.tobytes() == want_mean.tobytes()
    assert std.tobytes() == want_std.tobytes()
    _assert_same_csr(
        design_matrix(table, mean, std), ref.design_matrix(records, schema, mean, std)
    )
    assert np.array_equal(
        label_vector(table, ["neg", "pos"]), ref.label_vector(records, ["neg", "pos"])
    )


@settings(SETTINGS, max_examples=150)
@given(feature_files(float_values=True, full_dense=True, odd=True))
@example(({"schema": "argtree-features/1", "task": "stance", "feature_set": "bow",
           "sparse_names": ["tok0", "tok1"], "dense_names": []},
          [{"label": 'q"\u2028', "sparse": {}, "dense": {}, "topic_id": "\x00é",
            "distance": 3, "same_stance": False},
           {"label": "pos", "sparse": {"0": -0.0, "1": math.nan}, "dense": {}, "topic_id": "t",
            "distance": 1, "same_stance": "n/a"}]))
def test_writer_bytes_equal_the_reference_writer(file):
    header, rows = file
    schema = FeatureSchema(
        task=header["task"],
        feature_set=header["feature_set"],
        sparse_names=header["sparse_names"],
        dense_names=header["dense_names"],
    )
    records = [ref._feature_record(row) for row in rows]
    got, want = io.StringIO(), io.StringIO()
    write_features(ref.table_from_records(schema, records), got)
    ref.write_features(schema, records, want)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(feature_files(), st.data())
def test_mutated_lines_parse_the_same_or_raise_one_located_error(tmp_path, file, data):
    header, rows = file
    lines = [json.dumps(line) for line in [header] + rows]
    at = data.draw(st.integers(0, len(lines) - 1))
    for mutated in json_mutations(lines[at]):
        text = "".join(line + "\n" for line in lines[:at] + [mutated] + lines[at + 1 :])
        path = _write(tmp_path, text)
        try:
            want = reader_reference.read_features_file(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                read_features_file(path)
            assert str(excinfo.value) == str(exc)
            if at:
                assert str(exc).startswith(f"{path}:{at + 1}: ")
        else:
            assert read_features_file(path) == want


@pytest.mark.parametrize(
    "sparse, reason",
    [
        ({"3": 1.0}, "sparse index 3 out of range [0, 3)"),
        ({"-1": 1.0}, "sparse index -1 out of range [0, 3)"),
        ({"99999999999999999999": 1.0}, "out of range"),
        ({"1": 1.0, "01": 2.0}, "sparse index 1 repeats"),
    ],
    ids=["past-the-end", "negative", "huge", "repeated"],
)
def test_bad_sparse_index_is_a_located_error(tmp_path, sparse, reason):
    header = {
        "schema": "argtree-features/1", "task": "stance", "feature_set": "endpoint",
        "sparse_names": ["a", "b", "c"], "dense_names": [],
    }
    good = {"label": "supports", "sparse": {"0": 1.0}, "dense": {}, "topic_id": "t",
            "distance": 1, "same_stance": "n/a"}
    path = _write(tmp_path, _file_text(header, [good, dict(good, sparse=sparse), good]))
    with pytest.raises(ValueError) as excinfo:
        read_features_file(path)
    assert str(excinfo.value).startswith(f"{path}:3: ")
    assert reason in str(excinfo.value)


@pytest.mark.parametrize("field", ["label", "topic_id"])
def test_non_string_label_or_topic_is_a_located_error(tmp_path, field):
    header = {
        "schema": "argtree-features/1", "task": "stance", "feature_set": "endpoint",
        "sparse_names": ["a"], "dense_names": [],
    }
    good = {"label": "supports", "sparse": {}, "dense": {}, "topic_id": "t",
            "distance": 1, "same_stance": "n/a"}
    path = _write(tmp_path, _file_text(header, [good, dict(good, **{field: 7})]))
    with pytest.raises(ValueError, match="must be strings") as excinfo:
        read_features_file(path)
    assert str(excinfo.value).startswith(f"{path}:3: ")
