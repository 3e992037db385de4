"""The features, pairs and corpus readers against their per-field reference.

`reader_reference` keeps the conversion these readers replaced: one
json.loads per line, int() per sparse key, an Enum call per label, edge
and stance. A random valid file of each kind must read the same in both,
and a file with one line garbled must raise the same message at the same
line in both, or read the same. Files run past one decode block
(`DECODE_LINES`) and hold blank lines, so a garbled line may sit in any
block; the garbling covers odd sparse keys (" 12", "012", "-0", "1_0",
one past the width), dense names reordered, missing or extra, odd values
(true, "1.5", null, 1e999), labels, edges and stances that are numbers,
lists or unknown strings, and claims with a field missing or replaced.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reader_reference as ref
from argtree.corpus_io import parse_corpus_file, write_corpus
from argtree.features import read_features_file
from argtree.pairs import (
    DECODE_LINES,
    SpecificityExample,
    SpecificityLabel,
    StanceExample,
    derive_stance_label,
    json_blocks,
    read_pairs_file,
    write_pairs,
)
from argtree.trees import StanceEdge, build_tree
from document_fuzz import ODD_VALUES, corpus_record_mutations, json_mutations

FUZZ = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
DENSE_NAMES = ("len_first", "len_second", "pol_diff")
# Replaced by a JSON text inside an edited record (see _raw).
MARK = "\u0000mark\u0000"


def _raw(record: object, text: str) -> str:
    """record as one JSON line, with the string MARK in it replaced by the JSON text."""
    return json.dumps(record).replace(json.dumps(MARK), text)


def _spread(draw, lines: list[str]) -> list[str]:
    """The lines, repeated to run past one decode block now and then, with blank lines."""
    count = draw(st.sampled_from([len(lines), DECODE_LINES + 3, 2 * DECODE_LINES + 1]))
    spread = [lines[i % len(lines)] for i in range(count)] if lines else []
    for at in draw(st.lists(st.integers(0, len(spread)), max_size=3)):
        spread.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
    return spread


def _write(tmp_path, name: str, lines: list[str]) -> str:
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _same_outcome(read, reference, path: str):
    """Both readers raise the same message, or both read equal values, which are returned."""
    try:
        want = reference(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(excinfo.value) == str(exc)
        return None
    got = read(path)
    assert got == want
    return got


def _garbled(draw, lines: list[str], edits):
    """(index, lines) with the line at index replaced by each of its edits, then by arbitrary text."""
    at = draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]))
    arbitrary = draw(st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)),
                             max_size=30))
    for edit in [*edits(lines[at]), arbitrary]:
        yield at, lines[:at] + [edit] + lines[at + 1 :]


# ------------------------------------------------------------------ features

@st.composite
def features_lines(draw) -> list[str]:
    width = draw(st.integers(0, 14))
    names = draw(st.lists(st.sampled_from(DENSE_NAMES), unique=True))
    header = {
        "schema": "argtree-features/1", "task": "specificity", "feature_set": "both",
        "sparse_names": [f"tok{i}" for i in range(width)], "dense_names": names,
    }
    value = st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3, allow_nan=False))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        keys = draw(st.lists(st.integers(0, width - 1), unique=True, max_size=width)
                    if width else st.just([]))
        if draw(st.booleans()):  # the schema's names in order, as the writer gives them
            dense_names = names
        else:
            dense_names = draw(st.lists(st.sampled_from(DENSE_NAMES + ("extra",)), unique=True))
        rows.append(json.dumps({
            "label": draw(st.sampled_from(["first_more_specific", "second_more_specific"])),
            "sparse": {str(i): draw(value) for i in keys},
            "dense": {name: draw(value) for name in dense_names},
            "topic_id": draw(st.sampled_from(["t0", "t1"])),
            "distance": draw(st.integers(1, 5)),
            "same_stance": draw(st.sampled_from(["n/a", True, False])),
        }))
    return [json.dumps(header)] + _spread(draw, rows)


def _features_edits(line: str):
    yield from json_mutations(line)
    row = json.loads(line)
    if "sparse_names" in row:
        return
    sparse, dense = row["sparse"], row["dense"]
    width_keys = (" 12", "012", "-0", "1_0", "15", " 3", "03", "0", "99999999999999999999")
    for key in width_keys:
        yield json.dumps(dict(row, sparse={**sparse, key: 1.0}))
    yield json.dumps(dict(row, dense=dict(reversed(dense.items()))))
    yield json.dumps(dict(row, dense=dict(list(dense.items())[1:])))
    yield json.dumps(dict(row, dense={**dense, "extra": 2.0}))
    for text in ("true", '"1.5"', "null", "1e999", '"x"', "[]"):
        yield _raw(dict(row, sparse={**sparse, "0": MARK}), text)
        yield _raw(dict(row, dense={**dense, DENSE_NAMES[0]: MARK}), text)


@FUZZ
@given(features_lines(), st.data())
def test_features_read_as_the_reference_reads_them(tmp_path, lines, data):
    path = _write(tmp_path, "features.jsonl", lines)
    assert _same_outcome(read_features_file, ref.read_features_file, path) is not None
    for _, garbled in _garbled(data.draw, lines, _features_edits):
        path = _write(tmp_path, "garbled.jsonl", garbled)
        _same_outcome(read_features_file, ref.read_features_file, path)


def test_sparse_keys_past_the_table_convert_as_int_does(tmp_path):
    header = {"schema": "argtree-features/1", "task": "stance", "feature_set": "endpoint",
              "sparse_names": [f"t{i}" for i in range(13)], "dense_names": ["a", "b"]}
    row = {"label": "supports", "sparse": {" 12": 1.0, "011": 2.0, "-0": 3.0, "1_0": 4.0},
           "dense": {"b": 1.0}, "topic_id": "t", "distance": 1, "same_stance": "n/a"}
    table = read_features_file(_write(tmp_path, "f.jsonl", [json.dumps(header), json.dumps(row)]))
    assert table.sparse.indices.tolist() == [0, 10, 11, 12]
    assert table.sparse.data.tolist() == [3.0, 4.0, 2.0, 1.0]
    assert table.dense.tolist() == [[0.0, 1.0]]


# --------------------------------------------------------------------- pairs

texts = st.sampled_from(["A shared claim.", "Another claim.", "A third one."])


@st.composite
def pairs_lines(draw) -> list[str]:
    examples = []
    for _ in range(draw(st.integers(1, 5))):
        same_stance = draw(st.sampled_from([None, True, False]))
        if draw(st.booleans()):
            examples.append(SpecificityExample(
                draw(st.sampled_from(["t0", "t1"])), "c0", "c0.1", draw(texts), draw(texts),
                draw(st.integers(1, 5)), draw(st.sampled_from(list(SpecificityLabel))),
                same_stance,
            ))
        else:
            edges = draw(st.lists(st.sampled_from(list(StanceEdge)), min_size=1, max_size=4))
            path = [draw(texts) for _ in range(len(edges) + 1)]
            examples.append(StanceExample(
                draw(st.sampled_from(["t0", "t1"])), "c0", "c0.1", len(edges), path, edges,
                derive_stance_label(edges), same_stance,
            ))
    buf = io.StringIO()
    write_pairs(examples, buf)
    return _spread(draw, buf.getvalue().split("\n")[:-1])


def _pairs_edits(line: str):
    yield from json_mutations(line)
    record = json.loads(line)
    if record["task"] == "stance":
        edges, path = record["path_edges"], record["path_texts"]
        for text in ODD_VALUES + ('"sideways"', "7"):
            yield _raw(dict(record, path_edges=[MARK] + edges[1:]), text)
            yield _raw(dict(record, path_texts=[MARK] + path[1:]), text)
    for text in ("7", '"sideways"', '"supports"', '"second_more_specific"'):
        yield _raw(dict(record, label=MARK), text)


def _strings(example) -> list[str]:
    if isinstance(example, SpecificityExample):
        return [example.topic_id, example.first_id, example.second_id,
                example.first_text, example.second_text]
    return [example.topic_id, example.a_id, example.b_id, *example.path_texts]


@FUZZ
@given(pairs_lines(), st.data())
def test_pairs_read_as_the_reference_reads_them(tmp_path, lines, data):
    path = _write(tmp_path, "pairs.jsonl", lines)
    examples = _same_outcome(read_pairs_file, ref.read_pairs_file, path)
    first_seen: dict[str, str] = {}
    for example in examples:
        for value in _strings(example):
            assert first_seen.setdefault(value, value) is value
    for _, garbled in _garbled(data.draw, lines, _pairs_edits):
        path = _write(tmp_path, "garbled.jsonl", garbled)
        _same_outcome(read_pairs_file, ref.read_pairs_file, path)


def test_lines_that_decode_only_together_are_invalid_json():
    """A block decodes as one array, yet each line must be one JSON value on its own."""
    lines = ['{"a": [1\n', '2]}\n', '{"b": 1}, null, {"c": 2}\n']
    with pytest.raises(ValueError, match=r"^<src>:1: invalid JSON"):
        list(json_blocks(lines, "<src>"))
    assert list(json_blocks(['{"a": 1}\n', "\n", "[2]\n"], "<src>")) == [([1, 3], [{"a": 1}, [2]])]


# -------------------------------------------------------------------- corpus

@st.composite
def corpus_lines(draw) -> list[str]:
    trees = []
    for t in range(draw(st.integers(1, 4))):
        claims = [("c0", None, None, draw(texts))]
        for i in range(1, draw(st.integers(1, 6))):
            parent = draw(st.sampled_from([claim[0] for claim in claims]))
            claims.append((f"c{i}", parent, draw(st.sampled_from(list(StanceEdge))), draw(texts)))
        tags = frozenset(draw(st.lists(st.sampled_from(["a", "b"]), unique=True)))
        trees.append(build_tree(f"t{t}", claims, tags))
    buf = io.StringIO()
    write_corpus(trees, buf)
    return buf.getvalue().split("\n")[:-1]


def _corpus_edits(line: str):
    yield from corpus_record_mutations(line)
    record = json.loads(line)
    claims = record["claims"]
    for text in ("7", '"sideways"', '"PRO"'):
        yield _raw(dict(record, claims=claims[:-1] + [dict(claims[-1], stance=MARK)]), text)


def _unhashable_parent(line: str) -> bool:
    """The line is a record one of whose claims has a list or an object as parent.

    The reference raised TypeError on such a claim; the library refuses it
    as one located error. (A number as parent reads in both, and dangles.)
    """
    try:
        return any(isinstance(claim["parent"], (list, dict)) for claim in json.loads(line)["claims"])
    except (ValueError, KeyError, TypeError):
        return False


def _corpus(read):
    def trees_and_lines(path):
        trees = read(path)
        return trees, [tree.line_no for tree in trees]
    return trees_and_lines


@FUZZ
@given(corpus_lines(), st.data())
def test_corpus_reads_as_the_reference_reads_it(tmp_path, lines, data):
    path = _write(tmp_path, "corpus.jsonl", lines)
    assert _same_outcome(_corpus(parse_corpus_file), _corpus(ref.parse_corpus_file), path)
    for at, garbled in _garbled(data.draw, lines, _corpus_edits):
        path = _write(tmp_path, "garbled.jsonl", garbled)
        if _unhashable_parent(garbled[at]):
            with pytest.raises(ValueError) as excinfo:
                parse_corpus_file(path)
            assert str(excinfo.value).startswith(
                f"{path}:{at + 1}: claim parent must be a string, a number or null, got "
            )
        else:
            _same_outcome(_corpus(parse_corpus_file), _corpus(ref.parse_corpus_file), path)
