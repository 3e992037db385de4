"""Fuzz tests for the line readers: lexicon, embeddings, evaluation CSV, corpus, outline.

Each reader must give back what its writer wrote, and on any other input
either parse it or raise its one error, "<path>:<line>: <reason>" for a
bad row or "<path>: <reason>" for the file as a whole; any other
exception, or a line number past the end of the file, fails.
"""

from __future__ import annotations

import io
import re

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from argtree.corpus_io import import_outline_file, parse_corpus_file, tree_to_record, write_corpus
from argtree.evaluation import EvalReport, Stratum, read_report_csvs, write_report_csv
from argtree.features import Lexicon, read_embeddings_file, read_lexicon_file
from argtree.trees import StanceEdge, build_tree, iter_preorder
from document_fuzz import DOCUMENT_FUZZ, ODD_VALUES, arbitrary_text, corpus_record_mutations

# Field values that replace one field of one row.
ODD_FIELDS = ("", "x", "nan", "inf", "-1", "1e999", "2.5", '"', " ", "\t", ",")


def cuts(text: str):
    """Seven or so prefixes of text, the empty one first."""
    yield from (text[:cut] for cut in range(0, len(text), max(1, len(text) // 7)))


def row_mutations(text: str, sep: str, values=ODD_FIELDS):
    """Cuts of `text`, then `text` with one field of one row deleted or replaced by each value."""
    yield from cuts(text)
    lines = text.split("\n")
    for i, line in enumerate(lines):
        fields = line.split(sep)
        for j in range(len(fields)):
            for replacement in ([], *([value] for value in values)):
                edited = sep.join(fields[:j] + replacement + fields[j + 1 :])
                yield "\n".join(lines[:i] + [edited] + lines[i + 1 :])


def assert_parses_or_one_located_error(read, path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    try:
        read(str(path))
    except ValueError as exc:
        match = re.match(rf"{re.escape(str(path))}(?::(\d+))?: ", str(exc))
        assert match, exc
        if match.group(1) is not None:
            assert 1 <= int(match.group(1)) <= len(text.splitlines()), exc


# Characters a reader may meet inside a field: no line breaks and no field separators.
def field_text(excluded: str):
    characters = st.characters(blacklist_categories=("Cs",), blacklist_characters=excluded)
    return st.text(characters, max_size=8)


@DOCUMENT_FUZZ
@given(
    st.dictionaries(
        field_text("\t\r\n"),
        st.tuples(st.floats(-1.0, 1.0), st.sampled_from(["strong", "weak"])),
        max_size=4,
    ),
    arbitrary_text,
)
def test_lexicon_file_round_trips_and_bad_input_is_one_located_error(tmp_path, entries, arbitrary):
    text = "".join(f"{token}\t{pol!r}\t{subj}\n" for token, (pol, subj) in entries.items())
    path = tmp_path / "lexicon.tsv"
    path.write_text(text, encoding="utf-8")
    assert read_lexicon_file(str(path)) == Lexicon(entries=entries)
    for mutated in [arbitrary, *row_mutations(text, "\t")]:
        assert_parses_or_one_located_error(read_lexicon_file, path, mutated)


@DOCUMENT_FUZZ
@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.dictionaries(
            st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
                    min_size=1, max_size=8),
            st.lists(st.floats(allow_nan=False), min_size=dim, max_size=dim),
            min_size=1,
            max_size=4,
        )
    ),
    arbitrary_text,
)
def test_embeddings_file_round_trips_and_bad_input_is_one_located_error(
    tmp_path, vectors, arbitrary
):
    vectors = {token: vector for token, vector in vectors.items() if len(token.split()) == 1}
    text = "".join(f"{token} {' '.join(map(repr, v))}\n" for token, v in vectors.items())
    path = tmp_path / "embeddings.txt"
    path.write_text(text, encoding="utf-8")
    if vectors:
        table = read_embeddings_file(str(path))
        assert table.vectors.keys() == vectors.keys()
        for token, vector in vectors.items():
            np.testing.assert_array_equal(table.vectors[token], vector)
    for mutated in [arbitrary, *row_mutations(text, " ")]:
        assert_parses_or_one_located_error(read_embeddings_file, path, mutated)


@st.composite
def eval_reports(draw):
    names = draw(st.lists(field_text("\r"), min_size=1, max_size=3, unique=True))
    reports = []
    for model in names:
        strata = {}
        for name in draw(st.lists(st.sampled_from(["all", "d1", "d2", "same-stance"]),
                                  min_size=1, max_size=3, unique=True)):
            count = draw(st.integers(0, 50))
            strata[name] = Stratum(count=count, correct=draw(st.integers(0, count)))
        task = draw(st.sampled_from(["stance", "specificity"]))
        reports.append(EvalReport(task=task, model=model, split="test", strata=strata))
    return reports


@DOCUMENT_FUZZ
@given(eval_reports(), arbitrary_text)
def test_evaluation_csv_round_trips_and_bad_input_is_one_located_error(
    tmp_path, reports, arbitrary
):
    buf = io.StringIO()
    write_report_csv(reports, buf)
    path = tmp_path / "eval.csv"
    path.write_text(buf.getvalue(), encoding="utf-8")
    assert read_report_csvs([str(path)]) == reports
    for mutated in [arbitrary, *row_mutations(buf.getvalue(), ",")]:
        assert_parses_or_one_located_error(
            lambda name: read_report_csvs([name]), path, mutated
        )


claim_text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)


@st.composite
def argument_trees(draw, text=claim_text):
    """A tree of up to 6 claims, each child under a claim drawn before it."""
    claims = [("c0", None, None, draw(text))]
    for i in range(1, draw(st.integers(1, 6))):
        parent = draw(st.sampled_from([claim[0] for claim in claims]))
        claims.append((f"c{i}", parent, draw(st.sampled_from(list(StanceEdge))), draw(text)))
    tags = frozenset(draw(st.lists(st.text(max_size=3), unique=True, max_size=2)))
    return build_tree(draw(st.text(max_size=6)), claims, tags)


def corpus_mutations(text: str, at: int):
    """Cuts of the corpus text, then the text with its record on line `at` mutated."""
    yield from cuts(text)
    lines = text.split("\n")
    for edit in corpus_record_mutations(lines[at]):
        yield "\n".join(lines[:at] + [edit] + lines[at + 1 :])


@DOCUMENT_FUZZ
@given(
    st.lists(argument_trees(), min_size=1, max_size=3, unique_by=lambda tree: tree.topic_id),
    st.data(),
    arbitrary_text,
)
def test_corpus_file_round_trips_and_bad_input_is_one_located_error(
    tmp_path, trees, data, arbitrary
):
    buf = io.StringIO()
    write_corpus(trees, buf)
    path = tmp_path / "corpus.jsonl"
    path.write_text(buf.getvalue(), encoding="utf-8")
    back = parse_corpus_file(str(path))
    assert [tree_to_record(tree) for tree in back] == [tree_to_record(tree) for tree in trees]
    assert [tree.tags for tree in back] == [tree.tags for tree in trees]
    at = data.draw(st.integers(0, len(trees) - 1))
    for mutated in [arbitrary, *corpus_mutations(buf.getvalue(), at)]:
        assert_parses_or_one_located_error(parse_corpus_file, path, mutated)


def outline(tree) -> tuple[str, list[tuple]]:
    """The tree as an outline (dotted numbers, Pro:/Con: prefixes), and the
    (id, parent, stance, text) rows import_outline reads back: the ids are
    the numbers."""
    number = {tree.root_id: "1"}
    lines, rows = [], []
    for node_id in iter_preorder(tree):
        node = tree.nodes[node_id]
        if node.parent is None:
            lines.append(f"1. {node.text}")
            rows.append(("1", None, None, node.text))
            continue
        siblings = tree.nodes[node.parent].children
        number[node_id] = f"{number[node.parent]}.{siblings.index(node_id) + 1}"
        stance = node.stance_to_parent
        lines.append(f"{number[node_id]}. {stance.value.title()}: {node.text}")
        rows.append((number[node_id], number[node.parent], stance, node.text))
    return "".join(line + "\n" for line in lines), rows


outline_words = st.text(st.sampled_from("abc xyz,?"), max_size=8).map(lambda t: f"w{t}".strip())


@DOCUMENT_FUZZ
@given(argument_trees(text=outline_words), arbitrary_text)
def test_outline_file_round_trips_and_bad_input_is_one_located_error(tmp_path, tree, arbitrary):
    text, rows = outline(tree)
    path = tmp_path / "outline.txt"
    path.write_text(text, encoding="utf-8")
    back = import_outline_file(str(path), topic_id="t")
    assert [(n.id, n.parent, n.stance_to_parent, n.text) for n in back.nodes.values()] == rows
    for mutated in [arbitrary, *row_mutations(text, " ", ODD_FIELDS + ODD_VALUES)]:
        assert_parses_or_one_located_error(
            lambda name: import_outline_file(name, topic_id="t"), path, mutated
        )
