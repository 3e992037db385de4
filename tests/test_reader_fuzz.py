"""Fuzz tests for the line readers: lexicon, embeddings and evaluation CSV.

Each reader must give back what its writer wrote, and on any other input
either parse it or raise its one error, "<path>:<line>: <reason>" for a
bad row or "<path>: <reason>" for the file as a whole; any other
exception, or a line number past the end of the file, fails.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from argtree.cli import _STRATA_CSV_FIELDS, _reports_from_csv_files
from argtree.evaluation import EvalReport, Stratum, report_csv_rows
from argtree.features import Lexicon, read_embeddings_file, read_lexicon_file
from document_fuzz import DOCUMENT_FUZZ, arbitrary_text

# Field values that replace one field of one row.
ODD_FIELDS = ("", "x", "nan", "inf", "-1", "1e999", "2.5", '"', " ", "\t", ",")


def row_mutations(text: str, sep: str):
    """Cuts of `text`, then `text` with one field of one row deleted or replaced."""
    yield from (text[:cut] for cut in range(0, len(text), max(1, len(text) // 7)))
    lines = text.split("\n")
    for i, line in enumerate(lines):
        fields = line.split(sep)
        for j in range(len(fields)):
            for replacement in ([], *([value] for value in ODD_FIELDS)):
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
    writer = csv.DictWriter(buf, fieldnames=_STRATA_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        writer.writerows(report_csv_rows(report))
    path = tmp_path / "eval.csv"
    path.write_text(buf.getvalue(), encoding="utf-8")
    assert _reports_from_csv_files([str(path)]) == reports
    for mutated in [arbitrary, *row_mutations(buf.getvalue(), ",")]:
        assert_parses_or_one_located_error(
            lambda name: _reports_from_csv_files([name]), path, mutated
        )
