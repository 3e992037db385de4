"""Corpus serialization: JSON-lines round trips, error reporting, outlines."""

from __future__ import annotations

import io
import json

import pytest

from argtree.corpus_io import (
    SCHEMA,
    CorpusFormatError,
    import_outline,
    parse_corpus,
    parse_corpus_file,
    tree_to_record,
    write_corpus,
    write_corpus_file,
)
from argtree.trees import StanceEdge, validate_tree


def _trees_equal(a, b) -> bool:
    return tree_to_record(a) == tree_to_record(b) and a.tags == b.tags


def test_round_trip_preserves_everything(uniform_corpus, tmp_path):
    path = str(tmp_path / "corpus.jsonl")
    write_corpus_file(uniform_corpus, path)
    back = parse_corpus_file(path)
    assert len(back) == len(uniform_corpus)
    for original, parsed in zip(uniform_corpus, back):
        assert _trees_equal(original, parsed)


def test_write_corpus_is_canonical(uniform_tree):
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_corpus([uniform_tree], buf_a)
    write_corpus(list(parse_corpus(io.StringIO(buf_a.getvalue()))), buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_record_lists_claims_in_preorder(uniform_tree):
    record = tree_to_record(uniform_tree)
    assert record["schema"] == SCHEMA
    assert [c["id"] for c in record["claims"]] == ["c0", "c1", "c3", "c5", "c4", "c2", "c6"]
    assert record["claims"][0]["stance"] is None
    assert record["claims"][1]["stance"] == "pro"


def test_parse_skips_blank_lines(uniform_tree):
    payload = "\n" + json.dumps(tree_to_record(uniform_tree)) + "\n\n"
    assert len(list(parse_corpus(io.StringIO(payload)))) == 1


def test_parse_reports_line_number_for_bad_json(uniform_tree):
    good = json.dumps(tree_to_record(uniform_tree))
    with pytest.raises(CorpusFormatError) as err:
        list(parse_corpus(io.StringIO(good + "\n{oops\n")))
    assert err.value.line_no == 2
    assert "invalid JSON" in str(err.value)


def test_parse_rejects_a_repeated_topic_id(uniform_tree):
    line = json.dumps(tree_to_record(uniform_tree))
    with pytest.raises(CorpusFormatError) as err:
        list(parse_corpus(io.StringIO(f"{line}\n\n{line}\n")))
    assert err.value.line_no == 3
    assert str(err.value) == f"line 3: duplicate topic_id {uniform_tree.topic_id!r} (first on line 1)"


def test_file_errors_name_the_path(tmp_path, uniform_tree):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(tree_to_record(uniform_tree)) + "\n{oops\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        parse_corpus_file(str(path))
    assert str(err.value) == f"{path}:2: invalid JSON (Expecting property name enclosed in double quotes)"
    assert err.value.line_no == 2


def test_parse_rejects_wrong_schema(uniform_tree):
    record = tree_to_record(uniform_tree)
    record["schema"] = "argtree/999"
    with pytest.raises(CorpusFormatError, match="schema mismatch"):
        list(parse_corpus(io.StringIO(json.dumps(record))))


def test_parse_rejects_missing_claim_fields(uniform_tree):
    record = tree_to_record(uniform_tree)
    del record["claims"][2]["stance"]
    with pytest.raises(CorpusFormatError, match="missing fields"):
        list(parse_corpus(io.StringIO(json.dumps(record))))


def test_parse_rejects_invalid_stance(uniform_tree):
    record = tree_to_record(uniform_tree)
    record["claims"][1]["stance"] = "maybe"
    with pytest.raises(CorpusFormatError, match="invalid stance"):
        list(parse_corpus(io.StringIO(json.dumps(record))))


def test_parse_rejects_structural_problems_with_line_number(uniform_tree):
    record = tree_to_record(uniform_tree)
    record["claims"][3]["parent"] = None  # a second root
    with pytest.raises(CorpusFormatError) as err:
        list(parse_corpus(io.StringIO(json.dumps(record))))
    assert err.value.line_no == 1
    assert "multiple root" in err.value.reason


OUTLINE = """\
1. Cities should pedestrianize their historic centers?
1.1. Pro: Ground-level air quality improves within a few months.
1.2. Con: Deliveries to small shops become harder and pricier.
1.2.1. Pro: Cargo bikes already cover most last-mile routes.
1.1.1. Con: Traffic gets displaced to residential edge streets.
"""


def test_import_outline_builds_expected_tree():
    tree = import_outline(io.StringIO(OUTLINE), topic_id="pedestrian", tags=frozenset({"demo"}))
    assert validate_tree(tree) == []
    assert tree.root_id == "1"
    assert tree.nodes["1"].children == ("1.1", "1.2")
    assert tree.nodes["1.1"].children == ("1.1.1",)
    assert tree.nodes["1.2"].stance_to_parent is StanceEdge.CON
    assert tree.nodes["1.2.1"].stance_to_parent is StanceEdge.PRO
    assert tree.nodes["1.1.1"].text == "Traffic gets displaced to residential edge streets."
    assert tree.tags == frozenset({"demo"})


def test_import_outline_accepts_numbering_gaps():
    text = "1. Thesis here?\n1.2. Pro: only child uses a gapped number.\n"
    tree = import_outline(io.StringIO(text), topic_id="gap")
    assert tree.nodes["1"].children == ("1.2",)


def test_import_outline_rejects_unknown_parent():
    text = "1. Thesis here?\n1.2.1. Pro: parent 1.2 never appeared.\n"
    with pytest.raises(CorpusFormatError) as err:
        import_outline(io.StringIO(text), topic_id="bad")
    assert err.value.line_no == 2


def test_import_outline_rejects_missing_stance_prefix():
    text = "1. Thesis here?\n1.1. just text without a stance\n"
    with pytest.raises(CorpusFormatError):
        import_outline(io.StringIO(text), topic_id="bad")


def test_import_outline_rejects_unnumbered_first_line():
    with pytest.raises(CorpusFormatError):
        import_outline(io.StringIO("Thesis without numbering?\n"), topic_id="bad")
