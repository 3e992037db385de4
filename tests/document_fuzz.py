"""Fuzz inputs for the readers of JSON files: whole-file documents and JSON lines.

A reader of a document (a split, a vocabulary) must either parse an input
or raise its one located error, "<path>: <reason>"; a reader of JSON lines
(pairs, features, a corpus) names the line as well. Any other exception,
OverflowError for a number too large for a float among them, fails.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

DOCUMENT_FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# JSON texts that replace one field: 1e999 and Infinity read as an infinite
# float, ["x"] is a value no dict or set can hold.
ODD_VALUES = (
    "null", "true", "1e999", "Infinity", "NaN", "2.5", '"1.5"', '"x"', "[]", '["x"]', "{}",
)
# JSON texts that are not objects.
NOT_OBJECTS = ("[1, 2]", '"row"', "3", "null")
_MARK = "\u0000replaced\u0000"

arbitrary_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=60)


def json_mutations(text: str):
    """Cuts of `text`, its JSON object with one field deleted or replaced, and NOT_OBJECTS.

    `text` is one JSON object: a whole document or one line of JSON lines
    (the edited objects are written on one line).
    """
    record = json.loads(text)
    yield from (text[:cut] for cut in range(0, len(text), max(1, len(text) // 7)))
    for field in record:
        yield json.dumps({k: v for k, v in record.items() if k != field})
        marked = json.dumps(dict(record, **{field: _MARK}))
        for value in ODD_VALUES:
            yield marked.replace(json.dumps(_MARK), value)
    yield from NOT_OBJECTS


def assert_parses_or_one_file_error(read, path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    try:
        read(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc


def corpus_record_mutations(line: str):
    """json_mutations of one corpus record, then of its last claim, put back in the record."""
    yield from json_mutations(line)
    record = json.loads(line)
    claims = record["claims"]
    marked = json.dumps(dict(record, claims=claims[:-1] + [_MARK]))
    for claim in json_mutations(json.dumps(claims[-1])):
        yield marked.replace(json.dumps(_MARK), claim)
