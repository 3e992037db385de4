"""Fuzz inputs for the readers of whole-file JSON documents.

A reader of such a file (a split, a vocabulary) must either parse an input
or raise its one located error, "<path>: <reason>"; any other exception,
OverflowError for a number too large for a float among them, fails.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

DOCUMENT_FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# JSON texts that replace one field: 1e999 reads as an infinite float.
ODD_VALUES = ("null", "1e999", "NaN", "2.5", '"x"', "[]", "{}")
_MARK = "\u0000replaced\u0000"

arbitrary_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=60)


def document_mutations(text: str):
    """Cuts of `text`, then its JSON object with one field deleted or replaced."""
    record = json.loads(text)
    yield from (text[:cut] for cut in range(0, len(text), max(1, len(text) // 7)))
    for field in record:
        yield json.dumps({k: v for k, v in record.items() if k != field})
        marked = json.dumps(dict(record, **{field: _MARK}))
        for value in ODD_VALUES:
            yield marked.replace(json.dumps(_MARK), value)


def assert_parses_or_one_file_error(read, path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    try:
        read(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc
