"""Dict-per-line reference for the pairs writer.

This is how `write_pairs` wrote each example before it joined lines from
pre-encoded pieces: one dict per example, passed to json.dumps with
ensure_ascii=False. The tests require the library's writer to produce the
same bytes. (`features_reference.write_features` plays the same part for
the features writer.)
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Optional

from argtree.pairs import SpecificityExample, StanceExample


def _same_stance_to_json(value: Optional[bool]):
    return "n/a" if value is None else value


def specificity_to_record(example: SpecificityExample) -> dict:
    return {
        "task": "specificity",
        "topic_id": example.topic_id,
        "first_id": example.first_id,
        "second_id": example.second_id,
        "first_text": example.first_text,
        "second_text": example.second_text,
        "distance": example.distance,
        "label": example.label.value,
        "same_stance": _same_stance_to_json(example.same_stance),
    }


def stance_to_record(example: StanceExample) -> dict:
    return {
        "task": "stance",
        "topic_id": example.topic_id,
        "a_id": example.a_id,
        "b_id": example.b_id,
        "distance": example.distance,
        "path_texts": example.path_texts,
        "path_edges": [edge.value for edge in example.path_edges],
        "label": example.label.value,
        "same_stance": _same_stance_to_json(example.same_stance),
    }


def write_pairs(examples: Iterable[SpecificityExample | StanceExample], stream: IO[str]) -> None:
    for example in examples:
        if isinstance(example, SpecificityExample):
            record = specificity_to_record(example)
        else:
            record = stance_to_record(example)
        stream.write(json.dumps(record, ensure_ascii=False))
        stream.write("\n")
