"""The pairs writer against the dict-per-line reference in `writer_reference`.

`write_pairs` joins each line from strings it encodes once per file. Its
bytes must equal json.dumps(record, ensure_ascii=False) per line, for
strings that JSON escapes (quotes, backslashes, control characters, U+2028)
or keeps as they are (non-ASCII text), every label, every same_stance and
record counts around the block size.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import writer_reference as ref
from argtree.jsonl import BLOCK_ROWS
from argtree.pairs import (
    SpecificityExample,
    SpecificityLabel,
    StanceExample,
    StanceLabel,
    derive_stance_label,
    read_pairs,
    write_pairs,
)
from argtree.trees import StanceEdge

ODD_CHARS = 'a"\\/\x00\x08\t\n\x1f\x7f\u2028\u2029é中\U0001f600 '
texts = st.one_of(
    st.text(alphabet=st.sampled_from(ODD_CHARS), max_size=8),
    st.text(max_size=8),
)
# a few repeated strings, as claim texts and ids repeat across pairs
shared_texts = st.one_of(texts, st.sampled_from(["t0", "c1", 'a "quoted" claim', "é "]))
same_stances = st.sampled_from([None, True, False])
distances = st.integers(0, 10**20)

specificity_examples = st.builds(
    SpecificityExample,
    topic_id=shared_texts,
    first_id=shared_texts,
    second_id=shared_texts,
    first_text=shared_texts,
    second_text=shared_texts,
    distance=distances,
    label=st.sampled_from(SpecificityLabel),
    same_stance=same_stances,
)
stance_examples = st.builds(
    StanceExample,
    topic_id=shared_texts,
    a_id=shared_texts,
    b_id=shared_texts,
    distance=distances,
    path_texts=st.lists(shared_texts, max_size=4),
    path_edges=st.lists(st.sampled_from(StanceEdge), max_size=4),
    label=st.sampled_from(StanceLabel),
    same_stance=same_stances,
)


def _both_writers(examples) -> tuple[str, str, int]:
    got, want = io.StringIO(), io.StringIO()
    count = write_pairs(iter(examples), got)
    ref.write_pairs(examples, want)
    return got.getvalue(), want.getvalue(), count


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(specificity_examples, stance_examples), max_size=12))
def test_writer_bytes_equal_the_reference_writer(examples):
    got, want, count = _both_writers(examples)
    assert got == want
    assert count == len(examples)


def _example(index: int) -> SpecificityExample | StanceExample:
    if index % 3:
        return SpecificityExample(
            f"t{index % 7}", f"c{index}", f"c{index + 1}", "a \"first\" claim ",
            f"second claim {index % 5} é", 1 + index % 6,
            list(SpecificityLabel)[index % 2], [None, True, False][index % 3],
        )
    edges = [list(StanceEdge)[(index + i) % 2] for i in range(1 + index % 4)]
    return StanceExample(
        f"t{index % 7}", f"c{index}", f"c{index + 2}", len(edges),
        [f"claim {i}\\" for i in range(len(edges) + 1)], edges,
        derive_stance_label(edges), [None, True, False][index % 3],
    )


@pytest.mark.parametrize(
    "count", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1],
    ids=["empty", "one", "one-block", "block-plus-one"],
)
def test_writer_at_block_edges_equals_the_reference_and_reads_back(count):
    examples = [_example(i) for i in range(count)]
    got, want, written = _both_writers(examples)
    assert got == want
    assert written == count
    assert got.count("\n") == count
    assert list(read_pairs(io.StringIO(got))) == examples
