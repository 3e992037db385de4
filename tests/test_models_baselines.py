"""The length baseline: one pair at a time and over a whole test set."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from argtree.models.baselines import LengthBaseline, length_predict
from argtree.pairs import SpecificityExample, SpecificityLabel

TEXTS = ["one", "one two", "three four", "one two three", "a, b", ""]


def _example(first_text: str, second_text: str) -> SpecificityExample:
    return SpecificityExample(
        topic_id="t",
        first_id="c0",
        second_id="c1",
        first_text=first_text,
        second_text=second_text,
        distance=1,
        label=SpecificityLabel.SECOND_MORE_SPECIFIC,
        same_stance=None,
    )


def test_ties_predict_the_second_claim():
    assert length_predict("one two", "three four") is SpecificityLabel.SECOND_MORE_SPECIFIC
    assert length_predict("one two three", "four") is SpecificityLabel.FIRST_MORE_SPECIFIC


@given(st.lists(st.tuples(st.sampled_from(TEXTS), st.sampled_from(TEXTS)), max_size=20))
def test_predict_labels_matches_length_predict(pairs):
    examples = [_example(a, b) for a, b in pairs]
    expected = [length_predict(a, b).value for a, b in pairs]
    assert LengthBaseline().predict_labels(examples) == expected
