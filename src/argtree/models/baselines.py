"""Trivial baselines: majority class and token-length comparison."""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Sequence

from ..features import FeatureTable
from ..pairs import SpecificityExample, SpecificityLabel, StanceExample
from ..text import tokenize

Data = FeatureTable | Sequence[SpecificityExample] | Sequence[StanceExample]


@dataclass
class MajorityBaseline:
    label: str
    counts: dict[str, int]
    task: str = "specificity"
    kind: ClassVar[str] = "majority"

    def predict_labels(self, data: Data) -> list[str]:
        """The majority label for every record of a features table or example list."""
        return [self.label] * len(data)


def majority_fit(
    labels: Sequence[str], tie_preference: str, task: str = "specificity"
) -> MajorityBaseline:
    """Most frequent label; ties break toward tie_preference."""
    if not labels:
        raise ValueError("no labels to fit")
    counts = Counter(labels)
    best = max(counts.values())
    winners = sorted(label for label, count in counts.items() if count == best)
    label = tie_preference if tie_preference in winners else winners[0]
    return MajorityBaseline(label=label, counts=dict(sorted(counts.items())), task=task)


@dataclass
class LengthBaseline:
    """Parameter-free comparator wrapped as a model for uniform storage."""

    task: str = "specificity"
    kind: ClassVar[str] = "length"

    def predict_labels(self, data: Data) -> list[str]:
        """Label values for many pairs; each distinct text is tokenized once."""
        if isinstance(data, FeatureTable):
            raise ValueError("the length baseline needs a derived-pairs file (it reads texts)")
        if self.task != "specificity":
            raise ValueError("the length baseline scores specificity pairs only")
        length = functools.cache(lambda text: len(tokenize(text)))
        return [
            _length_label(length(e.first_text), length(e.second_text)).value
            for e in data
        ]


def _length_label(first_length: int, second_length: int) -> SpecificityLabel:
    if second_length >= first_length:
        return SpecificityLabel.SECOND_MORE_SPECIFIC
    return SpecificityLabel.FIRST_MORE_SPECIFIC


def length_predict(first_text: str, second_text: str) -> SpecificityLabel:
    """Longer claim (canonical token count) is the more specific one.

    Ties predict the second claim, so the comparator is deterministic.
    """
    return _length_label(len(tokenize(first_text)), len(tokenize(second_text)))
