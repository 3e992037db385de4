"""Feature extraction for claim pairs.

Bag-of-words blocks use difference encoding, count(second) - count(first),
so swapping the pair negates the block. Dense surface and similarity
features follow fixed name orders so feature files, trained weights and
reports stay aligned. Dense features are standardized later by the
trainer using training-split statistics.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .pairs import SpecificityExample, StanceExample, located_error
from .text import tokenize

PERSONAL_PRONOUNS = frozenset(
    "i me my mine we us our ours you your yours he him his she her hers "
    "they them their theirs it its".split()
)

STOP_LIST_SIZE = 50

FEATURES_SCHEMA = "argtree-features/1"
VOCAB_SCHEMA = "argtree-vocab/1"


@dataclass
class Vocabulary:
    """Token-to-index map ordered by descending frequency, then token."""

    token_to_index: dict[str, int]
    min_count: int
    built_from: str

    def __len__(self) -> int:
        return len(self.token_to_index)

    def tokens(self) -> list[str]:
        ordered = [""] * len(self.token_to_index)
        for token, index in self.token_to_index.items():
            ordered[index] = token
        return ordered

    def stop_tokens(self, k: int = STOP_LIST_SIZE) -> frozenset[str]:
        """The k most frequent tokens (the head of the index order)."""
        return frozenset(t for t, i in self.token_to_index.items() if i < k)


def build_vocabulary(
    texts: Iterable[str], min_count: int = 2, built_from: str = "train"
) -> Vocabulary:
    """Each distinct text is tokenized once; its tokens count once per occurrence."""
    counts: dict[str, int] = {}
    for text, occurrences in Counter(texts).items():
        for token in tokenize(text):
            counts[token] = counts.get(token, 0) + occurrences
    kept = sorted(
        (token for token, count in counts.items() if count >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(
        token_to_index={token: i for i, token in enumerate(kept)},
        min_count=min_count,
        built_from=built_from,
    )


def write_vocabulary(vocab: Vocabulary, stream: IO[str]) -> None:
    record = {
        "schema": VOCAB_SCHEMA,
        "min_count": vocab.min_count,
        "built_from": vocab.built_from,
        "tokens": vocab.tokens(),
    }
    json.dump(record, stream, ensure_ascii=False)
    stream.write("\n")


def write_vocabulary_file(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_vocabulary(vocab, handle)


def read_vocabulary_file(path: str) -> Vocabulary:
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("schema") != VOCAB_SCHEMA:
        raise ValueError(f"schema mismatch in vocabulary file {path!r}")
    return Vocabulary(
        token_to_index={t: i for i, t in enumerate(record["tokens"])},
        min_count=int(record["min_count"]),
        built_from=str(record["built_from"]),
    )


@dataclass
class Lexicon:
    """Polarity in [-1, 1] plus subjectivity strength per token."""

    entries: dict[str, tuple[float, str]] = field(default_factory=dict)

    def polarity(self, token: str) -> float:
        return self.entries.get(token, (0.0, "none"))[0]

    def subjectivity(self, token: str) -> str:
        return self.entries.get(token, (0.0, "none"))[1]


def read_lexicon_file(path: str) -> Lexicon:
    """Tab-separated rows: token, polarity, strong|weak."""
    entries: dict[str, tuple[float, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ValueError(f"lexicon line {line_no}: expected 3 tab-separated fields")
            token, polarity_raw, subjectivity = parts
            try:
                polarity = float(polarity_raw)
            except ValueError:
                raise ValueError(f"lexicon line {line_no}: bad polarity {polarity_raw!r}") from None
            if not -1.0 <= polarity <= 1.0:
                raise ValueError(f"lexicon line {line_no}: polarity {polarity} outside [-1, 1]")
            if subjectivity not in ("strong", "weak"):
                raise ValueError(
                    f"lexicon line {line_no}: subjectivity must be strong or weak, got {subjectivity!r}"
                )
            entries[token] = (polarity, subjectivity)
    return Lexicon(entries=entries)


@dataclass
class EmbeddingTable:
    """Fixed-dimension token vectors; missing tokens read as zero vectors."""

    vectors: dict[str, np.ndarray]
    dim: int

    def lookup(self, token: str) -> np.ndarray:
        vector = self.vectors.get(token)
        if vector is None:
            return np.zeros(self.dim)
        return vector

    def mean_vector(self, tokens: Sequence[str]) -> np.ndarray:
        if not tokens:
            return np.zeros(self.dim)
        total = np.zeros(self.dim)
        for token in tokens:
            total += self.lookup(token)
        return total / len(tokens)


def read_embeddings_file(path: str) -> EmbeddingTable:
    """Space-separated rows: token v1 ... vk, constant dimension."""
    vectors: dict[str, np.ndarray] = {}
    dim: Optional[int] = None
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ValueError(f"embeddings line {line_no}: no vector components")
            elif len(values) != dim:
                raise ValueError(
                    f"embeddings line {line_no}: dimension mismatch "
                    f"(expected {dim}, got {len(values)})"
                )
            vectors[token] = np.array([float(v) for v in values])
    if dim is None:
        raise ValueError("empty embeddings file")
    return EmbeddingTable(vectors=vectors, dim=dim)


@dataclass
class FeatureVector:
    sparse: dict[int, float] = field(default_factory=dict)
    dense: dict[str, float] = field(default_factory=dict)


def _bow_counts(vocab: Vocabulary, tokens: Sequence[str]) -> dict[int, float]:
    counts: dict[int, float] = {}
    for token in tokens:
        index = vocab.token_to_index.get(token)
        if index is not None:
            counts[index] = counts.get(index, 0.0) + 1.0
    return counts


def _bow_diff(first: dict[int, float], second: dict[int, float]) -> dict[int, float]:
    """count(second) - count(first), zeros dropped."""
    diff = dict(second)
    for index, count in first.items():
        diff[index] = diff.get(index, 0.0) - count
    return {i: v for i, v in diff.items() if v != 0.0}


def bow_pair_features(vocab: Vocabulary, first_text: str, second_text: str) -> FeatureVector:
    """Difference encoding: count(second) - count(first), zeros dropped."""
    return FeatureVector(
        sparse=_bow_diff(
            _bow_counts(vocab, tokenize(first_text)), _bow_counts(vocab, tokenize(second_text))
        )
    )


SPECIFICITY_DENSE_NAMES = (
    "len_first",
    "len_second",
    "len_diff",
    "pron_first",
    "pron_second",
    "pron_diff",
    "pol_first",
    "pol_second",
    "pol_diff",
)


def _surface_triple(lexicon: Lexicon, tokens: Sequence[str]) -> tuple[float, float, float]:
    length = float(len(tokens))
    pronouns = float(sum(1 for t in tokens if t in PERSONAL_PRONOUNS))
    polarity_strength = float(sum(abs(lexicon.polarity(t)) for t in tokens))
    return length, pronouns, polarity_strength


def _surface_dense(
    first: tuple[float, float, float], second: tuple[float, float, float]
) -> dict[str, float]:
    len_a, pron_a, pol_a = first
    len_b, pron_b, pol_b = second
    return {
        "len_first": len_a,
        "len_second": len_b,
        "len_diff": len_b - len_a,
        "pron_first": pron_a,
        "pron_second": pron_b,
        "pron_diff": pron_b - pron_a,
        "pol_first": pol_a,
        "pol_second": pol_b,
        "pol_diff": pol_b - pol_a,
    }


def specificity_surface_features(
    lexicon: Lexicon, first_text: str, second_text: str
) -> FeatureVector:
    """Per-claim length, pronoun count and polarity strength, plus diffs."""
    return FeatureVector(
        dense=_surface_dense(
            _surface_triple(lexicon, tokenize(first_text)),
            _surface_triple(lexicon, tokenize(second_text)),
        )
    )


STANCE_DENSE_NAMES = (
    "word_match",
    "jaccard",
    "sentiment_match",
    "pol_sum_a",
    "pol_sum_b",
    "subj_strong_a",
    "subj_weak_a",
    "subj_strong_b",
    "subj_weak_b",
)
STANCE_EMBED_NAME = "embed_cosine"


@dataclass
class _StanceText:
    """What the stance features read from one text."""

    counts: dict[int, float]
    content: set[str]
    pol_sum: float
    subj_strong: float
    subj_weak: float
    mean: Optional[np.ndarray]
    norm: float


def _stance_text(
    vocab: Vocabulary,
    lexicon: Lexicon,
    text: str,
    embeddings: Optional[EmbeddingTable],
    stop_tokens: frozenset[str],
) -> _StanceText:
    tokens = tokenize(text)
    mean = None if embeddings is None else embeddings.mean_vector(tokens)
    return _StanceText(
        counts=_bow_counts(vocab, tokens),
        content={t for t in tokens if t not in stop_tokens},
        pol_sum=sum(lexicon.polarity(t) for t in tokens),
        subj_strong=float(sum(1 for t in tokens if lexicon.subjectivity(t) == "strong")),
        subj_weak=float(sum(1 for t in tokens if lexicon.subjectivity(t) == "weak")),
        mean=mean,
        norm=0.0 if mean is None else float(np.linalg.norm(mean)),
    )


def _stance_features(a: _StanceText, b: _StanceText) -> FeatureVector:
    union = a.content | b.content
    intersection = a.content & b.content
    jaccard = 1.0 if not union else len(intersection) / len(union)
    dense = {
        "word_match": float(len(intersection)),
        "jaccard": jaccard,
        "sentiment_match": 1.0 if np.sign(a.pol_sum) == np.sign(b.pol_sum) else 0.0,
        "pol_sum_a": a.pol_sum,
        "pol_sum_b": b.pol_sum,
        "subj_strong_a": a.subj_strong,
        "subj_weak_a": a.subj_weak,
        "subj_strong_b": b.subj_strong,
        "subj_weak_b": b.subj_weak,
    }
    if a.mean is not None:
        if a.norm == 0.0 or b.norm == 0.0:
            dense[STANCE_EMBED_NAME] = 0.0
        else:
            dense[STANCE_EMBED_NAME] = float(a.mean @ b.mean / (a.norm * b.norm))
    return FeatureVector(sparse=_bow_diff(a.counts, b.counts), dense=dense)


def stance_pair_features(
    vocab: Vocabulary,
    lexicon: Lexicon,
    a_text: str,
    b_text: str,
    embeddings: Optional[EmbeddingTable] = None,
    stop_tokens: Optional[frozenset[str]] = None,
) -> FeatureVector:
    """BOW difference plus lexical overlap, sentiment and similarity features.

    Content tokens exclude the stop list (by default the 50 most frequent
    training tokens). Two empty content sets count as identical, so the
    Jaccard of a pair of equal texts is always 1. The embedding cosine is
    present only when an embedding table is supplied and is 0 whenever
    either claim has no in-table token.
    """
    if stop_tokens is None:
        stop_tokens = vocab.stop_tokens()
    return _stance_features(
        _stance_text(vocab, lexicon, a_text, embeddings, stop_tokens),
        _stance_text(vocab, lexicon, b_text, embeddings, stop_tokens),
    )


def _path_concat(path_texts: Sequence[str]) -> tuple[str, str]:
    """(all path claims but the last, space-joined; the last claim)."""
    if len(path_texts) < 2:
        raise ValueError("path must contain at least two claims")
    return " ".join(path_texts[:-1]), path_texts[-1]


def path_concat_features(
    vocab: Vocabulary,
    lexicon: Lexicon,
    path_texts: Sequence[str],
    embeddings: Optional[EmbeddingTable] = None,
    stop_tokens: Optional[frozenset[str]] = None,
) -> FeatureVector:
    """Stance features of (all path claims but the last, joined) vs the last.

    The concatenation plays the first role, so a distance-one path gives
    exactly stance_pair_features(ancestor, descendant).
    """
    concat, last = _path_concat(path_texts)
    return stance_pair_features(
        vocab, lexicon, concat, last, embeddings=embeddings, stop_tokens=stop_tokens
    )


@dataclass
class FeatureSchema:
    task: str
    feature_set: str
    sparse_names: list[str]
    dense_names: list[str]

    @property
    def width(self) -> int:
        return len(self.sparse_names) + len(self.dense_names)

    def tag(self) -> str:
        payload = json.dumps(
            [self.task, self.feature_set, self.sparse_names, self.dense_names]
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class FeatureRecord:
    label: str
    sparse: dict[int, float]
    dense: dict[str, float]
    topic_id: str
    distance: int
    same_stance: Optional[bool]


def featurize_specificity(
    examples: Iterable[SpecificityExample],
    vocab: Optional[Vocabulary],
    lexicon: Lexicon,
    feature_set: str = "both",
) -> tuple[FeatureSchema, list[FeatureRecord]]:
    """Specificity features from pair texts only; the path is never used.

    Each distinct text is tokenized, counted and measured once.
    """
    if feature_set not in ("bow", "surface", "both"):
        raise ValueError(f"unknown feature set {feature_set!r}")
    use_bow = feature_set in ("bow", "both")
    use_surface = feature_set in ("surface", "both")
    if use_bow and vocab is None:
        raise ValueError("bag-of-words features require a vocabulary")
    schema = FeatureSchema(
        task="specificity",
        feature_set=feature_set,
        sparse_names=vocab.tokens() if use_bow else [],
        dense_names=list(SPECIFICITY_DENSE_NAMES) if use_surface else [],
    )

    def text_values(text: str) -> tuple[dict[int, float], tuple[float, ...]]:
        tokens = tokenize(text)
        return (
            _bow_counts(vocab, tokens) if use_bow else {},
            _surface_triple(lexicon, tokens) if use_surface else (),
        )

    per_text = functools.cache(text_values)
    records = []
    for example in examples:
        counts_a, triple_a = per_text(example.first_text)
        counts_b, triple_b = per_text(example.second_text)
        records.append(
            FeatureRecord(
                label=example.label.value,
                sparse=_bow_diff(counts_a, counts_b) if use_bow else {},
                dense=_surface_dense(triple_a, triple_b) if use_surface else {},
                topic_id=example.topic_id,
                distance=example.distance,
                same_stance=example.same_stance,
            )
        )
    return schema, records


def featurize_stance(
    examples: Iterable[StanceExample],
    vocab: Vocabulary,
    lexicon: Lexicon,
    embeddings: Optional[EmbeddingTable] = None,
    use_path: bool = False,
) -> tuple[FeatureSchema, list[FeatureRecord]]:
    """Stance features over (ancestor, descendant) or the concatenated path.

    The per-text values are computed once per distinct string that is
    tokenized: a claim, or with use_path a joined ancestor chain.
    """
    dense_names = list(STANCE_DENSE_NAMES)
    if embeddings is not None:
        dense_names.append(STANCE_EMBED_NAME)
    schema = FeatureSchema(
        task="stance",
        feature_set="path" if use_path else "endpoint",
        sparse_names=vocab.tokens(),
        dense_names=dense_names,
    )
    stop = vocab.stop_tokens()
    per_text = functools.cache(lambda text: _stance_text(vocab, lexicon, text, embeddings, stop))
    records = []
    for example in examples:
        if use_path:
            first, second = _path_concat(example.path_texts)
        else:
            first, second = example.path_texts[0], example.path_texts[-1]
        vector = _stance_features(per_text(first), per_text(second))
        records.append(
            FeatureRecord(
                label=example.label.value,
                sparse=vector.sparse,
                dense=vector.dense,
                topic_id=example.topic_id,
                distance=example.distance,
                same_stance=example.same_stance,
            )
        )
    return schema, records


def write_features(schema: FeatureSchema, records: Iterable[FeatureRecord], stream: IO[str]) -> None:
    header = {
        "schema": FEATURES_SCHEMA,
        "task": schema.task,
        "feature_set": schema.feature_set,
        "sparse_names": schema.sparse_names,
        "dense_names": schema.dense_names,
    }
    stream.write(json.dumps(header, ensure_ascii=False) + "\n")
    for record in records:
        row = {
            "label": record.label,
            "sparse": {str(i): v for i, v in sorted(record.sparse.items())},
            "dense": record.dense,
            "topic_id": record.topic_id,
            "distance": record.distance,
            "same_stance": "n/a" if record.same_stance is None else record.same_stance,
        }
        stream.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_features_file(schema: FeatureSchema, records: Iterable[FeatureRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_features(schema, records, handle)


def _feature_record(row: object) -> FeatureRecord:
    if not isinstance(row, dict):
        raise ValueError("expected a JSON object")
    sparse, dense = row["sparse"], row["dense"]
    if not isinstance(sparse, dict) or not isinstance(dense, dict):
        raise ValueError("sparse and dense must be JSON objects")
    same_stance = row["same_stance"]
    return FeatureRecord(
        label=row["label"],
        sparse={int(i): float(v) for i, v in sparse.items()},
        dense={k: float(v) for k, v in dense.items()},
        topic_id=row["topic_id"],
        distance=int(row["distance"]),
        same_stance=None if same_stance == "n/a" else bool(same_stance),
    )


def read_features_file(path: str) -> tuple[FeatureSchema, list[FeatureRecord]]:
    """Every format error is one ValueError naming the file and line."""
    with open(path, encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise ValueError(f"empty features file {path!r}")
        try:
            header = json.loads(header_line)
            if not isinstance(header, dict) or header.get("schema") != FEATURES_SCHEMA:
                raise ValueError(f"schema mismatch: expected {FEATURES_SCHEMA!r}")
            schema = FeatureSchema(
                task=header["task"],
                feature_set=header["feature_set"],
                sparse_names=list(header["sparse_names"]),
                dense_names=list(header["dense_names"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise located_error(path, 1, exc) from None
        records = []
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                records.append(_feature_record(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise located_error(path, line_no, exc) from None
    return schema, records
