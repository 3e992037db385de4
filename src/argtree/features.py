"""Feature extraction for claim pairs.

Bag-of-words blocks use difference encoding, count(second) - count(first),
so swapping the pair negates the block. Dense surface and similarity
features follow fixed name orders so feature files, trained weights and
reports stay aligned. Dense features are standardized later by the
trainer using training-split statistics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .pairs import SpecificityExample, StanceExample
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
    counts: dict[str, int] = {}
    for text in texts:
        for token in tokenize(text):
            counts[token] = counts.get(token, 0) + 1
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


def _bow_counts(vocab: Vocabulary, text: str) -> dict[int, float]:
    counts: dict[int, float] = {}
    for token in tokenize(text):
        index = vocab.token_to_index.get(token)
        if index is not None:
            counts[index] = counts.get(index, 0.0) + 1.0
    return counts


def bow_pair_features(vocab: Vocabulary, first_text: str, second_text: str) -> FeatureVector:
    """Difference encoding: count(second) - count(first), zeros dropped."""
    diff = _bow_counts(vocab, second_text)
    for index, count in _bow_counts(vocab, first_text).items():
        diff[index] = diff.get(index, 0.0) - count
    return FeatureVector(sparse={i: v for i, v in diff.items() if v != 0.0})


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


def _surface_triple(lexicon: Lexicon, text: str) -> tuple[float, float, float]:
    tokens = tokenize(text)
    length = float(len(tokens))
    pronouns = float(sum(1 for t in tokens if t in PERSONAL_PRONOUNS))
    polarity_strength = float(sum(abs(lexicon.polarity(t)) for t in tokens))
    return length, pronouns, polarity_strength


def specificity_surface_features(
    lexicon: Lexicon, first_text: str, second_text: str
) -> FeatureVector:
    """Per-claim length, pronoun count and polarity strength, plus diffs."""
    len_a, pron_a, pol_a = _surface_triple(lexicon, first_text)
    len_b, pron_b, pol_b = _surface_triple(lexicon, second_text)
    dense = {
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
    return FeatureVector(dense=dense)


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
    vector = bow_pair_features(vocab, a_text, b_text)
    tokens_a = tokenize(a_text)
    tokens_b = tokenize(b_text)
    content_a = {t for t in tokens_a if t not in stop_tokens}
    content_b = {t for t in tokens_b if t not in stop_tokens}
    union = content_a | content_b
    intersection = content_a & content_b
    jaccard = 1.0 if not union else len(intersection) / len(union)
    pol_sum_a = sum(lexicon.polarity(t) for t in tokens_a)
    pol_sum_b = sum(lexicon.polarity(t) for t in tokens_b)
    dense = {
        "word_match": float(len(intersection)),
        "jaccard": jaccard,
        "sentiment_match": 1.0 if np.sign(pol_sum_a) == np.sign(pol_sum_b) else 0.0,
        "pol_sum_a": pol_sum_a,
        "pol_sum_b": pol_sum_b,
        "subj_strong_a": float(sum(1 for t in tokens_a if lexicon.subjectivity(t) == "strong")),
        "subj_weak_a": float(sum(1 for t in tokens_a if lexicon.subjectivity(t) == "weak")),
        "subj_strong_b": float(sum(1 for t in tokens_b if lexicon.subjectivity(t) == "strong")),
        "subj_weak_b": float(sum(1 for t in tokens_b if lexicon.subjectivity(t) == "weak")),
    }
    if embeddings is not None:
        mean_a = embeddings.mean_vector(tokens_a)
        mean_b = embeddings.mean_vector(tokens_b)
        norm_a = float(np.linalg.norm(mean_a))
        norm_b = float(np.linalg.norm(mean_b))
        if norm_a == 0.0 or norm_b == 0.0:
            dense[STANCE_EMBED_NAME] = 0.0
        else:
            dense[STANCE_EMBED_NAME] = float(mean_a @ mean_b / (norm_a * norm_b))
    vector.dense = dense
    return vector


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
    if len(path_texts) < 2:
        raise ValueError("path must contain at least two claims")
    concat = " ".join(path_texts[:-1])
    return stance_pair_features(
        vocab, lexicon, concat, path_texts[-1], embeddings=embeddings, stop_tokens=stop_tokens
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
    """Specificity features from pair texts only; the path is never used."""
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
    records = []
    for example in examples:
        sparse: dict[int, float] = {}
        dense: dict[str, float] = {}
        if use_bow:
            sparse = bow_pair_features(vocab, example.first_text, example.second_text).sparse
        if use_surface:
            dense = specificity_surface_features(
                lexicon, example.first_text, example.second_text
            ).dense
        records.append(
            FeatureRecord(
                label=example.label.value,
                sparse=sparse,
                dense=dense,
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
    """Stance features over (ancestor, descendant) or the concatenated path."""
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
    records = []
    for example in examples:
        if use_path:
            vector = path_concat_features(
                vocab, lexicon, example.path_texts, embeddings=embeddings, stop_tokens=stop
            )
        else:
            vector = stance_pair_features(
                vocab,
                lexicon,
                example.path_texts[0],
                example.path_texts[-1],
                embeddings=embeddings,
                stop_tokens=stop,
            )
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


def read_features_file(path: str) -> tuple[FeatureSchema, list[FeatureRecord]]:
    with open(path, encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise ValueError(f"empty features file {path!r}")
        header = json.loads(header_line)
        if header.get("schema") != FEATURES_SCHEMA:
            raise ValueError(f"schema mismatch in features file {path!r}")
        schema = FeatureSchema(
            task=header["task"],
            feature_set=header["feature_set"],
            sparse_names=list(header["sparse_names"]),
            dense_names=list(header["dense_names"]),
        )
        records = []
        for line in handle:
            if not line.strip():
                continue
            row = json.loads(line)
            same_stance = row["same_stance"]
            records.append(
                FeatureRecord(
                    label=row["label"],
                    sparse={int(i): float(v) for i, v in row["sparse"].items()},
                    dense={k: float(v) for k, v in row["dense"].items()},
                    topic_id=row["topic_id"],
                    distance=int(row["distance"]),
                    same_stance=None if same_stance == "n/a" else bool(same_stance),
                )
            )
    return schema, records
