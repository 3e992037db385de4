"""Feature extraction for claim pairs.

Bag-of-words blocks use difference encoding, count(second) - count(first),
so swapping the pair negates the block. Dense surface and similarity
features follow fixed name orders so feature files, trained weights and
reports stay aligned. Dense features are standardized later by the
trainer using training-split statistics.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

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
    """Every format error is one ValueError naming the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            record = json.load(handle)
            if not isinstance(record, dict):
                raise ValueError("expected a JSON object")
            if record.get("schema") != VOCAB_SCHEMA:
                raise ValueError(f"schema mismatch: expected {VOCAB_SCHEMA!r}")
            tokens = record["tokens"]
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise ValueError("tokens must be a list of strings")
            token_to_index = {t: i for i, t in enumerate(tokens)}
            if len(token_to_index) != len(tokens):
                raise ValueError("tokens repeat")
            return Vocabulary(
                token_to_index=token_to_index,
                min_count=int(record["min_count"]),
                built_from=str(record["built_from"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise located_error(path, None, exc) from None


@dataclass
class Lexicon:
    """Polarity in [-1, 1] plus subjectivity strength per token."""

    entries: dict[str, tuple[float, str]] = field(default_factory=dict)

    def polarity(self, token: str) -> float:
        return self.entries.get(token, (0.0, "none"))[0]

    def subjectivity(self, token: str) -> str:
        return self.entries.get(token, (0.0, "none"))[1]


def read_lexicon_file(path: str) -> Lexicon:
    """Tab-separated rows: token, polarity, strong|weak.

    A bad row raises located_error: "<path>:<line>: <reason>".
    """
    entries: dict[str, tuple[float, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                token, polarity, subjectivity = _lexicon_row(line)
            except ValueError as exc:
                raise located_error(path, line_no, exc) from None
            entries[token] = (polarity, subjectivity)
    return Lexicon(entries=entries)


def _lexicon_row(line: str) -> tuple[str, float, str]:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise ValueError("expected 3 tab-separated fields")
    token, polarity_raw, subjectivity = parts
    try:
        polarity = float(polarity_raw)
    except ValueError:
        raise ValueError(f"bad polarity {polarity_raw!r}") from None
    if not -1.0 <= polarity <= 1.0:
        raise ValueError(f"polarity {polarity} outside [-1, 1]")
    if subjectivity not in ("strong", "weak"):
        raise ValueError(f"subjectivity must be strong or weak, got {subjectivity!r}")
    return token, polarity, subjectivity


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
    """Space-separated rows: token v1 ... vk, constant dimension.

    A bad row raises located_error: "<path>:<line>: <reason>".
    """
    vectors: dict[str, np.ndarray] = {}
    dim: Optional[int] = None
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            try:
                if dim is None:
                    dim = len(values)
                    if dim == 0:
                        raise ValueError("no vector components")
                elif len(values) != dim:
                    raise ValueError(f"dimension mismatch (expected {dim}, got {len(values)})")
                vectors[token] = np.array([float(v) for v in values])
            except ValueError as exc:
                raise located_error(path, line_no, exc) from None
    if dim is None:
        raise located_error(path, None, ValueError("empty embeddings file"))
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


def _count_matrix(counts: Sequence[dict[int, float]], width: int) -> sp.csr_matrix:
    """Row t holds counts[t], over `width` vocabulary columns."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in counts], out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(counts), np.int64, indptr[-1])
    data = np.fromiter(
        itertools.chain.from_iterable(c.values() for c in counts), np.float64, indptr[-1]
    )
    matrix = sp.csr_matrix((data, indices, indptr), shape=(len(counts), width))
    matrix.sort_indices()
    return matrix


def _bow_diff_rows(
    counts: sp.csr_matrix, first: Sequence[int], second: Sequence[int]
) -> sp.csr_matrix:
    """Row i is count(second[i]) - count(first[i]): zeros dropped, indices sorted."""
    diff = counts[np.asarray(second, dtype=np.intp)] - counts[np.asarray(first, dtype=np.intp)]
    diff.sort_indices()
    return diff


def _bow_diff(first: dict[int, float], second: dict[int, float]) -> dict[int, float]:
    """count(second) - count(first), zeros dropped."""
    width = 1 + max(itertools.chain(first, second), default=-1)
    row = _bow_diff_rows(_count_matrix([first, second], width), [0], [1])
    return dict(zip(row.indices.tolist(), row.data.tolist()))


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


def _surface_rows(
    triples: np.ndarray, first: Sequence[int], second: Sequence[int]
) -> np.ndarray:
    """Row i: the SPECIFICITY_DENSE_NAMES of triples[first[i]] vs triples[second[i]]."""
    a = triples[np.asarray(first, dtype=np.intp)]
    b = triples[np.asarray(second, dtype=np.intp)]
    # (first, second, diff) per measure: len_first, len_second, len_diff, pron_first, ...
    return np.stack([a, b, b - a], axis=2).reshape(len(a), len(SPECIFICITY_DENSE_NAMES))


def _surface_dense(
    first: tuple[float, float, float], second: tuple[float, float, float]
) -> dict[str, float]:
    row = _surface_rows(np.array([first, second]), [0], [1])[0]
    return dict(zip(SPECIFICITY_DENSE_NAMES, row.tolist()))


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


def _stance_dense(a: _StanceText, b: _StanceText) -> dict[str, float]:
    """The dense stance features in STANCE_DENSE_NAMES order, then the embedding cosine."""
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
    return dense


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
    a = _stance_text(vocab, lexicon, a_text, embeddings, stop_tokens)
    b = _stance_text(vocab, lexicon, b_text, embeddings, stop_tokens)
    return FeatureVector(sparse=_bow_diff(a.counts, b.counts), dense=_stance_dense(a, b))


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
    """One feature row: the unit `FeatureTable.from_records` takes."""

    label: str
    sparse: dict[int, float]
    dense: dict[str, float]
    topic_id: str
    distance: int
    same_stance: Optional[bool]


class _RowError(ValueError):
    """A bad row found while building a table; `row` counts from 0."""

    def __init__(self, row: int, reason: str):
        super().__init__(reason)
        self.row = row


@dataclass(eq=False)
class FeatureTable:
    """Feature rows held as columns.

    `sparse` is the CSR block of the bag-of-words columns: one row per
    example, `len(schema.sparse_names)` columns, indices sorted within each
    row and every stored value kept (a stored zero stays an entry).
    `dense` is an n x k float array in `schema.dense_names` order; a name a
    row does not give reads 0.0. Two tables are equal when their schemas,
    columns and the bits of both blocks are.
    """

    schema: FeatureSchema
    labels: list[str]
    topic_ids: list[str]
    distances: list[int]
    same_stance: list[Optional[bool]]
    sparse: sp.csr_matrix
    dense: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureTable):
            return NotImplemented
        return self._key() == other._key()

    def _key(self) -> tuple:
        return (
            self.schema,
            self.labels,
            self.topic_ids,
            self.distances,
            self.same_stance,
            self.sparse.shape,
            self.sparse.indptr.tolist(),
            self.sparse.indices.tolist(),
            self.sparse.data.tobytes(),
            self.dense.shape,
            self.dense.tobytes(),
        )

    @classmethod
    def from_records(cls, schema: FeatureSchema, records: Iterable[FeatureRecord]) -> FeatureTable:
        """The table of rows given one record each; a bad sparse index names its record."""
        columns = _Columns(schema)
        for record in records:
            columns.append(
                record.label, record.topic_id, record.distance, record.same_stance,
                record.sparse.keys(), record.sparse.values(),
                [record.dense.get(name, 0.0) for name in schema.dense_names],
            )
        try:
            return columns.table()
        except _RowError as exc:
            raise ValueError(f"record {exc.row}: {exc}") from None


@dataclass
class _Columns:
    """Column buffers that rows are appended to, row by row."""

    schema: FeatureSchema
    labels: list = field(default_factory=list)
    topic_ids: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    same_stance: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    data: list = field(default_factory=list)
    row_lengths: list = field(default_factory=list)
    dense: list = field(default_factory=list)

    def append(
        self,
        label: str,
        topic_id: str,
        distance: int,
        same_stance: Optional[bool],
        indices: Iterable[int],
        data: Iterable[float],
        dense: list[float],
    ) -> None:
        self.labels.append(label)
        self.topic_ids.append(topic_id)
        self.distances.append(distance)
        self.same_stance.append(same_stance)
        size = len(self.indices)
        self.indices.extend(indices)
        self.row_lengths.append(len(self.indices) - size)
        self.data.extend(data)
        self.dense.extend(dense)

    def table(self) -> FeatureTable:
        """Sorts each row's sparse entries; an index out of range or repeated is a _RowError."""
        n = len(self.labels)
        width = len(self.schema.sparse_names)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.row_lengths, out=indptr[1:])
        data = np.array(self.data, dtype=np.float64)
        try:
            indices = np.array(self.indices, dtype=np.int64)
        except OverflowError:
            raise self._out_of_range(indptr, width) from None
        if indices.size and (indices.min() < 0 or indices.max() >= width):
            raise self._out_of_range(indptr, width)
        rows = np.repeat(np.arange(n), self.row_lengths)
        same_row = np.diff(rows) == 0
        if np.any(same_row & (np.diff(indices) <= 0)):
            # rows is sorted already, so sorting by (row, index) leaves it as it is
            order = np.lexsort((indices, rows))
            indices, data = indices[order], data[order]
            repeated = same_row & (np.diff(indices) == 0)
            if repeated.any():
                at = int(np.argmax(repeated))
                raise _RowError(int(rows[at]), f"sparse index {indices[at]} repeats")
        k = len(self.schema.dense_names)
        return FeatureTable(
            schema=self.schema,
            labels=self.labels,
            topic_ids=self.topic_ids,
            distances=self.distances,
            same_stance=self.same_stance,
            sparse=sp.csr_matrix((data, indices, indptr), shape=(n, width)),
            dense=np.array(self.dense, dtype=np.float64).reshape(n, k),
        )

    def _out_of_range(self, indptr: np.ndarray, width: int) -> _RowError:
        for row in range(len(self.row_lengths)):
            for index in self.indices[indptr[row] : indptr[row + 1]]:
                if not 0 <= index < width:
                    return _RowError(row, f"sparse index {index} out of range [0, {width})")
        raise AssertionError("no sparse index is out of range")


def _text_rows(pairs: Sequence[tuple[str, str]]) -> tuple[list[str], list[int], list[int]]:
    """The distinct texts of the pairs, and each pair's two row numbers among them."""
    row_of: dict[str, int] = {}
    first = [row_of.setdefault(a, len(row_of)) for a, _ in pairs]
    second = [row_of.setdefault(b, len(row_of)) for _, b in pairs]
    return list(row_of), first, second


def _example_table(
    schema: FeatureSchema, examples: Sequence, sparse: sp.csr_matrix, dense: np.ndarray
) -> FeatureTable:
    return FeatureTable(
        schema=schema,
        labels=[example.label.value for example in examples],
        topic_ids=[example.topic_id for example in examples],
        distances=[example.distance for example in examples],
        same_stance=[example.same_stance for example in examples],
        sparse=sparse,
        dense=dense,
    )


def featurize_specificity(
    examples: Iterable[SpecificityExample],
    vocab: Optional[Vocabulary],
    lexicon: Lexicon,
    feature_set: str = "both",
) -> FeatureTable:
    """Specificity features from pair texts only; the path is never used.

    Each distinct text is tokenized, counted and measured once; the
    examples' rows are differences of those per-text rows.
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
    examples = list(examples)
    texts, first, second = _text_rows([(e.first_text, e.second_text) for e in examples])
    tokens = [tokenize(text) for text in texts]
    if use_bow:
        counts = _count_matrix([_bow_counts(vocab, t) for t in tokens], len(vocab))
        sparse = _bow_diff_rows(counts, first, second)
    else:
        sparse = sp.csr_matrix((len(examples), 0))
    if use_surface:
        triples = np.array([_surface_triple(lexicon, t) for t in tokens]).reshape(-1, 3)
        dense = _surface_rows(triples, first, second)
    else:
        dense = np.zeros((len(examples), 0))
    return _example_table(schema, examples, sparse, dense)


def featurize_stance(
    examples: Iterable[StanceExample],
    vocab: Vocabulary,
    lexicon: Lexicon,
    embeddings: Optional[EmbeddingTable] = None,
    use_path: bool = False,
) -> FeatureTable:
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
    examples = list(examples)
    texts, first, second = _text_rows([
        _path_concat(e.path_texts) if use_path else (e.path_texts[0], e.path_texts[-1])
        for e in examples
    ])
    per_text = [_stance_text(vocab, lexicon, text, embeddings, stop) for text in texts]
    sparse = _bow_diff_rows(_count_matrix([t.counts for t in per_text], len(vocab)), first, second)
    dense = np.array(
        [list(_stance_dense(per_text[a], per_text[b]).values()) for a, b in zip(first, second)]
    ).reshape(len(examples), len(dense_names))
    return _example_table(schema, examples, sparse, dense)


def write_features(table: FeatureTable, stream: IO[str]) -> None:
    """One header line, then one JSON object per row.

    A row's sparse object lists its stored entries in index order, its
    dense object every dense name in schema order.
    """
    schema = table.schema
    encode = json.JSONEncoder(ensure_ascii=False).encode
    header = {
        "schema": FEATURES_SCHEMA,
        "task": schema.task,
        "feature_set": schema.feature_set,
        "sparse_names": schema.sparse_names,
        "dense_names": schema.dense_names,
    }
    stream.write(encode(header) + "\n")
    keys = [str(i) for i in table.sparse.indices.tolist()]
    values = table.sparse.data.tolist()
    indptr = table.sparse.indptr.tolist()
    dense_rows = table.dense.tolist()
    for row, (label, topic_id, distance, same_stance) in enumerate(
        zip(table.labels, table.topic_ids, table.distances, table.same_stance)
    ):
        start, end = indptr[row], indptr[row + 1]
        line = {
            "label": label,
            "sparse": dict(zip(keys[start:end], values[start:end])),
            "dense": dict(zip(schema.dense_names, dense_rows[row])),
            "topic_id": topic_id,
            "distance": distance,
            "same_stance": "n/a" if same_stance is None else same_stance,
        }
        stream.write(encode(line) + "\n")


def write_features_file(table: FeatureTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_features(table, handle)


def _read_row(row: object, columns: _Columns) -> None:
    """Appends one parsed row; sparse keys convert with int(), values with float()."""
    if not isinstance(row, dict):
        raise ValueError("expected a JSON object")
    sparse, dense = row["sparse"], row["dense"]
    if not isinstance(sparse, dict) or not isinstance(dense, dict):
        raise ValueError("sparse and dense must be JSON objects")
    same_stance = row["same_stance"]
    label = row["label"]
    indices = list(map(int, sparse))
    data = list(map(float, sparse.values()))
    values = dict(zip(dense, map(float, dense.values())))
    topic_id = row["topic_id"]
    distance = int(row["distance"])
    if not isinstance(label, str) or not isinstance(topic_id, str):
        raise ValueError("label and topic_id must be strings")
    columns.append(
        label, topic_id, distance, None if same_stance == "n/a" else bool(same_stance),
        indices, data, [values.get(name, 0.0) for name in columns.schema.dense_names],
    )


def read_features_file(path: str) -> FeatureTable:
    """Rows stream straight into column buffers.

    Every format error is one ValueError naming the file and line.
    """
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
        columns = _Columns(schema)
        line_numbers = []
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                _read_row(json.loads(line), columns)
            except (ValueError, KeyError, TypeError) as exc:
                raise located_error(path, line_no, exc) from None
            line_numbers.append(line_no)
    try:
        return columns.table()
    except _RowError as exc:
        raise located_error(path, line_numbers[exc.row], exc) from None
