"""Feature extraction for claim pairs.

Bag-of-words blocks use difference encoding, count(second) - count(first),
so swapping the pair negates the block. Dense surface and similarity
features follow fixed name orders so feature files, trained weights and
reports stay aligned. Dense features are standardized later by the
trainer using training-split statistics.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .jsonl import (
    BLOCK_ROWS,
    SAME_STANCE_JSON,
    EncodedStrings,
    decode_json,
    encode_float,
    encode_int,
    encode_str,
    json_blocks,
    located_error,
    open_text,
    read_document,
)
from .pairs import SpecificityExample, StanceExample
from .text import tokenize

if TYPE_CHECKING:
    import scipy.sparse as sp

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


def read_vocabulary_file(path: str) -> Vocabulary:
    """Every format error is one ValueError naming the file."""
    return read_document(path, VOCAB_SCHEMA, _vocabulary_from_record)


def _vocabulary_from_record(record: dict) -> Vocabulary:
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
    with open_text(path) as handle:
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
    with open_text(path) as handle:
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


def _bow_counts(vocab: Vocabulary, tokens: Sequence[str]) -> dict[int, float]:
    counts: dict[int, float] = {}
    for token in tokens:
        index = vocab.token_to_index.get(token)
        if index is not None:
            counts[index] = counts.get(index, 0.0) + 1.0
    return counts


def csr_matrix(arg, shape: Optional[tuple[int, int]] = None) -> sp.csr_matrix:
    """`scipy.sparse.csr_matrix(arg, shape=shape)`.

    scipy.sparse is imported on the first call, not with this module, so
    commands that never build a sparse matrix do not pay to load it.
    """
    import scipy.sparse

    return scipy.sparse.csr_matrix(arg, shape=shape)


def index_dtype(*bounds: int) -> type:
    """The CSR index dtype for a shape and an entry count no larger than max(bounds).

    int32 when that fits, else int64: the dtype scipy's CSR constructor
    settles on. Index arrays built in it from the start are not copied.
    """
    return np.int32 if max(bounds, default=0) <= np.iinfo(np.int32).max else np.int64


def _count_matrix(counts: Sequence[dict[int, float]], width: int) -> sp.csr_matrix:
    """Row t holds counts[t], over `width` vocabulary columns."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in counts], out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(counts), np.int64, indptr[-1])
    data = np.fromiter(
        itertools.chain.from_iterable(c.values() for c in counts), np.float64, indptr[-1]
    )
    matrix = csr_matrix((data, indices, indptr), shape=(len(counts), width))
    matrix.sort_indices()
    return matrix


def _bow_diff_rows(
    counts: sp.csr_matrix, first: Sequence[int], second: Sequence[int]
) -> sp.csr_matrix:
    """Row i is count(second[i]) - count(first[i]): zeros dropped, indices sorted."""
    diff = counts[np.asarray(second, dtype=np.intp)] - counts[np.asarray(first, dtype=np.intp)]
    diff.sort_indices()
    return diff


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


def _path_concat(path_texts: Sequence[str]) -> tuple[str, str]:
    """(all path claims but the last, space-joined; the last claim)."""
    if len(path_texts) < 2:
        raise ValueError("path must contain at least two claims")
    return " ".join(path_texts[:-1]), path_texts[-1]


@dataclass
class FeatureSchema:
    task: str
    feature_set: str
    sparse_names: list[str]
    dense_names: list[str]

    @property
    def width(self) -> int:
        return len(self.sparse_names) + len(self.dense_names)


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


@dataclass
class _Block:
    """BLOCK_ROWS rows (fewer for the last) of sparse and dense values as arrays."""

    row_lengths: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dense: np.ndarray


@dataclass
class _Columns:
    """Column buffers that rows are appended to, row by row.

    The sparse and dense values of the open block collect in lists; each
    full block moves into arrays, with its rows' entries sorted. The first
    out-of-range and the first repeated sparse index are kept, not raised,
    so that `table()` reports them after any error found in a later row.
    Equal labels and topic ids share one str object (`strings`).
    `index_of` maps the text of each sparse index in range to the index.
    """

    schema: FeatureSchema
    strings: dict[str, str] = field(default_factory=dict)
    labels: list = field(default_factory=list)
    topic_ids: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    same_stance: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    data: list = field(default_factory=list)
    row_lengths: list = field(default_factory=list)
    dense: list = field(default_factory=list)
    blocks: list[_Block] = field(default_factory=list)
    out_of_range: Optional[_RowError] = None
    repeated: Optional[_RowError] = None
    index_of: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.index_of = {str(i): i for i in range(len(self.schema.sparse_names))}

    def read_row(self, row: object) -> None:
        """Appends one decoded row of a features file; a bad row raises, and spoils the columns.

        Fields are checked in one fixed order, so a row with several faults
        names the first. A sparse key converts through `index_of`, and with
        int() when it is not there (" 12", "012", an index out of range);
        values convert with float(). Dense values are taken in order when the
        row's dense names are the schema's, in order; otherwise by name, a
        name the row does not give reading 0.0.
        """
        if not isinstance(row, dict):
            raise ValueError("expected a JSON object")
        sparse, dense = row["sparse"], row["dense"]
        if not isinstance(sparse, dict) or not isinstance(dense, dict):
            raise ValueError("sparse and dense must be JSON objects")
        same_stance = row["same_stance"]
        label = row["label"]
        size = len(self.indices)
        try:
            self.indices.extend(map(self.index_of.__getitem__, sparse))
        except KeyError:
            del self.indices[size:]
            self.indices.extend(map(int, sparse))
        self.data.extend(map(float, sparse.values()))
        names = self.schema.dense_names
        if list(dense) == names:
            self.dense.extend(map(float, dense.values()))
        else:
            values = dict(zip(dense, map(float, dense.values())))
            self.dense.extend([values.get(name, 0.0) for name in names])
        topic_id = row["topic_id"]
        distance = int(row["distance"])
        if not isinstance(label, str) or not isinstance(topic_id, str):
            raise ValueError("label and topic_id must be strings")
        self.labels.append(self.strings.setdefault(label, label))
        self.topic_ids.append(self.strings.setdefault(topic_id, topic_id))
        self.distances.append(distance)
        self.same_stance.append(None if same_stance == "n/a" else bool(same_stance))
        self.row_lengths.append(len(self.indices) - size)
        if len(self.row_lengths) == BLOCK_ROWS:
            self._pack()

    def _pack(self) -> None:
        """Moves the open block into arrays, unless an earlier bad index dooms the table."""
        first_row = len(self.labels) - len(self.row_lengths)
        width = len(self.schema.sparse_names)
        if self.out_of_range is None:
            try:
                indices = np.array(self.indices, dtype=np.int64)
            except OverflowError:
                indices = None
            if indices is None or (indices.size and (indices.min() < 0 or indices.max() >= width)):
                self.out_of_range = self._first_out_of_range(first_row, width)
            elif self.repeated is None:
                self._sort_block(first_row, indices)
        self.indices, self.data, self.row_lengths, self.dense = [], [], [], []

    def _sort_block(self, first_row: int, indices: np.ndarray) -> None:
        lengths = np.array(self.row_lengths, dtype=np.int64)
        data = np.array(self.data, dtype=np.float64)
        rows = np.repeat(np.arange(lengths.size), lengths)
        same_row = np.diff(rows) == 0
        if np.any(same_row & (np.diff(indices) <= 0)):
            # rows is sorted already, so sorting by (row, index) leaves it as it is
            order = np.lexsort((indices, rows))
            indices, data = indices[order], data[order]
            repeated = same_row & (np.diff(indices) == 0)
            if repeated.any():
                at = int(np.argmax(repeated))
                self.repeated = _RowError(
                    first_row + int(rows[at]), f"sparse index {indices[at]} repeats"
                )
                return
        k = len(self.schema.dense_names)
        dense = np.array(self.dense, dtype=np.float64).reshape(lengths.size, k)
        self.blocks.append(_Block(lengths, indices, data, dense))

    def _first_out_of_range(self, first_row: int, width: int) -> _RowError:
        end = 0
        for row, length in enumerate(self.row_lengths):
            start, end = end, end + length
            for index in self.indices[start:end]:
                if not 0 <= index < width:
                    return _RowError(
                        first_row + row, f"sparse index {index} out of range [0, {width})"
                    )
        raise AssertionError("no sparse index is out of range")

    def table(self) -> FeatureTable:
        """The table of every row; a sparse index out of range or repeated is a _RowError.

        Each block is dropped once it is copied into the table's arrays.
        """
        self._pack()
        if self.out_of_range or self.repeated:
            raise self.out_of_range or self.repeated
        n = len(self.labels)
        width = len(self.schema.sparse_names)
        nnz = sum(block.indices.size for block in self.blocks)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(nnz, dtype=index_dtype(n, width, nnz))
        data = np.empty(nnz, dtype=np.float64)
        dense = np.empty((n, len(self.schema.dense_names)), dtype=np.float64)
        row = at = 0
        while self.blocks:
            block = self.blocks.pop(0)
            rows, size = block.row_lengths.size, block.indices.size
            indptr[row + 1 : row + rows + 1] = block.row_lengths
            indices[at : at + size] = block.indices
            data[at : at + size] = block.data
            dense[row : row + rows] = block.dense
            row, at = row + rows, at + size
        np.cumsum(indptr, out=indptr)
        return FeatureTable(
            schema=self.schema,
            labels=self.labels,
            topic_ids=self.topic_ids,
            distances=self.distances,
            same_stance=self.same_stance,
            sparse=csr_matrix((data, indices, indptr), shape=(n, width)),
            dense=dense,
        )


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
        sparse = csr_matrix((len(examples), 0))
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


def _float_texts(values: np.ndarray) -> list[str]:
    """Each float of values, in C order, as json.dumps writes it.

    Each distinct value is rendered once. Values are told apart by their
    bits, so -0.0 and 0.0 stay apart.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = list(map(encode_float, distinct.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def write_features(table: FeatureTable, stream: IO[str]) -> None:
    """One header line, then one JSON object per row.

    A row's sparse object lists its stored entries in index order, its
    dense object every dense name in schema order. Each line is the bytes
    of json.dumps(..., ensure_ascii=False) of its object, joined from
    pieces: the key texts are built once per file, each distinct label and
    topic id is encoded once per file and each distinct value once per
    block. One block of BLOCK_ROWS rows is held as text at a time and
    written with one write.
    """
    schema = table.schema
    header = {
        "schema": FEATURES_SCHEMA,
        "task": schema.task,
        "feature_set": schema.feature_set,
        "sparse_names": schema.sparse_names,
        "dense_names": schema.dense_names,
    }
    stream.write(json.dumps(header, ensure_ascii=False) + "\n")
    sparse_keys = [f'"{i}": ' for i in range(len(schema.sparse_names))]
    dense_keys = [encode_str(name) + ": " for name in schema.dense_names]
    k = len(dense_keys)
    strings = EncodedStrings()
    sparse = table.sparse
    for first in range(0, len(table), BLOCK_ROWS):
        rows = slice(first, first + BLOCK_ROWS)
        indptr = sparse.indptr[first : first + BLOCK_ROWS + 1]
        entries = list(map(
            str.__add__,
            map(sparse_keys.__getitem__, sparse.indices[indptr[0] : indptr[-1]].tolist()),
            _float_texts(sparse.data[indptr[0] : indptr[-1]]),
        ))
        dense = list(map(str.__add__, itertools.cycle(dense_keys), _float_texts(table.dense[rows])))
        bounds = (indptr - indptr[0]).tolist()
        lines = []
        at = 0
        for start, end, label, topic_id, distance, same_stance in zip(
            bounds, bounds[1:], table.labels[rows], table.topic_ids[rows],
            table.distances[rows], table.same_stance[rows],
        ):
            lines.append(
                f'{{"label": {strings[label]}, "sparse": {{{", ".join(entries[start:end])}}}, '
                f'"dense": {{{", ".join(dense[at : at + k])}}}, '
                f'"topic_id": {strings[topic_id]}, "distance": {encode_int(distance)}, '
                f'"same_stance": {SAME_STANCE_JSON[same_stance]}}}\n'
            )
            at += k
        stream.write("".join(lines))


def read_features_file(path: str) -> FeatureTable:
    """Rows, decoded a few dozen at a time (`json_blocks`), stream straight into column buffers.

    Every format error is one ValueError naming the file and line.
    """
    with open_text(path) as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise ValueError(f"empty features file {path!r}")
        try:
            header = decode_json(header_line)
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
        for numbers, rows in json_blocks(handle, path, start=2):
            for line_no, row in zip(numbers, rows):
                try:
                    columns.read_row(row)
                except (ValueError, KeyError, TypeError, OverflowError) as exc:
                    raise located_error(path, line_no, exc) from None
            line_numbers.extend(numbers)
    try:
        return columns.table()
    except _RowError as exc:
        raise located_error(path, line_numbers[exc.row], exc) from None
