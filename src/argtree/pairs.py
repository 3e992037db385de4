"""Claim-pair dataset derivation and topic-level splits.

Two tasks are derived from ancestor/descendant pairs:

* relative specificity: the descendant is the more specific claim; pair
  order is randomized by a seeded coin so presentation order carries no
  signal, and models never see path information.
* relative stance: a descendant supports its ancestor exactly when the
  number of con edges on the connecting path is even; examples carry the
  full path so path-aware models can read intermediate claims.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Iterator, Optional, Sequence

from .trees import EDGES_BY_VALUE, ArgumentTree, StanceEdge, ancestor_descendant_pairs, path_between

DEFAULT_SPECIFICITY_MAX_DISTANCE = 5
DEFAULT_STANCE_MAX_DISTANCE = 4


class SpecificityLabel(Enum):
    SECOND_MORE_SPECIFIC = "second_more_specific"
    FIRST_MORE_SPECIFIC = "first_more_specific"


class StanceLabel(Enum):
    SUPPORTS = "supports"
    OPPOSES = "opposes"


# Each enum's members by value, for the pairs reader.
_SPECIFICITY_LABELS = {label.value: label for label in SpecificityLabel}
_STANCE_LABELS = {label.value: label for label in StanceLabel}


@dataclass
class SpecificityExample:
    topic_id: str
    first_id: str
    second_id: str
    first_text: str
    second_text: str
    distance: int
    label: SpecificityLabel
    same_stance: Optional[bool]


@dataclass
class StanceExample:
    topic_id: str
    a_id: str
    b_id: str
    distance: int
    path_texts: list[str]
    path_edges: list[StanceEdge]
    label: StanceLabel
    same_stance: Optional[bool]


def derive_stance_label(path_edges: Sequence[StanceEdge]) -> StanceLabel:
    """Supports iff the path carries an even number of con edges."""
    if not path_edges:
        raise ValueError("empty path")
    con = path_edges.count(StanceEdge.CON)
    return StanceLabel.SUPPORTS if con % 2 == 0 else StanceLabel.OPPOSES


def _orientation_flip(seed: int, topic_id: str, a_id: str, b_id: str) -> bool:
    """Seeded coin for pair presentation order, stable across runs."""
    digest = hashlib.sha256(
        f"{seed}:{topic_id}:{a_id}:{b_id}".encode("utf-8")
    ).digest()
    return bool(digest[0] & 1)


def _same_stance(tree: ArgumentTree, ancestor_id: str, descendant_id: str) -> Optional[bool]:
    ancestor = tree.nodes[ancestor_id]
    if ancestor.stance_to_parent is None:
        return None
    return ancestor.stance_to_parent is tree.nodes[descendant_id].stance_to_parent


def derive_specificity_examples(
    trees: Iterable[ArgumentTree],
    max_distance: int = DEFAULT_SPECIFICITY_MAX_DISTANCE,
    seed: int = 0,
) -> Iterator[SpecificityExample]:
    """One example per ancestor/descendant pair within the distance cap.

    The descendant is presented second when the seeded coin lands 0, in
    which case the label is SECOND_MORE_SPECIFIC; otherwise the pair is
    swapped and the label is FIRST_MORE_SPECIFIC. The same-stance flag
    compares the two claims' stances toward their own parents and is
    None when the ancestor is the thesis.
    """
    for tree in trees:
        for ancestor_id, descendant_id, distance in ancestor_descendant_pairs(tree, max_distance):
            flip = _orientation_flip(seed, tree.topic_id, ancestor_id, descendant_id)
            ancestor_text = tree.nodes[ancestor_id].text
            descendant_text = tree.nodes[descendant_id].text
            if flip:
                first_id, second_id = descendant_id, ancestor_id
                first_text, second_text = descendant_text, ancestor_text
                label = SpecificityLabel.FIRST_MORE_SPECIFIC
            else:
                first_id, second_id = ancestor_id, descendant_id
                first_text, second_text = ancestor_text, descendant_text
                label = SpecificityLabel.SECOND_MORE_SPECIFIC
            yield SpecificityExample(
                topic_id=tree.topic_id,
                first_id=first_id,
                second_id=second_id,
                first_text=first_text,
                second_text=second_text,
                distance=distance,
                label=label,
                same_stance=_same_stance(tree, ancestor_id, descendant_id),
            )


def derive_stance_examples(
    trees: Iterable[ArgumentTree],
    max_distance: int = DEFAULT_STANCE_MAX_DISTANCE,
) -> Iterator[StanceExample]:
    """One labeled example per pair, with the full ancestor-to-descendant path."""
    for tree in trees:
        for ancestor_id, descendant_id, distance in ancestor_descendant_pairs(tree, max_distance):
            chain, edges = path_between(tree, ancestor_id, descendant_id)
            yield StanceExample(
                topic_id=tree.topic_id,
                a_id=ancestor_id,
                b_id=descendant_id,
                distance=distance,
                path_texts=[tree.nodes[node_id].text for node_id in chain],
                path_edges=edges,
                label=derive_stance_label(edges),
                same_stance=_same_stance(tree, ancestor_id, descendant_id),
            )


@dataclass
class TopicSplit:
    train: frozenset[str]
    dev: frozenset[str]
    test: frozenset[str]
    seed: int
    ratios: tuple[float, float, float]

    def part(self, name: str) -> frozenset[str]:
        if name not in ("train", "dev", "test"):
            raise ValueError(f"unknown split part {name!r}")
        return getattr(self, name)


def valid_ratios(ratios: Sequence[float]) -> bool:
    """Each ratio is non-negative and they sum to 1 within 1e-9."""
    # written so that a NaN ratio fails it too
    return all(r >= 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9


def split_by_topic(
    topic_ids: Sequence[str],
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> TopicSplit:
    """Disjoint train/dev/test topic sets via seeded shuffle.

    Topic ids are sorted, shuffled with the seed, then assigned
    contiguously. Sizes follow the largest-remainder rule, so each split
    differs from its exact ratio share by less than one topic.
    """
    if len(set(topic_ids)) != len(topic_ids):
        raise ValueError("duplicate topic ids")
    if len(topic_ids) < 3:
        raise ValueError("fewer topics than splits")
    if not valid_ratios(ratios):
        raise ValueError(f"ratios must be non-negative and sum to 1, got {ratios!r}")
    ordered = sorted(topic_ids)
    random.Random(seed).shuffle(ordered)
    n = len(ordered)
    exact = [n * r for r in ratios]
    sizes = [int(x) for x in exact]
    remainder = n - sum(sizes)
    by_fraction = sorted(range(3), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in range(remainder):
        sizes[by_fraction[i]] += 1
    train = ordered[: sizes[0]]
    dev = ordered[sizes[0] : sizes[0] + sizes[1]]
    test = ordered[sizes[0] + sizes[1] :]
    return TopicSplit(
        train=frozenset(train),
        dev=frozenset(dev),
        test=frozenset(test),
        seed=seed,
        ratios=tuple(ratios),
    )


SPLIT_SCHEMA = "argtree-split/1"


def write_split(split: TopicSplit, stream: IO[str]) -> None:
    record = {
        "schema": SPLIT_SCHEMA,
        "seed": split.seed,
        "ratios": list(split.ratios),
        "train": sorted(split.train),
        "dev": sorted(split.dev),
        "test": sorted(split.test),
    }
    json.dump(record, stream, ensure_ascii=False, indent=2)
    stream.write("\n")


def _topic_ids(record: dict, part: str) -> frozenset[str]:
    ids = record[part]
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise ValueError(f"{part} must be a list of strings")
    return frozenset(ids)


def read_split_file(path: str) -> TopicSplit:
    """Every format error is one ValueError naming the file."""
    with open_text(path) as handle:
        text = handle.read()
        try:
            record = json.loads(text)
            if not isinstance(record, dict):
                raise ValueError("expected a JSON object")
            if record.get("schema") != SPLIT_SCHEMA:
                raise ValueError(f"schema mismatch: expected {SPLIT_SCHEMA!r}")
            if not isinstance(record["ratios"], list):
                raise ValueError("ratios must be a list")
            return TopicSplit(
                train=_topic_ids(record, "train"),
                dev=_topic_ids(record, "dev"),
                test=_topic_ids(record, "test"),
                seed=int(record["seed"]),
                ratios=tuple(record["ratios"]),
            )
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise located_error(path, None, exc) from None


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


@contextmanager
def open_text(path: str) -> Iterator[IO[str]]:
    """The file opened as UTF-8 text for reading.

    Bytes that do not decode, wherever the reader meets them, raise one
    ValueError "<path>: not UTF-8 text (<reason>)". It names no line: the
    decoder reads the file in chunks, ahead of the line being parsed.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def located_error(source: str, line_no: Optional[int], exc: Exception) -> ValueError:
    """The one error a reader raises for a bad record: "<source>:<line>: <reason>".

    Readers of whole-file JSON documents pass no line: "<source>: <reason>".
    """
    if isinstance(exc, json.JSONDecodeError):
        reason = f"invalid JSON ({exc.msg})"
    elif isinstance(exc, KeyError):
        reason = f"missing field {exc.args[0]!r}"
    else:
        reason = str(exc)
    where = source if line_no is None else f"{source}:{line_no}"
    return ValueError(f"{where}: {reason}")


# Lines that json_blocks decodes with one json.loads call.
DECODE_LINES = 32


def json_blocks(
    stream: IO[str] | Iterable[str], source: str, start: int = 1
) -> Iterator[tuple[list[int], list]]:
    """The lines of stream that are not blank, decoded: blocks of (line numbers, values).

    Lines are numbered from start. A block of up to DECODE_LINES lines is
    decoded by one json.loads call, as one array that holds a null between
    each two lines; equal object keys of those lines then share one str.
    Its values are taken only when no line holds the text "null" and the
    array holds 2n - 1 values, n - 1 of them null: every null is then a
    separator, so each line decoded alone to the one value between two of
    them, as json.loads(line) does. Otherwise the block's lines are decoded
    one by one. A line that does not decode raises located_error(source,
    line, exc), and an error reading the stream is raised, only after the
    values of the lines before it are yielded: a caller that converts a
    block before it takes the next reports the first bad line of the stream.
    """
    lines = enumerate(stream, start=start)
    while True:
        numbers: list[int] = []
        block: list[str] = []
        try:
            for line_no, line in lines:
                if line.strip():
                    numbers.append(line_no)
                    block.append(line)
                    if len(block) == DECODE_LINES:
                        break
        except (ValueError, OSError):
            yield from _decoded(numbers, block, source)
            raise
        if not block:
            return
        yield from _decoded(numbers, block, source)


def _decoded(numbers: list[int], block: list[str], source: str) -> Iterator[tuple[list[int], list]]:
    """The block's values, by one json.loads call where that is sound (see json_blocks)."""
    n = len(block)
    text = "[" + ",null,".join(block) + "]"
    if text.count("null") == n - 1:
        try:
            values = json.loads(text)
        except (ValueError, RecursionError):
            values = []
        if len(values) == 2 * n - 1 and values.count(None) == n - 1:
            yield numbers, values[::2]
            return
    values = []
    for line_no, line in zip(numbers, block):
        try:
            values.append(json.loads(line))
        except json.JSONDecodeError as exc:
            yield numbers[: len(values)], values
            raise located_error(source, line_no, exc) from None
    yield numbers, values


def _example_from_record(
    record: object, strings: dict[str, str]
) -> SpecificityExample | StanceExample:
    """The example of one decoded pairs line; a bad record raises ValueError, KeyError or TypeError.

    Fields are read in one fixed order, so a record with several faults
    names the first. A str value is replaced by the equal one that strings
    holds (and added if new); a value of another type is kept as it is. A
    label or path edge that is a known str is taken from its enum's
    members by value; anything else goes through the enum call, which
    raises its own error for a value it does not know.
    """
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    task = record.get("task")
    share = strings.setdefault
    if task == "specificity":
        topic_id, first_id, second_id, first_text, second_text = (
            record["topic_id"], record["first_id"], record["second_id"],
            record["first_text"], record["second_text"],
        )
        distance = int(record["distance"])
        label = record["label"]
        try:
            label = _SPECIFICITY_LABELS[label]
        except (KeyError, TypeError):
            label = SpecificityLabel(label)
        same_stance = record["same_stance"]
        return SpecificityExample(
            share(topic_id, topic_id) if type(topic_id) is str else topic_id,
            share(first_id, first_id) if type(first_id) is str else first_id,
            share(second_id, second_id) if type(second_id) is str else second_id,
            share(first_text, first_text) if type(first_text) is str else first_text,
            share(second_text, second_text) if type(second_text) is str else second_text,
            distance,
            label,
            None if same_stance == "n/a" else bool(same_stance),
        )
    if task == "stance":
        topic_id, a_id, b_id = record["topic_id"], record["a_id"], record["b_id"]
        distance = int(record["distance"])
        texts = [share(t, t) if type(t) is str else t for t in record["path_texts"]]
        edges = record["path_edges"]
        try:
            edges = list(map(EDGES_BY_VALUE.__getitem__, edges))
        except (KeyError, TypeError):
            edges = [StanceEdge(e) for e in edges]
        label = record["label"]
        try:
            label = _STANCE_LABELS[label]
        except (KeyError, TypeError):
            label = StanceLabel(label)
        same_stance = record["same_stance"]
        example = StanceExample(
            share(topic_id, topic_id) if type(topic_id) is str else topic_id,
            share(a_id, a_id) if type(a_id) is str else a_id,
            share(b_id, b_id) if type(b_id) is str else b_id,
            distance,
            texts,
            edges,
            label,
            None if same_stance == "n/a" else bool(same_stance),
        )
        _check_path(example)
        return example
    raise ValueError(f"unknown task {task!r}")


def _check_path(example: StanceExample) -> None:
    """The path, its distance and its label agree, as derive_stance_examples makes them."""
    claims, edges = len(example.path_texts), len(example.path_edges)
    if claims < 2:
        raise ValueError(f"path_texts holds {claims} claim(s), fewer than 2")
    if edges != claims - 1:
        raise ValueError(f"path_edges holds {edges} edge(s) for {claims} claims")
    if example.distance != edges:
        raise ValueError(f"distance {example.distance} is not the path's {edges} edge(s)")
    if example.label is not derive_stance_label(example.path_edges):
        raise ValueError(
            f"label {example.label.value!r} disagrees with the con edges of path_edges"
        )


def read_pairs(
    stream: IO[str] | Iterable[str], source: str = "<pairs>"
) -> Iterator[SpecificityExample | StanceExample]:
    """Examples from pairs lines; a bad line raises located_error(source, line).

    A stance record is bad as well when its path, distance and label
    disagree (see _check_path).

    Equal strings within one stream are one str object, so a claim text
    that many examples hold is stored, and hashed by the per-text caches,
    once.
    """
    strings: dict[str, str] = {}
    for numbers, records in json_blocks(stream, source):
        for line_no, record in zip(numbers, records):
            try:
                example = _example_from_record(record, strings)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise located_error(source, line_no, exc) from None
            yield example


def read_pairs_file(path: str) -> list[SpecificityExample | StanceExample]:
    with open_text(path) as handle:
        return list(read_pairs(handle, source=path))
