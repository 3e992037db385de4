"""Corpus serialization: canonical JSON-lines format and outline import.

Canonical format: UTF-8, one tree per line, each line an object
{"schema": "argtree/1", "topic_id": ..., "tags": [...], "claims": [...]}
with claims listed in depth-first preorder, root first. Writing a parsed
canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from typing import IO, Iterable, Iterator, Optional

from .jsonl import decode_json, open_text
from .trees import EDGES_BY_VALUE, ArgumentTree, BrokenTreeError, StanceEdge, build_tree, iter_preorder

SCHEMA = "argtree/1"


class CorpusFormatError(ValueError):
    """Raised for malformed corpus or outline input; carries a line number.

    It reads "<source>:<line>: <reason>", or "line <line>: <reason>" when
    the source is not named. An error of the whole input has no line:
    "<source>: <reason>", or the bare reason.
    """

    def __init__(self, line_no: Optional[int], reason: str, source: Optional[str] = None):
        if line_no is None:
            where = source
        else:
            where = f"line {line_no}" if source is None else f"{source}:{line_no}"
        super().__init__(reason if where is None else f"{where}: {reason}")
        self.line_no = line_no
        self.reason = reason


@contextmanager
def located_in(path: str) -> Iterator[None]:
    """A CorpusFormatError raised within, or a BrokenTreeError met walking a tree
    parsed from path, becomes "<path>:<line>: <reason>"."""
    try:
        yield
    except CorpusFormatError as exc:
        raise CorpusFormatError(exc.line_no, exc.reason, source=path) from None
    except BrokenTreeError as exc:
        raise CorpusFormatError(exc.tree.line_no, str(exc), source=path) from None


_CLAIM_FIELDS = frozenset(("id", "parent", "stance", "text"))


def _claim_rows(record: dict, line_no: int) -> list[tuple[str, Optional[str], Optional[StanceEdge], str]]:
    rows = []
    for claim in record["claims"]:
        if not isinstance(claim, dict):
            raise CorpusFormatError(line_no, "claim entry is not an object")
        if not claim.keys() >= _CLAIM_FIELDS:
            missing = _CLAIM_FIELDS - claim.keys()
            raise CorpusFormatError(line_no, f"claim missing fields {sorted(missing)}")
        claim_id, parent = claim["id"], claim["parent"]
        stance, text = claim["stance"], claim["text"]
        if stance is not None:
            try:
                stance = EDGES_BY_VALUE[stance]
            except (KeyError, TypeError):
                raise CorpusFormatError(line_no, f"invalid stance {stance!r}") from None
        if type(claim_id) is not str or type(text) is not str:
            raise CorpusFormatError(line_no, "claim id and text must be strings")
        if isinstance(parent, (list, dict)):  # any other parent that names no claim dangles
            raise CorpusFormatError(
                line_no, f"claim parent must be a string, a number or null, got {parent!r}"
            )
        rows.append((claim_id, parent, stance, text))
    return rows


def parse_corpus(stream: IO[str] | Iterable[str]) -> Iterator[ArgumentTree]:
    """Parse trees from a JSON-lines stream, reporting errors by line.

    topic_id must be a string and tags a list of strings; neither is
    coerced. A topic_id that an earlier line already holds is an error.
    Each tree records its line as `line_no`.
    """
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = decode_json(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(line_no, f"invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise CorpusFormatError(line_no, "record is not an object")
        schema = record.get("schema")
        if schema != SCHEMA:
            raise CorpusFormatError(line_no, f"schema mismatch: expected {SCHEMA!r}, got {schema!r}")
        for key in ("topic_id", "tags", "claims"):
            if key not in record:
                raise CorpusFormatError(line_no, f"record missing field {key!r}")
        if not isinstance(record["claims"], list) or not record["claims"]:
            raise CorpusFormatError(line_no, "claims must be a non-empty list")
        topic_id, tags = record["topic_id"], record["tags"]
        if not isinstance(topic_id, str):
            raise CorpusFormatError(line_no, f"topic_id must be a string, got {topic_id!r}")
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise CorpusFormatError(line_no, f"tags must be a list of strings, got {tags!r}")
        if topic_id in first_line:
            raise CorpusFormatError(
                line_no, f"duplicate topic_id {topic_id!r} (first on line {first_line[topic_id]})"
            )
        first_line[topic_id] = line_no
        claims = _claim_rows(record, line_no)
        try:
            tree = build_tree(topic_id=topic_id, claims=claims, tags=frozenset(tags))
        except ValueError as exc:
            raise CorpusFormatError(line_no, str(exc)) from None
        tree.line_no = line_no
        yield tree


def parse_corpus_file(path: str) -> list[ArgumentTree]:
    """Every tree of a corpus file; an error reads "<path>:<line>: <reason>"."""
    with open_text(path) as handle, located_in(path):
        return list(parse_corpus(handle))


def tree_to_record(tree: ArgumentTree) -> dict:
    claims = []
    for node_id in iter_preorder(tree):
        node = tree.nodes[node_id]
        claims.append(
            {
                "id": node.id,
                "parent": node.parent,
                "stance": node.stance_to_parent.value if node.stance_to_parent else None,
                "text": node.text,
            }
        )
    return {
        "schema": SCHEMA,
        "topic_id": tree.topic_id,
        "tags": sorted(tree.tags),
        "claims": claims,
    }


def write_corpus(trees: Iterable[ArgumentTree], stream: IO[str]) -> None:
    """Write trees in canonical form: preorder claims, sorted tags."""
    for tree in trees:
        stream.write(json.dumps(tree_to_record(tree), ensure_ascii=False))
        stream.write("\n")


_OUTLINE_RE = re.compile(r"^\s*(\d+(?:\.\d+)*)\.\s+(.*\S)\s*$")
_STANCE_RE = re.compile(r"^(pro|con)\s*:\s*(.*\S)\s*$", re.IGNORECASE)


def import_outline(lines: Iterable[str], topic_id: str, tags: frozenset[str] = frozenset()) -> ArgumentTree:
    """Parse a numbered debate outline into a tree.

    Grammar: the first line is "1. <thesis text>"; every other line is
    "<dotted-number>. <Pro|Con>: <text>" whose dotted prefix names an
    already-seen parent. Gaps in child numbering are accepted; children
    keep file order. Claim ids are the dotted numbers.
    """
    claims: list[tuple[str, Optional[str], Optional[StanceEdge], str]] = []
    seen: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        match = _OUTLINE_RE.match(line)
        if match is None:
            raise CorpusFormatError(line_no, f"unparseable outline line {line.strip()!r}")
        number, rest = match.groups()
        if number in seen:
            raise CorpusFormatError(line_no, f"duplicate number {number!r}")
        if "." not in number:
            if claims:
                raise CorpusFormatError(line_no, "second root-level line; thesis already seen")
            claims.append((number, None, None, rest))
        else:
            parent = number.rsplit(".", 1)[0]
            if parent not in seen:
                raise CorpusFormatError(
                    line_no, f"orphan numbering: parent {parent!r} of {number!r} not seen"
                )
            stance_match = _STANCE_RE.match(rest)
            if stance_match is None:
                raise CorpusFormatError(
                    line_no, f"expected 'Pro:' or 'Con:' prefix in {rest!r}"
                )
            stance = StanceEdge(stance_match.group(1).lower())
            claims.append((number, parent, stance, stance_match.group(2)))
        seen.add(number)
    if not claims:
        raise CorpusFormatError(None, "empty outline")
    return build_tree(topic_id=topic_id, claims=claims, tags=tags)


def import_outline_file(path: str, topic_id: str, tags: frozenset[str] = frozenset()) -> ArgumentTree:
    """The outline file's tree; an error reads "<path>:<line>: <reason>"."""
    with open_text(path) as handle, located_in(path):
        return import_outline(handle, topic_id=topic_id, tags=tags)
