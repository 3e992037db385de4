"""Corpus serialization: canonical JSON-lines format and outline import.

Canonical format: UTF-8, one tree per line, each line an object
{"schema": "argtree/1", "topic_id": ..., "tags": [...], "claims": [...]}
with claims listed in depth-first preorder, root first. Writing a parsed
canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterable, Iterator, Optional

from .trees import ArgumentTree, StanceEdge, build_tree, iter_preorder

SCHEMA = "argtree/1"


class CorpusFormatError(ValueError):
    """Raised for malformed corpus or outline input; carries a line number.

    It reads "<source>:<line>: <reason>", or "line <line>: <reason>" when
    the source is not named.
    """

    def __init__(self, line_no: int, reason: str, source: Optional[str] = None):
        where = f"line {line_no}" if source is None else f"{source}:{line_no}"
        super().__init__(f"{where}: {reason}")
        self.line_no = line_no
        self.reason = reason


def _claim_rows(record: dict, line_no: int) -> list[tuple[str, Optional[str], Optional[StanceEdge], str]]:
    rows = []
    for claim in record["claims"]:
        if not isinstance(claim, dict):
            raise CorpusFormatError(line_no, "claim entry is not an object")
        missing = {"id", "parent", "stance", "text"} - set(claim)
        if missing:
            raise CorpusFormatError(line_no, f"claim missing fields {sorted(missing)}")
        stance_raw = claim["stance"]
        if stance_raw is None:
            stance = None
        else:
            try:
                stance = StanceEdge(stance_raw)
            except ValueError:
                raise CorpusFormatError(line_no, f"invalid stance {stance_raw!r}") from None
        if not isinstance(claim["id"], str) or not isinstance(claim["text"], str):
            raise CorpusFormatError(line_no, "claim id and text must be strings")
        rows.append((claim["id"], claim["parent"], stance, claim["text"]))
    return rows


def parse_corpus(stream: IO[str] | Iterable[str]) -> Iterator[ArgumentTree]:
    """Parse trees from a JSON-lines stream, reporting errors by line.

    A topic_id that an earlier line already holds is an error.
    """
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
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
        topic_id = str(record["topic_id"])
        if topic_id in first_line:
            raise CorpusFormatError(
                line_no, f"duplicate topic_id {topic_id!r} (first on line {first_line[topic_id]})"
            )
        first_line[topic_id] = line_no
        try:
            tree = build_tree(
                topic_id=topic_id,
                claims=_claim_rows(record, line_no),
                tags=frozenset(str(t) for t in record["tags"]),
            )
        except ValueError as exc:
            raise CorpusFormatError(line_no, str(exc)) from None
        yield tree


def parse_corpus_file(path: str) -> list[ArgumentTree]:
    """Every tree of a corpus file; an error reads "<path>:<line>: <reason>"."""
    with open(path, encoding="utf-8") as handle:
        try:
            return list(parse_corpus(handle))
        except CorpusFormatError as exc:
            raise CorpusFormatError(exc.line_no, exc.reason, source=path) from None


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


def write_corpus_file(trees: Iterable[ArgumentTree], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_corpus(trees, handle)


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
        raise CorpusFormatError(0, "empty outline")
    return build_tree(topic_id=topic_id, claims=claims, tags=tags)


def import_outline_file(path: str, topic_id: str, tags: frozenset[str] = frozenset()) -> ArgumentTree:
    with open(path, encoding="utf-8") as handle:
        return import_outline(handle, topic_id=topic_id, tags=tags)
