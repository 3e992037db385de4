"""JSON I/O shared by every reader and writer: text files, located errors,
whole-file documents, and JSON lines read and written a block at a time.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import IO, Callable, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")


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


def decode_json(text: str) -> object:
    """json.loads(text); text nested past Python's recursion limit is a JSONDecodeError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def read_document(path: str, schema: str, build: Callable[[dict], T]) -> T:
    """build(record) for the file's one JSON object, whose "schema" must be schema.

    Every format error, and a ValueError, KeyError, TypeError or
    OverflowError that build raises, is one ValueError naming the file:
    located_error(path, None, exc).
    """
    with open_text(path) as handle:
        text = handle.read()
        try:
            record = decode_json(text)
            if not isinstance(record, dict):
                raise ValueError("expected a JSON object")
            if record.get("schema") != schema:
                raise ValueError(f"schema mismatch: expected {schema!r}")
            return build(record)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise located_error(path, None, exc) from None


# Pairs and features files are written, and features files read, this many
# records at a time.
BLOCK_ROWS = 1024

# The JSON text of a value as json.dumps(value, ensure_ascii=False) writes it.
encode_str = json.encoder.encode_basestring
encode_int = int.__repr__
SAME_STANCE_JSON = {None: '"n/a"', True: "true", False: "false"}


def encode_float(value: float) -> str:
    """value as json.dumps writes a float: its repr, or NaN, Infinity or -Infinity."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


class EncodedStrings(dict):
    """str -> encode_str(str), each encoded on its first lookup and kept."""

    def __missing__(self, text: str) -> str:
        encoded = self[text] = encode_str(text)
        return encoded


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
            values = decode_json(text)
        except ValueError:
            values = []
        if len(values) == 2 * n - 1 and values.count(None) == n - 1:
            yield numbers, values[::2]
            return
    values = []
    for line_no, line in zip(numbers, block):
        try:
            values.append(decode_json(line))
        except json.JSONDecodeError as exc:
            yield numbers[: len(values)], values
            raise located_error(source, line_no, exc) from None
    yield numbers, values
