"""Plain-text model checkpoints with bit-exact round trips.

Layout:

    argtree-model/1 <kind> <seed>
    [block <name> <rows> <cols>]
    <repr floats, space separated, one line per row>
    ...
    [meta]
    <one JSON object>

Floats are written with repr(), which round-trips IEEE doubles exactly, so
the same arrays always give the same bytes. One-dimensional arrays are
stored as a single row and any one-row block loads back as a vector; no
model here uses a genuine 1 x n matrix. Lines end at "\\n" only.

The reader streams the file and parses each block with one numpy call, so
its cost is float parsing; the writer joins one row at a time, so its cost
is repr(). Every malformed line raises one CheckpointFormatError that reads
"<path>:<line>: <reason>".
"""

from __future__ import annotations

import json
from itertools import islice
from typing import IO, Mapping

import numpy as np

SCHEMA = "argtree-model/1"


class CheckpointFormatError(ValueError):
    pass


def dump_checkpoint(
    handle,
    kind: str,
    seed: int,
    blocks: Mapping[str, np.ndarray],
    meta: dict,
) -> None:
    handle.write(f"{SCHEMA} {kind} {seed}\n")
    for name, block in blocks.items():
        if " " in name:
            raise ValueError(f"block name {name!r} contains a space")
        array = np.asarray(block, dtype=np.float64)
        rows = array.reshape(1, -1) if array.ndim == 1 else array
        if rows.ndim != 2:
            raise ValueError(f"block {name!r} has {array.ndim} dimensions")
        handle.write(f"[block {name} {rows.shape[0]} {rows.shape[1]}]\n")
        for row in rows:  # row by row, so only one row is ever held as Python floats
            handle.write(" ".join(map(repr, row.tolist())) + "\n")
    handle.write("[meta]\n")
    handle.write(json.dumps(meta, ensure_ascii=False) + "\n")


def write_checkpoint(
    path: str,
    kind: str,
    seed: int,
    blocks: Mapping[str, np.ndarray],
    meta: dict,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        dump_checkpoint(handle, kind, seed, blocks, meta)


def read_checkpoint(path: str) -> tuple[str, int, dict[str, np.ndarray], dict]:
    """(kind, seed, blocks, meta) of a checkpoint file; meta is a JSON object."""
    with open(path, encoding="utf-8") as handle:
        try:
            return _parse(handle, path)
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _error(path: str, line_no: int, reason: str) -> CheckpointFormatError:
    return CheckpointFormatError(f"{path}:{line_no}: {reason}")


def _excerpt(line: str) -> str:
    return repr(line) if len(line) <= 60 else repr(line[:60]) + "..."


def _parse(handle: IO[str], path: str) -> tuple[str, int, dict[str, np.ndarray], dict]:
    first = handle.readline()
    if not first:
        raise _error(path, 1, "empty checkpoint file")
    header = first.rstrip("\n")
    parts = header.split(" ")
    if len(parts) != 3 or parts[0] != SCHEMA:
        raise _error(path, 1, f"bad checkpoint header {_excerpt(header)}")
    kind = parts[1]
    try:
        seed = int(parts[2])
    except ValueError:
        raise _error(path, 1, f"bad seed in header {_excerpt(header)}") from None

    blocks: dict[str, np.ndarray] = {}
    meta: dict | None = None
    line_no = 1
    for raw in handle:
        line_no += 1
        line = raw.rstrip("\n")
        if line == "[meta]":
            if meta is not None:
                raise _error(path, line_no, "duplicate [meta] section")
            text = handle.readline()
            line_no += 1
            if not text:
                raise _error(path, line_no, "missing JSON after [meta]")
            try:
                meta = json.loads(text)
            except json.JSONDecodeError as exc:
                raise _error(path, line_no, f"invalid JSON in [meta] ({exc.msg})") from None
            if not isinstance(meta, dict):
                raise _error(path, line_no, "[meta] is not a JSON object")
            continue
        if not line.startswith("[block "):
            raise _error(path, line_no, f"unexpected line {_excerpt(line)}")
        try:
            _, name, rows_text, cols_text = line[1:-1].split(" ")
            rows, cols = int(rows_text), int(cols_text)
        except ValueError:  # a field too many or too few, or a count that is no integer
            rows = cols = -1
        if rows < 0 or cols < 0 or not line.endswith("]"):
            raise _error(path, line_no, f"bad block header {_excerpt(line)}")
        if name in blocks:
            raise _error(path, line_no, f"duplicate block {name!r}")
        data = _read_block(handle, path, line_no, name, rows, cols)
        blocks[name] = data[0] if rows == 1 else data
        line_no += rows
    if meta is None:
        raise _error(path, line_no + 1, "the file ends before its [meta] section")
    return kind, seed, blocks, meta


def _read_block(
    handle: IO[str], path: str, header_no: int, name: str, rows: int, cols: int
) -> np.ndarray:
    """The `rows` lines after a block header as a (rows, cols) array.

    The value count of each raw line is checked first: np.loadtxt would
    skip a blank line, and a 0-column block never reaches it.
    """
    lines = list(islice(handle, rows))
    if len(lines) < rows:
        raise _error(path, header_no, f"block {name!r} is truncated: {len(lines)} of {rows} rows")
    for r, line in enumerate(lines):
        got = 0 if line == "\n" else line.count(" ") + 1
        if got != cols:
            raise _error(
                path, header_no + 1 + r, f"block {name!r} row {r}: expected {cols} values, got {got}"
            )
    if rows == 0 or cols == 0:
        return np.empty((rows, cols))
    try:
        return _parse_floats(lines)
    except ValueError as exc:
        r, reason = _first_bad_row(lines, exc)
    raise _error(path, header_no + 1 + r, f"block {name!r} row {r}: {reason}")


def _first_bad_row(lines: list[str], block_error: ValueError) -> tuple[int, str]:
    """The first row np.loadtxt rejects on its own, with numpy's reason."""
    for r, line in enumerate(lines):
        try:
            _parse_floats([line])
        except ValueError as exc:
            return r, str(exc).split(" at row ")[0]
    return 0, str(block_error)


def _parse_floats(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
