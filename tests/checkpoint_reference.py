"""Per-float reference for the checkpoint format.

This is the original writer and reader of `argtree-model/1` files: one
`repr(float(v))` per written value and one `float()` per read value, over
the whole text split into lines. The library parses each block with one
numpy call and writes each row with one join; the tests compare its bytes,
its parsed bits and its errors with these loops.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from argtree.models.checkpoint import SCHEMA, CheckpointFormatError


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
        for row in rows:
            handle.write(" ".join(repr(float(v)) for v in row) + "\n")
    handle.write("[meta]\n")
    handle.write(json.dumps(meta, ensure_ascii=False) + "\n")


def read_checkpoint(path: str) -> tuple[str, int, dict[str, np.ndarray], dict]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise CheckpointFormatError(f"empty checkpoint file {path!r}")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != SCHEMA:
        raise CheckpointFormatError(f"bad checkpoint header {lines[0]!r}")
    kind = header[1]
    try:
        seed = int(header[2])
    except ValueError:
        raise CheckpointFormatError(f"bad seed in header {lines[0]!r}") from None

    blocks: dict[str, np.ndarray] = {}
    meta: dict | None = None
    i = 1
    while i < len(lines):
        line = lines[i]
        if line == "[meta]":
            if i + 1 >= len(lines):
                raise CheckpointFormatError("missing JSON after [meta]")
            meta = json.loads(lines[i + 1])
            i += 2
            continue
        if not line.startswith("[block "):
            raise CheckpointFormatError(f"unexpected line {i + 1}: {line!r}")
        parts = line[1:-1].split(" ")
        if len(parts) != 4 or not line.endswith("]"):
            raise CheckpointFormatError(f"bad block header on line {i + 1}: {line!r}")
        _, name, rows_s, cols_s = parts
        rows, cols = int(rows_s), int(cols_s)
        if name in blocks:
            raise CheckpointFormatError(f"duplicate block {name!r}")
        if i + rows >= len(lines):
            raise CheckpointFormatError(f"block {name!r} is truncated")
        data = np.empty((rows, cols))
        for r in range(rows):
            row_line = lines[i + 1 + r]
            values = row_line.split(" ") if row_line else []
            if len(values) != cols:
                raise CheckpointFormatError(
                    f"block {name!r} row {r}: expected {cols} values, got {len(values)}"
                )
            data[r] = [float(v) for v in values]
        blocks[name] = data[0] if rows == 1 else data
        i += 1 + rows
    if meta is None:
        raise CheckpointFormatError(f"checkpoint {path!r} has no [meta] section")
    return kind, seed, blocks, meta
