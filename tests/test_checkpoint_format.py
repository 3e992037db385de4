"""The checkpoint reader and writer against the per-float reference.

`checkpoint_reference` keeps the `repr(float(v))` writer and the
`float()`-per-value reader that the library replaced. Generated blocks hold
any float64 bit pattern (signed zeros, subnormals, infinities and NaNs
included) in 1-D, 1 x n, n x 0, n x 1 and general shapes; garbled files
cover truncated, deleted, duplicated and edited header, block-header, row
and [meta] lines.
"""

from __future__ import annotations

import io
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import checkpoint_reference as ref
from argtree.models.checkpoint import (
    SCHEMA,
    CheckpointFormatError,
    dump_checkpoint,
    read_checkpoint,
)

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    np.inf, -np.inf, np.nan, -np.nan, 1e16, 1e-05, sys.float_info.max, -sys.float_info.max,
]

floats = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))),
    st.sampled_from(SPECIAL),
)


@st.composite
def arrays(draw):
    shape = draw(st.one_of(
        st.tuples(st.integers(0, 6)),
        st.tuples(st.just(1), st.integers(0, 5)),
        st.tuples(st.integers(0, 4), st.just(0)),
        st.tuples(st.integers(0, 4), st.just(1)),
        st.tuples(st.integers(0, 4), st.integers(0, 5)),
    ))
    values = draw(st.lists(floats, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape)


# U+0085, U+2028 and U+2029 are excluded: the reference splits lines at them.
meta_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x85\u2028\u2029"),
                    max_size=8)
metas = st.dictionaries(
    meta_text, st.one_of(meta_text, st.integers(), st.lists(st.integers(), max_size=3)), max_size=3
)


@st.composite
def checkpoints(draw):
    names = draw(st.lists(st.sampled_from(["w", "bias", "enc/tok_emb", "gru_fwd/w_z", "cls/b"]),
                          unique=True, max_size=4))
    blocks = {name: draw(arrays()) for name in names}
    kind = draw(st.sampled_from(["logreg", "pair", "path-hier"]))
    return kind, draw(st.integers(0, 2**31)), blocks, draw(metas)


def _dump(dump, payload) -> str:
    buffer = io.StringIO()
    dump(buffer, *payload)
    return buffer.getvalue()


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "m.ckpt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _bits(array: np.ndarray) -> tuple:
    return array.shape, array.view(np.uint64).tobytes()


def _same_parse(got, want) -> None:
    assert got[0] == want[0] and got[1] == want[1] and got[3] == want[3]
    assert list(got[2]) == list(want[2])
    for name, block in want[2].items():
        assert got[2][name].dtype == np.float64
        assert _bits(got[2][name]) == _bits(block), name


@SETTINGS
@given(checkpoints())
def test_dump_bytes_equal_the_reference(payload):
    assert _dump(dump_checkpoint, payload) == _dump(ref.dump_checkpoint, payload)


@SETTINGS
@given(checkpoints())
def test_read_returns_the_reference_bits(tmp_path, payload):
    path = _write(tmp_path, _dump(ref.dump_checkpoint, payload))
    _same_parse(read_checkpoint(path), ref.read_checkpoint(path))


@SETTINGS
@given(checkpoints())
def test_dump_of_read_gives_the_file_back(tmp_path, payload):
    text = _dump(ref.dump_checkpoint, payload)
    assert _dump(dump_checkpoint, read_checkpoint(_write(tmp_path, text))) == text


def test_shapes_load_as_documented(tmp_path):
    blocks = {"vec": np.arange(3.0), "row": np.ones((1, 4)), "cols0": np.zeros((3, 0)),
              "col": np.ones((2, 1)), "empty": np.zeros(0), "rows0": np.zeros((0, 2))}
    _, _, loaded, _ = read_checkpoint(_write(tmp_path, _dump(dump_checkpoint, ("pair", 0, blocks, {}))))
    assert {name: block.shape for name, block in loaded.items()} == {
        "vec": (3,), "row": (4,), "cols0": (3, 0), "col": (2, 1), "empty": (0,), "rows0": (0, 2),
    }


def test_meta_may_hold_unicode_line_separators(tmp_path):
    meta = {"tokens": ["a\u2028b", "c\x85d", "e\u2029"]}
    path = _write(tmp_path, _dump(dump_checkpoint, ("pair", 0, {"w": np.ones(2)}, meta)))
    assert read_checkpoint(path)[3] == meta


# Lines end at "\n" (and "\r", which text mode reads as a line end); other
# separators, "_" and non-ASCII digits are left out of the garbling alphabet:
# float() reads "1_0" and "١" where the numpy parser is stricter.
GARBLE = "0123456789.-+eEnaif x[]{}\":,\t\n\r#"


def _garbled(line: str, data) -> list[str]:
    """Versions of one line: cut, with a character dropped, replaced or added."""
    out = [line[:cut] for cut in range(0, len(line), max(1, len(line) // 5))]
    if line:
        at = data.draw(st.integers(0, len(line) - 1))
        char = data.draw(st.sampled_from(GARBLE))
        out += [line[:at] + line[at + 1:], line[:at] + char + line[at + 1:], line[:at] + char + line[at:]]
    return out


def _is_located(message: str, path: str, n_lines: int) -> bool:
    match = re.fullmatch(rf"{re.escape(path)}:(\d+): .+", message, flags=re.DOTALL)
    return match is not None and 1 <= int(match.group(1)) <= n_lines + 1


@SETTINGS
@given(checkpoints(), st.data())
def test_garbled_files_parse_as_the_reference_or_raise_one_located_error(tmp_path, payload, data):
    lines = _dump(ref.dump_checkpoint, payload).splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    variants = [lines[:at] + [g] + lines[at + 1:] for g in _garbled(lines[at], data)]
    variants += [lines[:at], lines[:at] + lines[at + 1:], lines[:at + 1] + lines[at:]]
    for variant in variants:
        text = "".join(line + "\n" for line in variant)
        path = _write(tmp_path, text)
        try:
            want = ref.read_checkpoint(path)
        except ValueError:
            with pytest.raises(CheckpointFormatError) as excinfo:
                read_checkpoint(path)
            assert _is_located(str(excinfo.value), path, len(text.splitlines())), str(excinfo.value)
        else:
            _same_parse(read_checkpoint(path), want)


@pytest.mark.parametrize(
    "text, line_no, reason",
    [
        ("", 1, "empty checkpoint file"),
        ("argtree-model/2 pair 0\n[meta]\n{}\n", 1, "bad checkpoint header"),
        (f"{SCHEMA} pair x\n[meta]\n{{}}\n", 1, "bad seed in header"),
        (f"{SCHEMA} pair 0\n[block w x 2]\n[meta]\n{{}}\n", 2, "bad block header '[block w x 2]'"),
        (f"{SCHEMA} pair 0\n[block w -1 2]\n[meta]\n{{}}\n", 2, "bad block header"),
        (f"{SCHEMA} pair 0\n[blocks w 1 2]\n[meta]\n{{}}\n", 2, "unexpected line '[blocks w 1 2]'"),
        (f"{SCHEMA} pair 0\n[block w 2 2]\n1.0 2.0\n3.0\n[meta]\n{{}}\n", 4,
         "block 'w' row 1: expected 2 values, got 1"),
        (f"{SCHEMA} pair 0\n[block w 2 2]\n1.0 2.0\n3.0 4.0 5.0\n[meta]\n{{}}\n", 4, "got 3"),
        (f"{SCHEMA} pair 0\n[block w 2 1]\n1.0\n\n[meta]\n{{}}\n", 4, "got 0"),
        (f"{SCHEMA} pair 0\n[block w 2 2]\n1.0 2.0\n3.0 1_0\n[meta]\n{{}}\n", 4,
         "block 'w' row 1: could not convert string '1_0'"),
        (f"{SCHEMA} pair 0\n[block w 1 2]\n# 2.0\n[meta]\n{{}}\n", 3, "could not convert string '#'"),
        (f"{SCHEMA} pair 0\n[block w 3 1]\n1.0\n", 2, "block 'w' is truncated: 1 of 3 rows"),
        (f"{SCHEMA} pair 0\n[block w 1 1]\n1.0\n[block w 1 1]\n2.0\n[meta]\n{{}}\n", 4,
         "duplicate block 'w'"),
        (f'{SCHEMA} pair 0\n[meta]\n{{"task": \n', 3, "invalid JSON in [meta] (Expecting value)"),
        (f"{SCHEMA} pair 0\n[meta]\n", 3, "missing JSON after [meta]"),
        (f"{SCHEMA} pair 0\n[meta]\n[1]\n", 3, "[meta] is not a JSON object"),
        (f"{SCHEMA} pair 0\n[meta]\n{{}}\n[meta]\n{{}}\n", 4, "duplicate [meta] section"),
        (f"{SCHEMA} pair 0\n[block w 1 1]\n1.0\n", 4, "the file ends before its [meta] section"),
    ],
)
def test_each_malformed_line_is_one_located_error(tmp_path, text, line_no, reason):
    path = _write(tmp_path, text)
    with pytest.raises(CheckpointFormatError) as excinfo:
        read_checkpoint(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}:{line_no}: "), message
    assert reason in message


def test_long_lines_are_cut_in_messages(tmp_path):
    row = " ".join(["1.0"] * 400)
    path = _write(tmp_path, f"{SCHEMA} pair 0\n{row}\n[meta]\n{{}}\n")
    with pytest.raises(CheckpointFormatError) as excinfo:
        read_checkpoint(path)
    assert len(str(excinfo.value)) < len(path) + 120


def test_non_utf8_file_names_the_path(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(f"{SCHEMA} pair 0\n[meta]\n".encode() + b'{"a": "\xff"}\n')
    with pytest.raises(CheckpointFormatError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
        read_checkpoint(str(path))
