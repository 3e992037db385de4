"""Pinned bytes of the derived files: pairs, vocabularies and features.

A tiny synthetic corpus is derived into both tasks and featurized with
every feature set. The lexicon and the embedding table are written here
with polarities and components that are not exact binary fractions, so a
change in the order of any float sum (polarity, embedding mean) changes
the features' bytes. The digests were recorded before per-text caching
entered vocabulary building and featurization.

A logistic regression trained on the `both` features, its evaluation
report and its significance test against the majority baseline are pinned
too; those digests were recorded before the columnar feature table
replaced the per-record feature lists.

The three neural kinds trained on the stance pairs are pinned as well
(path-hier twice: a shared encoder read top down, and one encoder per
position read bottom up). Those digests were recorded before the
minibatch layout moved from per-sequence arrays to flat packed arrays.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import numpy as np
import pytest

from argtree.cli import main
from argtree.models.config import EncoderConfig
from argtree.models.encoder import (
    CLS_ID,
    SEP_ID,
    EncoderVocab,
    pack_pair,
    pack_path_flat,
    pack_path_pairs,
)
from argtree.models.neural import pack_dataset
from argtree.pairs import read_pairs_file
from argtree.text import tokenize

SYNTH_CONFIG = """\
topic_count = 6
branch_min = 2
branch_max = 2
depth_min = 3
depth_max = 3
stance_marker_p = 0.8
root_len_min = 9
root_len_max = 11
min_claim_tokens = 6
filler_count = 24
seed = 13
"""

FILLERS = [f"filler{i}" for i in range(24)]
CONNECTIVES = ["also", "but", "only", "because"]

GOLDEN_SHA256 = {
    "specificity-pairs.jsonl": "5b25d9ee2038422fd7c7e88044ffa41c33be9e3186c544382dca80efcec1e142",
    "stance-pairs.jsonl": "a2a136b08e9f2333dfec002ecb0c592aa47a100b160a838a2b9a7ecaa2811b7b",
    "specificity-vocab.json": "ed20421539fec42f95b9ef6cd92e7d2cb4a56b8f25d82cace69276d2c2960b2d",
    "stance-vocab.json": "9fb9242b115c0b5c43cbdf7e0a3de3c3132f037aceb8f2f11c3197bac28a9836",
    "specificity-bow.jsonl": "cc823e2dcd160ec3b5073565e220762c3186addda568c968a22570d5c1485d86",
    "specificity-surface.jsonl": "0bce7432a42e09b5fdface1f1d42440a4b5e9d30115e63815c14e4bd6fc7a64f",
    "specificity-both.jsonl": "095c3554a9866eebb166749767ead63f1cfc1059b99773ef9ce5cfe563d2f775",
    "stance-endpoint.jsonl": "d9be205e6a7a59734d8fc2cb001f9cc6920e3dd38d6af5c55ee9ace9da0ff098",
    "stance-path.jsonl": "6537a069b3846f31e4deb6646d3adbf13fc014b3ef43095af79512db95ed41a2",
}

TRAINED_SHA256 = {
    "logreg.ckpt": "0c3fa8e7f3231ebea5a5d558ddfddba61aa9a9818ce134168c965e82c55b3dba",
    "logreg.report.json": "66803f16cd5656ed9175e44e513bc005be38e627182cd00a4c933930d2a2fc11",
}

NEURAL_CONF = """\
dim = 12
hidden = 10
truncate = 12
min_count = 1
batch_size = 16
max_epochs = 3
patience = 0
"""

NEURAL_RUNS = {
    "pair.ckpt": ("pair", ""),
    "path-flat.ckpt": ("path-flat", ""),
    "path-hier.ckpt": ("path-hier", ""),
    "path-hier-unshared.ckpt": (
        "path-hier", "share_encoder = false\nmax_positions = 2\npair_order = bottom_up\n"
    ),
}

NEURAL_SHA256 = {
    "pair.ckpt": "74f590bce0cc107438b3387be3e1f4cbb316567cc8290ce36de0d6b4a1c444cd",
    "path-flat.ckpt": "c352a5af7b29a96929a37b9a708740227ff781564ab0b6502f4b1537ee727d29",
    "path-hier.ckpt": "bf0f6b9fd8cf163f581439cca5e2ced55ea959174e61f38d8947fed5497c73e5",
    "path-hier-unshared.ckpt": "3987a7a537c52633100138dcb739af13f0b64b67e036a16374158254406c2b14",
    "path-hier.report.json": "99a9199d56c8a0fa61a673a154e38548074c9322bb23d6932ab2fa749cc1263a",
}

SIGNIFICANCE_STDOUT = """\
model-a: logreg  accuracy 0.9559
model-b: majority  accuracy 0.5539
topics: 6
t: 32.4133  df: 5  p: 0.000001
significant at alpha=0.05: yes
"""


def _lexicon_text() -> str:
    rows = []
    for i, token in enumerate(FILLERS + CONNECTIVES):
        polarity = ((i * 7) % 13 - 6) / 9
        rows.append(f"{token}\t{polarity!r}\t{'strong' if i % 3 else 'weak'}\n")
    return "".join(rows)


def _embeddings_text() -> str:
    rows = []
    for i, token in enumerate(FILLERS + CONNECTIVES):
        vector = [(i % 5 + 1) / 7, -(i % 3 + 1) / 11, ((i * 3) % 7 - 3) / 13]
        rows.append(" ".join([token] + [repr(v) for v in vector]) + "\n")
    return "".join(rows)


@pytest.fixture(scope="module")
def derived(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "synth.conf").write_text(SYNTH_CONFIG, encoding="utf-8")
    (root / "lexicon.tsv").write_text(_lexicon_text(), encoding="utf-8")
    (root / "embeddings.txt").write_text(_embeddings_text(), encoding="utf-8")

    def run(*argv):
        code = main(list(argv))
        assert code == 0, f"argtree {argv[0]} exited {code}"

    # Relative paths: a vocabulary file records the pairs path it was built from.
    with contextlib.chdir(root):
        run("synth", "--config", "synth.conf", "-o", "corpus.jsonl")
        run(
            "derive-pairs", "corpus.jsonl", "--task", "specificity", "--seed", "3",
            "-o", "specificity-pairs.jsonl",
        )
        run("derive-pairs", "corpus.jsonl", "--task", "stance", "-o", "stance-pairs.jsonl")
        for feature_set in ("bow", "surface", "both"):
            run(
                "featurize", "specificity-pairs.jsonl", "--task", "specificity",
                "--feature-set", feature_set, "--lexicon", "lexicon.tsv",
                "--vocab", "specificity-vocab.json", "-o", f"specificity-{feature_set}.jsonl",
            )
        for name, extra in (("endpoint", []), ("path", ["--use-path"])):
            run(
                "featurize", "stance-pairs.jsonl", "--task", "stance", *extra,
                "--lexicon", "lexicon.tsv", "--embeddings", "embeddings.txt",
                "--vocab", "stance-vocab.json", "-o", f"stance-{name}.jsonl",
            )
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_derived_file_bytes_are_pinned(derived, name):
    digest = hashlib.sha256((derived / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


@pytest.fixture(scope="module")
def trained(derived):
    """logreg and majority on the `both` features, then evaluate and significance."""
    stdout = io.StringIO()

    def run(*argv):
        with contextlib.redirect_stdout(stdout):
            code = main(list(argv))
        assert code == 0, f"argtree {argv[0]} exited {code}"

    with contextlib.chdir(derived):
        run(
            "train", "--model", "logreg", "--task", "specificity", "--seed", "3",
            "--train", "specificity-both.jsonl", "--dev", "specificity-both.jsonl",
            "-o", "logreg.ckpt",
        )
        run(
            "train", "--model", "majority", "--task", "specificity",
            "--train", "specificity-pairs.jsonl", "-o", "majority.ckpt",
        )
        run(
            "evaluate", "--model", "logreg.ckpt", "--test", "specificity-both.jsonl",
            "--json", "logreg.report.json", "-o", "logreg.csv",
        )
        stdout.seek(0)
        stdout.truncate()
        run(
            "significance", "--model-a", "logreg.ckpt", "--model-b", "majority.ckpt",
            "--test", "specificity-both.jsonl",
        )
    return derived, stdout.getvalue()


@pytest.mark.parametrize("name", sorted(TRAINED_SHA256))
def test_trained_file_bytes_are_pinned(trained, name):
    root, _ = trained
    digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
    assert digest == TRAINED_SHA256[name]


def test_significance_stdout_is_pinned(trained):
    _, stdout = trained
    assert stdout == SIGNIFICANCE_STDOUT


@pytest.fixture(scope="module")
def neural_trained(derived):
    """Each neural kind trained on the stance pairs, which also serve as dev."""
    with contextlib.chdir(derived):
        for name, (kind, extra) in NEURAL_RUNS.items():
            conf = f"{name}.conf"
            with open(conf, "w", encoding="utf-8") as handle:
                handle.write(NEURAL_CONF + extra)
            argv = [
                "train", "--model", kind, "--task", "stance", "--seed", "5", "--config", conf,
                "--train", "stance-pairs.jsonl", "--dev", "stance-pairs.jsonl", "-o", name,
            ]
            assert main(argv) == 0, f"argtree train --model {kind} failed"
        argv = [
            "evaluate", "--model", "path-hier.ckpt", "--test", "stance-pairs.jsonl",
            "--json", "path-hier.report.json", "-o", "path-hier.csv",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return derived


@pytest.mark.parametrize("name", sorted(NEURAL_SHA256))
def test_neural_file_bytes_are_pinned(neural_trained, name):
    digest = hashlib.sha256((neural_trained / name).read_bytes()).hexdigest()
    assert digest == NEURAL_SHA256[name]


def _reference_ids(vocab: EncoderVocab, text: str, truncate: int) -> list[int]:
    return vocab.encode_tokens(tokenize(text)[:truncate])


def _reference_pair(vocab, a_text, b_text, truncate):
    a_ids = _reference_ids(vocab, a_text, truncate)
    b_ids = _reference_ids(vocab, b_text, truncate)
    ids = [CLS_ID] + a_ids + [SEP_ID] + b_ids + [SEP_ID]
    segments = [0] * (len(a_ids) + 2) + [1] * (len(b_ids) + 1)
    return ids, segments


def _reference_sequences(kind, vocab, path_texts, truncate):
    if kind == "pair":
        return [_reference_pair(vocab, path_texts[-1], path_texts[0], truncate)]
    if kind == "path-flat":
        ids = [CLS_ID]
        for text in reversed(path_texts):
            ids += _reference_ids(vocab, text, truncate) + [SEP_ID]
        first = len(_reference_ids(vocab, path_texts[-1], truncate)) + 2
        return [(ids, [0] * first + [1] * (len(ids) - first))]
    return [
        _reference_pair(vocab, path_texts[i], path_texts[i + 1], truncate)
        for i in range(len(path_texts) - 1)
    ]


@pytest.mark.parametrize("kind", ["pair", "path-flat", "path-hier"])
def test_pack_dataset_matches_the_per_example_packers(derived, kind):
    examples = read_pairs_file(str(derived / "stance-pairs.jsonl"))
    truncate = 4
    assert min(len(tokenize(t)) for ex in examples for t in ex.path_texts) > truncate
    # Every other token stays unknown, so PAD ids appear as well.
    tokens = sorted({t for ex in examples for text in ex.path_texts for t in tokenize(text)})
    vocab = EncoderVocab(tokens=tokens[::2])
    config = EncoderConfig(truncate=truncate)
    packed = pack_dataset(kind, examples, vocab, config, ["opposes", "supports"])
    assert len(packed) == len(examples)
    for example, item in zip(examples, packed):
        texts = example.path_texts
        if kind == "pair":
            direct = [pack_pair(vocab, texts[-1], texts[0], truncate)]
        elif kind == "path-flat":
            direct = [pack_path_flat(vocab, texts, truncate)]
        else:
            direct = pack_path_pairs(vocab, texts, truncate)
        reference = _reference_sequences(kind, vocab, texts, truncate)
        assert len(item.sequences) == len(direct) == len(reference)
        for (ids, segments), (d_ids, d_segments), (r_ids, r_segments) in zip(
            item.sequences, direct, reference
        ):
            assert ids.dtype == segments.dtype == np.int64
            assert ids.tolist() == d_ids.tolist() == r_ids
            assert segments.tolist() == d_segments.tolist() == r_segments
