"""Checkpoint format round trips and the save_model/load_model surface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from argtree.features import FeatureRecord, FeatureSchema, FeatureTable
from argtree.models import (
    EncoderConfig,
    LengthBaseline,
    load_model,
    majority_fit,
    model_payload,
    neural_train_config,
    save_model,
    train_logreg,
    train_neural,
)
from argtree.models.checkpoint import (
    SCHEMA,
    CheckpointFormatError,
    read_checkpoint,
    write_checkpoint,
)
from argtree.pairs import StanceExample, StanceLabel
from argtree.trees import StanceEdge


def _write(tmp_path, name, kind, seed, blocks, meta):
    path = str(tmp_path / name)
    write_checkpoint(path, kind, seed, blocks, meta)
    return path


# ---------------------------------------------------------------------------
# Raw block format


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    blocks = {
        "weights": rng.normal(size=(3, 4)) * 1e-7,
        "bias": rng.normal(size=5),
        "extremes": np.array([1e308, 5e-324, -0.0, 123456789.123456789]),
    }
    meta = {"task": "stance", "names": ["a", "b"]}
    path = _write(tmp_path, "m.ckpt", "logreg", 17, blocks, meta)
    kind, seed, loaded, loaded_meta = read_checkpoint(path)
    assert (kind, seed) == ("logreg", 17)
    assert loaded_meta == meta
    assert set(loaded) == set(blocks)
    for name, block in blocks.items():
        assert loaded[name].shape == block.shape
        np.testing.assert_array_equal(loaded[name], block)


def test_one_row_matrix_loads_as_vector(tmp_path):
    path = _write(tmp_path, "m.ckpt", "pair", 0, {"v": np.arange(4.0)}, {})
    _, _, blocks, _ = read_checkpoint(path)
    assert blocks["v"].shape == (4,)


def test_zero_column_block_round_trips(tmp_path):
    path = _write(tmp_path, "m.ckpt", "pair", 0, {"empty": np.zeros((2, 0))}, {})
    _, _, blocks, _ = read_checkpoint(path)
    assert blocks["empty"].shape == (2, 0)


def test_no_blocks_is_valid(tmp_path):
    path = _write(tmp_path, "m.ckpt", "majority", 0, {}, {"label": "supports"})
    kind, seed, blocks, meta = read_checkpoint(path)
    assert kind == "majority" and blocks == {} and meta["label"] == "supports"


def test_block_name_with_space_rejected(tmp_path):
    with pytest.raises(ValueError, match="space"):
        _write(tmp_path, "m.ckpt", "pair", 0, {"bad name": np.zeros(2)}, {})


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text("not-a-checkpoint 1 2\n", encoding="utf-8")
    with pytest.raises(CheckpointFormatError, match="header"):
        read_checkpoint(str(path))


def test_missing_meta_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text(f"{SCHEMA} pair 0\n[block v 1 2]\n1.0 2.0\n", encoding="utf-8")
    with pytest.raises(CheckpointFormatError, match="meta"):
        read_checkpoint(str(path))


def test_duplicate_block_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text(
        f"{SCHEMA} pair 0\n"
        "[block v 1 1]\n1.0\n"
        "[block v 1 1]\n2.0\n"
        "[meta]\n{}\n",
        encoding="utf-8",
    )
    with pytest.raises(CheckpointFormatError, match="duplicate"):
        read_checkpoint(str(path))


def test_row_width_mismatch_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text(
        f"{SCHEMA} pair 0\n[block v 1 3]\n1.0 2.0\n[meta]\n{{}}\n",
        encoding="utf-8",
    )
    with pytest.raises(CheckpointFormatError, match="expected 3 values"):
        read_checkpoint(str(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CheckpointFormatError, match="empty"):
        read_checkpoint(str(path))


# ---------------------------------------------------------------------------
# Whole-model round trips


def test_majority_round_trip(tmp_path):
    model = majority_fit(["supports", "opposes", "supports"], "supports", task="stance")
    path = str(tmp_path / "majority.ckpt")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model


def test_length_round_trip(tmp_path):
    path = str(tmp_path / "length.ckpt")
    save_model(LengthBaseline(task="specificity"), path)
    loaded = load_model(path)
    assert loaded == LengthBaseline(task="specificity")


def _logreg_fixture():
    rng = np.random.default_rng(0)
    schema = FeatureSchema(
        task="stance",
        feature_set="both",
        sparse_names=["t0", "t1", "t2"],
        dense_names=["len"],
    )
    records = []
    for i in range(20):
        positive = i % 2 == 0
        records.append(
            FeatureRecord(
                label="supports" if positive else "opposes",
                sparse={0: 1.0} if positive else {1: 1.0},
                dense={"len": float(rng.normal())},
                topic_id=f"t{i % 3}",
                distance=1,
                same_stance=None,
            )
        )
    first_six = FeatureTable.from_records(schema, records[:6])
    return FeatureTable.from_records(schema, records), first_six


def test_logreg_round_trip(tmp_path):
    records, first_six = _logreg_fixture()
    model = train_logreg(records, dev=first_six)
    path = str(tmp_path / "logreg.ckpt")
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    np.testing.assert_array_equal(loaded.dense_mean, model.dense_mean)
    np.testing.assert_array_equal(loaded.dense_std, model.dense_std)
    assert loaded.label_names == model.label_names
    assert loaded.sparse_names == model.sparse_names
    assert loaded.dense_names == model.dense_names
    assert loaded.seed == model.seed
    assert [h.epoch for h in loaded.history] == [h.epoch for h in model.history]
    assert loaded.predict_labels(records) == model.predict_labels(records)


def _neural_fixture(kind):
    examples = []
    for i in range(12):
        supportive = i % 2 == 0
        examples.append(
            StanceExample(
                topic_id=f"t{i % 3}",
                a_id="r",
                b_id=f"c{i}",
                distance=1,
                path_texts=["root claim", "good point" if supportive else "bad point"],
                path_edges=[StanceEdge.PRO if supportive else StanceEdge.CON],
                label=StanceLabel.SUPPORTS if supportive else StanceLabel.OPPOSES,
                same_stance=None,
            )
        )
    config = EncoderConfig(dim=6, hidden=4, truncate=12, min_count=1)
    return train_neural(
        kind,
        "stance",
        examples,
        dev_examples=examples[:4],
        encoder_config=config,
        train_config=neural_train_config(max_epochs=2, batch_size=4, seed=3, patience=0),
    ), examples


@pytest.mark.parametrize("kind", ["pair", "path-flat", "path-hier"])
def test_neural_round_trip(tmp_path, kind):
    model, examples = _neural_fixture(kind)
    path = str(tmp_path / f"{kind}.ckpt")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == kind
    assert loaded.task == model.task
    assert loaded.label_names == model.label_names
    assert loaded.vocab.tokens == model.vocab.tokens
    assert loaded.encoder_config == model.encoder_config
    assert loaded.seed == model.seed
    original_blocks = model.params.blocks()
    for name, block in loaded.params.blocks().items():
        np.testing.assert_array_equal(block, original_blocks[name])
    assert loaded.predict_labels(examples) == model.predict_labels(examples)
    assert [h.train_loss for h in loaded.history] == [h.train_loss for h in model.history]
    assert [h.dev_accuracy for h in loaded.history] == [
        h.dev_accuracy for h in model.history
    ]


def test_unshared_encoder_round_trip(tmp_path):
    examples = _neural_fixture("pair")[1]
    config = EncoderConfig(
        dim=6, hidden=4, truncate=12, min_count=1, share_encoder=False, max_positions=3
    )
    model = train_neural(
        "path-hier",
        "stance",
        examples,
        encoder_config=config,
        train_config=neural_train_config(max_epochs=1, batch_size=4, seed=3),
    )
    assert len(model.params.encoders) == 3
    path = str(tmp_path / "hier-unshared.ckpt")
    save_model(model, path)
    loaded = load_model(path)
    assert len(loaded.params.encoders) == 3
    assert loaded.predict_labels(examples) == model.predict_labels(examples)


def test_save_twice_is_byte_identical(tmp_path):
    model, _ = _neural_fixture("pair")
    path_a = tmp_path / "a.ckpt"
    path_b = tmp_path / "b.ckpt"
    save_model(model, str(path_a))
    save_model(model, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_unknown_kind_rejected_on_load(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text(f"{SCHEMA} mystery 0\n[meta]\n{{}}\n", encoding="utf-8")
    with pytest.raises(CheckpointFormatError, match="unknown model kind"):
        load_model(str(path))


def _without_block(path, name) -> None:
    """Rewrite a checkpoint without one block (its header and rows)."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"[block {name} "))
    rows = int(lines[start][1:-1].split(" ")[2])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:start] + lines[start + 1 + rows :]) + "\n")


def _without_meta_key(path, key) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    meta = json.loads(lines[-1])
    del meta[key]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:-1] + [json.dumps(meta)]) + "\n")


@pytest.mark.parametrize(
    "kind, block, meta_key",
    [("logreg", "dense_std", "sparse_names"), ("path-hier", "gru_bwd/u_r", "tokens")],
)
def test_missing_block_or_meta_key_names_path_and_name(tmp_path, kind, block, meta_key):
    if kind == "logreg":
        records, _ = _logreg_fixture()
        model = train_logreg(records)
    else:
        model, _ = _neural_fixture(kind)
    for edit, name in ((_without_block, block), (_without_meta_key, meta_key)):
        path = str(tmp_path / f"{kind}-{edit.__name__}.ckpt")
        save_model(model, path)
        edit(path, name)
        with pytest.raises(CheckpointFormatError) as excinfo:
            load_model(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ")
        assert repr(name) in message


def test_truncated_block_rejected(tmp_path):
    path = _write(tmp_path, "m.ckpt", "logreg", 0, {"w": np.ones((3, 2))}, {})
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:3]) + "\n")
    with pytest.raises(CheckpointFormatError, match="truncated"):
        read_checkpoint(path)


def test_model_payload_kinds():
    majority = majority_fit(["supports"], "supports", task="stance")
    assert model_payload(majority)[0] == majority.kind == "majority"
    assert model_payload(LengthBaseline())[0] == LengthBaseline.kind == "length"
    records, _ = _logreg_fixture()
    logreg = train_logreg(records)
    assert model_payload(logreg)[0] == logreg.kind == "logreg"
    model, _ = _neural_fixture("path-flat")
    assert model_payload(model)[0] == model.kind == "path-flat"


def test_every_model_kind_predicts_only_the_data_it_reads():
    table, first_six = _logreg_fixture()
    neural, examples = _neural_fixture("pair")
    majority = majority_fit(["supports", "opposes", "supports"], "opposes", task="stance")
    assert majority.predict_labels(table) == ["supports"] * len(table)
    assert majority.predict_labels(examples) == ["supports"] * len(examples)
    logreg = train_logreg(table)
    assert len(logreg.predict_labels(first_six)) == 6
    with pytest.raises(ValueError, match="needs a features file"):
        logreg.predict_labels(examples)
    narrower = FeatureSchema("stance", "both", sparse_names=["t0", "t1"], dense_names=["len"])
    with pytest.raises(ValueError, match="does not match the model's feature space"):
        logreg.predict_labels(FeatureTable.from_records(narrower, []))
    with pytest.raises(ValueError, match="needs a derived-pairs file"):
        LengthBaseline().predict_labels(table)
    with pytest.raises(ValueError, match="needs a derived-pairs file"):
        neural.predict_labels(table)


def test_encoder_config_meta_is_pinned(tmp_path):
    """The exact JSON of a pair checkpoint's encoder_config; each key is required on load."""
    model, _ = _neural_fixture("pair")
    path = str(tmp_path / "pair.ckpt")
    save_model(model, path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert (
        '"encoder_config": {"dim": 6, "hidden": 4, "truncate": 12, "pair_order": "top_down", '
        '"share_encoder": true, "max_positions": 8, "min_count": 1}'
    ) in lines[-1]
    for key in json.loads(lines[-1])["encoder_config"]:
        meta = json.loads(lines[-1])
        del meta["encoder_config"][key]
        broken = str(tmp_path / f"without-{key}.ckpt")
        with open(broken, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1] + [json.dumps(meta)]) + "\n")
        with pytest.raises(CheckpointFormatError) as excinfo:
            load_model(broken)
        assert str(excinfo.value) == f"{broken}: missing encoder_config key {key!r}"
