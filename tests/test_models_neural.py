"""Neural pair/path classifiers: packing, initialization, training loop."""

from __future__ import annotations

import numpy as np
import pytest

from argtree.models.config import (
    EncoderConfig,
    TrainingDivergedError,
    neural_train_config,
)
from argtree.models.encoder import (
    EncoderVocab,
    pack_pair,
    pack_path_flat,
    pack_path_pairs,
)
from argtree.models.gradcheck import (
    LOGREG_TOLERANCE,
    NEURAL_TOLERANCE,
    gradcheck_logreg,
    gradcheck_neural,
)
from argtree.models import neural
from argtree.models.neural import (
    dataset_loss,
    forward_batch,
    init_params,
    make_batch,
    pack_dataset,
    train_neural,
)
from argtree.pairs import (
    SpecificityExample,
    SpecificityLabel,
    StanceExample,
    StanceLabel,
)
from argtree.trees import StanceEdge

VOCAB = EncoderVocab(tokens=["alpha", "beta", "gamma", "delta", "good", "bad"])
CONFIG = EncoderConfig(dim=8, hidden=6, truncate=16, min_count=1)

SPEC_EXAMPLE = SpecificityExample(
    topic_id="t0",
    first_id="a",
    second_id="b",
    first_text="alpha beta",
    second_text="gamma delta alpha",
    distance=2,
    label=SpecificityLabel.SECOND_MORE_SPECIFIC,
    same_stance=None,
)

PATH_EXAMPLE = StanceExample(
    topic_id="t0",
    a_id="r",
    b_id="c",
    distance=3,
    path_texts=["alpha", "beta gamma", "delta", "good alpha"],
    path_edges=[StanceEdge.PRO, StanceEdge.CON, StanceEdge.PRO],
    label=StanceLabel.OPPOSES,
    same_stance=None,
)


def example_sequences(kind, example, vocab, config):
    """The example's packed sequences, as pack_dataset packs them."""
    return pack_dataset(kind, [example], vocab, config, [example.label.value])[0].sequences


def _ids_equal(seq_a, seq_b):
    np.testing.assert_array_equal(seq_a[0], seq_b[0])
    np.testing.assert_array_equal(seq_a[1], seq_b[1])


# ---------------------------------------------------------------------------
# Packing semantics per model kind


def test_specificity_example_packs_presented_order():
    sequences = example_sequences("pair", SPEC_EXAMPLE, VOCAB, CONFIG)
    assert len(sequences) == 1
    _ids_equal(
        sequences[0],
        pack_pair(VOCAB, "alpha beta", "gamma delta alpha", CONFIG.truncate),
    )


def test_specificity_example_rejects_path_kinds():
    for kind in ("path-flat", "path-hier"):
        with pytest.raises(ValueError, match="path models"):
            example_sequences(kind, SPEC_EXAMPLE, VOCAB, CONFIG)


def test_stance_pair_model_sees_endpoints_descendant_first():
    sequences = example_sequences("pair", PATH_EXAMPLE, VOCAB, CONFIG)
    assert len(sequences) == 1
    _ids_equal(sequences[0], pack_pair(VOCAB, "good alpha", "alpha", CONFIG.truncate))


def test_stance_flat_model_packs_whole_path():
    sequences = example_sequences("path-flat", PATH_EXAMPLE, VOCAB, CONFIG)
    assert len(sequences) == 1
    _ids_equal(
        sequences[0],
        pack_path_flat(VOCAB, PATH_EXAMPLE.path_texts, CONFIG.truncate),
    )


def test_stance_hier_model_packs_one_sequence_per_edge():
    sequences = example_sequences("path-hier", PATH_EXAMPLE, VOCAB, CONFIG)
    expected = pack_path_pairs(
        VOCAB, PATH_EXAMPLE.path_texts, CONFIG.truncate, CONFIG.pair_order
    )
    assert len(sequences) == len(expected) == PATH_EXAMPLE.distance
    for got, want in zip(sequences, expected):
        _ids_equal(got, want)


def test_pack_dataset_maps_labels_to_sorted_indices():
    packed = pack_dataset(
        "path-flat", [PATH_EXAMPLE], VOCAB, CONFIG, ["opposes", "supports"]
    )
    assert packed[0].label_index == 0


def test_pack_dataset_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown label"):
        pack_dataset("path-flat", [PATH_EXAMPLE], VOCAB, CONFIG, ["supports", "other"])


def _path(*texts: str) -> StanceExample:
    return StanceExample(
        topic_id="t0", a_id="r", b_id="c", distance=len(texts) - 1, path_texts=list(texts),
        path_edges=[StanceEdge.PRO] * (len(texts) - 1), label=StanceLabel.SUPPORTS,
        same_stance=None,
    )


def test_pack_dataset_packs_each_distinct_edge_once(monkeypatch):
    examples = [
        _path("alpha", "beta gamma", "delta"),
        _path("alpha", "beta gamma"),
        _path("beta gamma", "delta", "good alpha"),
        _path("zeta", "beta gamma"),
        _path("eta", "beta gamma"),  # unknown tokens pack as PAD, like "zeta"
    ]
    calls = []
    original = neural.pack_pair
    monkeypatch.setattr(neural, "pack_pair", lambda *args: calls.append(args) or original(*args))
    packed = pack_dataset("path-hier", examples, VOCAB, CONFIG, ["supports"])
    assert len(calls) == 5  # distinct (parent, child) texts
    assert [p.keys for p in packed] == [[0, 1], [0], [1, 2], [3], [3]]
    monkeypatch.undo()
    for example, item in zip(examples, packed):
        want = pack_path_pairs(VOCAB, example.path_texts, CONFIG.truncate, CONFIG.pair_order)
        assert len(item.sequences) == len(want)
        for got, expected in zip(item.sequences, want):
            _ids_equal(got, expected)


def test_pack_dataset_keys_sequences_that_pack_alike_as_one():
    examples = [_path("alpha", "beta"), _path("alpha unknown", "beta"), _path("alpha", "beta")]
    packed = pack_dataset("pair", examples, VOCAB, CONFIG, ["supports"])
    assert [p.keys for p in packed] == [[0], [1], [0]]
    short = EncoderConfig(dim=8, hidden=6, truncate=1, min_count=1)
    packed = pack_dataset("pair", examples, VOCAB, short, ["supports"])
    assert [p.keys for p in packed] == [[0], [0], [0]]


# ---------------------------------------------------------------------------
# Initialization


def test_init_shapes_pair():
    params = init_params("pair", VOCAB.size, CONFIG, seed=3)
    assert len(params.encoders) == 1
    assert params.gru is None
    assert params.encoders[0].tok_emb.shape == (VOCAB.size, CONFIG.dim)
    assert params.encoders[0].seg_emb.shape == (2, CONFIG.dim)
    assert params.cls_w.shape == (2, CONFIG.dim)
    assert params.cls_b.shape == (2,)


def test_init_shapes_hier_shared():
    params = init_params("path-hier", VOCAB.size, CONFIG, seed=3)
    assert len(params.encoders) == 1
    assert params.gru is not None
    assert params.gru.fwd.w_z.shape == (CONFIG.hidden, CONFIG.dim)
    assert params.gru.fwd.u_z.shape == (CONFIG.hidden, CONFIG.hidden)
    assert params.cls_w.shape == (2, 2 * CONFIG.hidden)


def test_init_hier_unshared_gets_per_position_encoders():
    config = EncoderConfig(dim=8, hidden=6, truncate=16, share_encoder=False, max_positions=3)
    params = init_params("path-hier", VOCAB.size, config, seed=3)
    assert len(params.encoders) == 3
    names = set(params.blocks())
    assert {"enc0/tok_emb", "enc1/tok_emb", "enc2/tok_emb"} <= names
    # Positions past the roster reuse the last encoder.
    assert params.encoder_for(7) is params.encoders[2]


def test_init_bounds_and_zero_biases():
    params = init_params("path-hier", VOCAB.size, CONFIG, seed=5)
    bound = 1.0 / np.sqrt(CONFIG.dim)
    assert np.abs(params.encoders[0].tok_emb).max() <= bound
    assert np.abs(params.encoders[0].proj_w).max() <= bound
    assert np.abs(params.gru.fwd.u_z).max() <= 1.0 / np.sqrt(CONFIG.hidden)
    assert not params.encoders[0].proj_b.any()
    assert not params.gru.fwd.b_z.any()
    assert not params.cls_b.any()


def test_init_seed_determinism():
    a = init_params("path-hier", VOCAB.size, CONFIG, seed=9)
    b = init_params("path-hier", VOCAB.size, CONFIG, seed=9)
    c = init_params("path-hier", VOCAB.size, CONFIG, seed=10)
    for name, block in a.blocks().items():
        np.testing.assert_array_equal(block, b.blocks()[name])
    assert any(
        not np.array_equal(block, c.blocks()[name]) for name, block in a.blocks().items()
    )


def test_init_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown model kind"):
        init_params("transformer", VOCAB.size, CONFIG, seed=0)


def test_hier_representation_concatenates_both_directions():
    params = init_params("path-hier", VOCAB.size, CONFIG, seed=1)
    packed = pack_dataset("path-hier", [PATH_EXAMPLE], VOCAB, CONFIG, ["opposes", "supports"])
    cache = forward_batch("path-hier", params, make_batch(params, packed))
    assert cache.representation.shape == (1, 2 * CONFIG.hidden)
    assert cache.probs.shape == (1, 2)
    assert cache.probs.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Training loop behavior on a learnable token rule

FILLERS = ["alpha", "beta", "gamma", "delta"]


def _toy_stance_examples(count: int, seed: int) -> list[StanceExample]:
    """Distance-1 paths whose label is readable off one child token."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(count):
        supportive = bool(rng.integers(0, 2))
        marker = "good" if supportive else "bad"
        filler = rng.choice(FILLERS)
        examples.append(
            StanceExample(
                topic_id=f"t{i % 5}",
                a_id="r",
                b_id=f"c{i}",
                distance=1,
                path_texts=["root claim", f"{marker} {filler}"],
                path_edges=[StanceEdge.PRO if supportive else StanceEdge.CON],
                label=StanceLabel.SUPPORTS if supportive else StanceLabel.OPPOSES,
                same_stance=None,
            )
        )
    return examples


TOY_TRAIN = _toy_stance_examples(60, seed=0)
TOY_DEV = _toy_stance_examples(24, seed=1)


def _toy_config(**overrides):
    base = dict(learning_rate=0.5, batch_size=8, max_epochs=12, patience=0, seed=2, l2=0.0)
    base.update(overrides)
    return neural_train_config(**base)


def test_training_learns_token_rule_and_lowers_loss():
    model = train_neural(
        "pair",
        "stance",
        TOY_TRAIN,
        dev_examples=TOY_DEV,
        encoder_config=CONFIG,
        train_config=_toy_config(),
    )
    predictions = model.predict_labels(TOY_TRAIN)
    accuracy = np.mean([p == e.label.value for p, e in zip(predictions, TOY_TRAIN)])
    assert accuracy >= 0.95
    packed = pack_dataset("pair", TOY_TRAIN, model.vocab, CONFIG, model.label_names)
    fresh = init_params("pair", model.vocab.size, CONFIG, seed=2)
    assert dataset_loss("pair", model.params, packed, 0.0) < dataset_loss(
        "pair", fresh, packed, 0.0
    )


def test_returned_params_are_best_dev_checkpoint():
    model = train_neural(
        "pair",
        "stance",
        TOY_TRAIN,
        dev_examples=TOY_DEV,
        encoder_config=CONFIG,
        train_config=_toy_config(),
    )
    recorded = [h.dev_accuracy for h in model.history]
    assert len(recorded) == 12
    predictions = model.predict_labels(TOY_DEV)
    dev_accuracy = np.mean([p == e.label.value for p, e in zip(predictions, TOY_DEV)])
    assert dev_accuracy == pytest.approx(max(recorded))


def test_patience_stops_once_dev_accuracy_stalls():
    model = train_neural(
        "pair",
        "stance",
        TOY_TRAIN,
        dev_examples=TOY_DEV,
        encoder_config=CONFIG,
        train_config=_toy_config(max_epochs=30, patience=1),
    )
    assert len(model.history) < 30
    stats = model.history[-1]
    assert stats.dev_accuracy <= max(h.dev_accuracy for h in model.history[:-1])


def test_training_is_bit_deterministic():
    kwargs = dict(
        dev_examples=TOY_DEV,
        encoder_config=CONFIG,
        train_config=_toy_config(max_epochs=2),
    )
    first = train_neural("pair", "stance", TOY_TRAIN, **kwargs)
    second = train_neural("pair", "stance", TOY_TRAIN, **kwargs)
    for name, block in first.params.blocks().items():
        np.testing.assert_array_equal(block, second.params.blocks()[name])
    assert [h.train_loss for h in first.history] == [h.train_loss for h in second.history]
    assert first.label_names == second.label_names


def test_divergent_learning_rate_raises():
    with pytest.raises(TrainingDivergedError):
        train_neural(
            "pair",
            "stance",
            TOY_TRAIN,
            encoder_config=CONFIG,
            train_config=_toy_config(learning_rate=1e6, l2=1.0, max_epochs=6),
        )


def test_single_class_training_raises():
    supports_only = [e for e in TOY_TRAIN if e.label is StanceLabel.SUPPORTS]
    with pytest.raises(ValueError, match="2 classes"):
        train_neural("pair", "stance", supports_only, encoder_config=CONFIG)


def test_empty_training_set_raises():
    with pytest.raises(ValueError, match="no training examples"):
        train_neural("pair", "stance", [], encoder_config=CONFIG)


def test_predict_labels_returns_known_names():
    model = train_neural(
        "path-hier",
        "stance",
        TOY_TRAIN[:20],
        encoder_config=CONFIG,
        train_config=_toy_config(max_epochs=1),
    )
    predictions = model.predict_labels(TOY_DEV)
    assert len(predictions) == len(TOY_DEV)
    assert set(predictions) <= {"supports", "opposes"}


# ---------------------------------------------------------------------------
# Analytic gradients against central differences


def test_gradcheck_logreg_within_tolerance():
    result = gradcheck_logreg(seed=0)
    assert result.max_rel_error < LOGREG_TOLERANCE


@pytest.mark.parametrize("kind", ["pair", "path-flat", "path-hier"])
def test_gradcheck_neural_within_tolerance(kind):
    result = gradcheck_neural(kind, seed=0)
    assert result.max_rel_error < NEURAL_TOLERANCE


def test_gradcheck_covers_unshared_encoders():
    result = gradcheck_neural("path-hier", seed=0, share_encoder=False)
    assert result.max_rel_error < NEURAL_TOLERANCE


@pytest.mark.parametrize("share_encoder", [True, False])
def test_gradcheck_one_edge_paths_within_tolerance(share_encoder):
    """Every path one edge long: the GRU skips its recurrent gradients."""
    result = gradcheck_neural("path-hier", seed=0, share_encoder=share_encoder, one_edge=True)
    assert result.max_rel_error < NEURAL_TOLERANCE


def test_one_edge_fixture_is_path_hier_only():
    with pytest.raises(ValueError, match="path-hier"):
        gradcheck_neural("pair", one_edge=True)
