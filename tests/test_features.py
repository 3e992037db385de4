"""Feature extraction: vocabularies, lexicons, sparse/dense vectors, files."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from argtree.features import (
    STOP_LIST_SIZE,
    EmbeddingTable,
    FeatureSchema,
    Lexicon,
    Vocabulary,
    build_vocabulary,
    featurize_specificity,
    featurize_stance,
    read_features_file,
    read_lexicon_file,
    read_vocabulary_file,
    write_features,
    write_vocabulary,
)
from argtree.pairs import (
    SpecificityExample,
    SpecificityLabel,
    StanceExample,
    StanceLabel,
    derive_specificity_examples,
    derive_stance_examples,
)
from argtree.trees import StanceEdge
from document_fuzz import (
    DOCUMENT_FUZZ,
    arbitrary_text,
    assert_parses_or_one_file_error,
    json_mutations,
)
from features_reference import FeatureRecord, table_records


LEXICON = Lexicon(
    entries={
        "good": (0.8, "strong"),
        "bad": (-0.9, "strong"),
        "fine": (0.3, "weak"),
    }
)


def specificity_row(vocab, first_text, second_text, feature_set="both") -> FeatureRecord:
    """The one row featurize_specificity gives for the pair (first_text, second_text)."""
    example = SpecificityExample(
        topic_id="t", first_id="a", second_id="b", first_text=first_text,
        second_text=second_text, distance=1,
        label=SpecificityLabel.SECOND_MORE_SPECIFIC, same_stance=None,
    )
    return table_records(featurize_specificity([example], vocab, LEXICON, feature_set))[0]


def stance_row(vocab, path_texts, embeddings=None, use_path=False) -> FeatureRecord:
    """The one row featurize_stance gives for a path from path_texts[0] down to the last."""
    example = StanceExample(
        topic_id="t", a_id="a", b_id="b", distance=len(path_texts) - 1,
        path_texts=list(path_texts), path_edges=[StanceEdge.PRO] * (len(path_texts) - 1),
        label=StanceLabel.SUPPORTS, same_stance=True,
    )
    return table_records(featurize_stance([example], vocab, LEXICON, embeddings, use_path))[0]


def vocab_past_stop_list(tokens) -> Vocabulary:
    """The tokens indexed after STOP_LIST_SIZE filler tokens, so no test token is a stop word."""
    ordered = [f"filler{i}" for i in range(STOP_LIST_SIZE)] + list(tokens)
    return Vocabulary(token_to_index={t: i for i, t in enumerate(ordered)}, min_count=1, built_from="test")


# ------------------------------------------------------------- vocabulary

def test_build_vocabulary_orders_by_count_then_token():
    vocab = build_vocabulary(["b b b a a c", "a c"], min_count=2)
    # a:3 b:3 c:2 -> ties broken alphabetically
    assert vocab.tokens() == ["a", "b", "c"]
    assert vocab.token_to_index == {"a": 0, "b": 1, "c": 2}


def test_build_vocabulary_applies_min_count():
    vocab = build_vocabulary(["solo appears once", "appears appears"], min_count=2)
    assert "solo" not in vocab.token_to_index
    assert "appears" in vocab.token_to_index


def test_stop_tokens_take_the_head():
    vocab = build_vocabulary(["a a a b b c c d"], min_count=1)
    assert vocab.stop_tokens(2) == frozenset({"a", "b"})


def test_vocabulary_file_round_trip(tmp_path):
    vocab = build_vocabulary(["alpha beta beta gamma gamma"], min_count=1)
    path = str(tmp_path / "vocab.json")
    with open(path, "w", encoding="utf-8") as handle:
        write_vocabulary(vocab, handle)
    back = read_vocabulary_file(path)
    assert back.token_to_index == vocab.token_to_index
    assert back.min_count == vocab.min_count


@DOCUMENT_FUZZ
@given(
    st.lists(st.text(max_size=6), unique=True, max_size=8),
    st.integers(min_value=0, max_value=2**63),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=10),
    arbitrary_text,
)
def test_vocabulary_file_round_trips_and_bad_input_is_one_file_error(
    tmp_path, tokens, min_count, built_from, arbitrary
):
    vocab = Vocabulary(
        token_to_index={t: i for i, t in enumerate(tokens)},
        min_count=min_count,
        built_from=built_from,
    )
    path = tmp_path / "vocab.json"
    with open(path, "w", encoding="utf-8") as handle:
        write_vocabulary(vocab, handle)
    assert read_vocabulary_file(str(path)) == vocab
    for text in [arbitrary, *json_mutations(path.read_text(encoding="utf-8"))]:
        assert_parses_or_one_file_error(read_vocabulary_file, path, text)


# ----------------------------------------------------------------- lexicon

def test_read_lexicon_file(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\t0.8\tstrong\nbad\t-0.9\tstrong\nfine\t0.3\tweak\n")
    lex = read_lexicon_file(str(path))
    assert lex.polarity("good") == pytest.approx(0.8)
    assert lex.subjectivity("fine") == "weak"
    assert lex.polarity("unknown") == 0.0
    assert lex.subjectivity("unknown") == "none"


def test_read_lexicon_rejects_bad_rows(tmp_path):
    for bad in ("good\t0.8\n", "good\ttwo\tstrong\n", "good\t3.0\tstrong\n", "good\t0.1\tloud\n"):
        path = tmp_path / "lex.tsv"
        path.write_text(bad)
        with pytest.raises(ValueError):
            read_lexicon_file(str(path))


# -------------------------------------------------------------------- bow

def test_bow_difference_hand_case():
    vocab = build_vocabulary(["cats dogs dogs birds"], min_count=1)
    row = specificity_row(vocab, "cats cats dogs", "dogs birds", feature_set="bow")
    by_token = {vocab.tokens()[i]: v for i, v in row.sparse.items()}
    assert by_token == {"cats": -2.0, "birds": 1.0}  # dogs cancel at 1 - 1


def test_bow_ignores_out_of_vocabulary_tokens():
    vocab = build_vocabulary(["known known"], min_count=1)
    row = specificity_row(vocab, "novel words", "known novel", feature_set="bow")
    assert row.sparse == {vocab.token_to_index["known"]: 1.0}


@given(
    st.lists(st.sampled_from("abcdef"), max_size=12),
    st.lists(st.sampled_from("abcdef"), max_size=12),
)
def test_bow_difference_is_antisymmetric(first, second):
    vocab = Vocabulary(token_to_index={t: i for i, t in enumerate("abcdef")}, min_count=1, built_from="test")
    forward = specificity_row(vocab, " ".join(first), " ".join(second), feature_set="bow")
    backward = specificity_row(vocab, " ".join(second), " ".join(first), feature_set="bow")
    assert forward.sparse == {i: -v for i, v in backward.sparse.items()}


def test_bow_identical_texts_give_empty_vector():
    vocab = build_vocabulary(["same same text"], min_count=1)
    assert specificity_row(vocab, "same text", "same text", feature_set="bow").sparse == {}


# ------------------------------------------------------- dense feature sets

def test_surface_features_hand_case():
    row = specificity_row(
        None, "I think this is fine.", "Records show a bad outcome.", feature_set="surface"
    )
    dense = row.dense
    assert dense["len_first"] == 6.0  # i think this is fine .
    assert dense["len_second"] == 6.0  # records show a bad outcome .
    assert dense["len_diff"] == dense["len_second"] - dense["len_first"]
    assert dense["pron_first"] == 1.0  # "i"
    assert dense["pron_second"] == 0.0
    assert dense["pol_first"] == pytest.approx(0.3)
    assert dense["pol_second"] == pytest.approx(0.9)  # |{-0.9}|


def test_stance_features_hand_case():
    vocab = vocab_past_stop_list(["shared", "words", "differ"])
    dense = stance_row(vocab, ["shared good words", "shared bad thing"]).dense
    assert dense["word_match"] == 1.0  # "shared"
    assert dense["jaccard"] == pytest.approx(1 / 5)
    assert dense["sentiment_match"] == 0.0  # +0.8 vs -0.9
    assert dense["pol_sum_a"] == pytest.approx(0.8)
    assert dense["pol_sum_b"] == pytest.approx(-0.9)
    assert dense["subj_strong_a"] == 1.0
    assert dense["subj_strong_b"] == 1.0
    assert dense["subj_weak_a"] == 0.0


def test_stance_jaccard_of_equal_texts_is_one():
    vocab = vocab_past_stop_list(["x", "y"])
    assert stance_row(vocab, ["x y", "x y"]).dense["jaccard"] == 1.0
    # Even when the stop list swallows every token, equal sets stay equal.
    vocab = build_vocabulary(["x y"], min_count=1)
    assert vocab.stop_tokens() >= {"x", "y"}
    assert stance_row(vocab, ["x", "x"]).dense["jaccard"] == 1.0


def test_stance_embedding_cosine():
    vocab = vocab_past_stop_list(["a", "b"])
    table = EmbeddingTable(vectors={"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])}, dim=2)
    assert stance_row(vocab, ["a", "b"], table).dense["embed_cosine"] == pytest.approx(0.0)
    assert stance_row(vocab, ["a", "a"], table).dense["embed_cosine"] == pytest.approx(1.0)
    # all-unknown text -> zero vector -> cosine pinned to 0
    assert stance_row(vocab, ["zzz", "a"], table).dense["embed_cosine"] == 0.0


def test_path_features_fold_the_prefix():
    vocab = vocab_past_stop_list(["p", "q", "r"])
    folded = stance_row(vocab, ["p", "q", "r"], use_path=True)
    direct = stance_row(vocab, ["p q", "r"])
    assert (folded.sparse, folded.dense) == (direct.sparse, direct.dense)
    with pytest.raises(ValueError):
        stance_row(vocab, ["only"], use_path=True)


# ------------------------------------------------------------ featurize + io

def test_featurize_specificity_schema_and_round_trip(uniform_corpus, tmp_path):
    examples = list(derive_specificity_examples(uniform_corpus, seed=1))
    vocab = build_vocabulary(
        (t for e in examples for t in (e.first_text, e.second_text)), min_count=1
    )
    records = featurize_specificity(examples, vocab, LEXICON, feature_set="both")
    schema = records.schema
    assert schema.task == "specificity"
    assert schema.width == len(vocab) + 9
    assert len(records) == len(examples)

    path = str(tmp_path / "features.txt")
    with open(path, "w", encoding="utf-8") as handle:
        write_features(records, handle)
    records_back = read_features_file(path)
    assert records_back.schema == schema
    assert records_back == records


def test_featurize_specificity_bow_requires_vocab(uniform_corpus):
    examples = list(derive_specificity_examples(uniform_corpus, seed=1))
    with pytest.raises(ValueError):
        featurize_specificity(examples, None, LEXICON, feature_set="bow")
    schema = featurize_specificity(examples, None, LEXICON, feature_set="surface").schema
    assert schema.sparse_names == []


def test_featurize_stance_endpoint_vs_path(uniform_corpus, tmp_path):
    examples = list(derive_stance_examples(uniform_corpus))
    vocab = build_vocabulary(
        (t for e in examples for t in e.path_texts), min_count=1
    )
    table_end = featurize_stance(examples, vocab, LEXICON, use_path=False)
    table_path = featurize_stance(examples, vocab, LEXICON, use_path=True)
    schema_end, schema_path = table_end.schema, table_path.schema
    assert schema_end.feature_set == "endpoint"
    assert schema_path.feature_set == "path"
    assert schema_end != schema_path
    # Distance-one records agree because the path is just (ancestor, descendant).
    records_end, records_path = table_records(table_end), table_records(table_path)
    for e, r_end, r_path in zip(examples, records_end, records_path):
        if e.distance == 1:
            assert r_end.sparse == r_path.sparse
            assert r_end.dense == r_path.dense

    path = str(tmp_path / "stance.txt")
    with open(path, "w", encoding="utf-8") as handle:
        write_features(table_path, handle)
    table_back = read_features_file(path)
    assert table_back.schema == schema_path
    assert table_back == table_path


def test_featurize_rows_match_one_example_featurize(uniform_corpus):
    """The per-text caches of a whole-list featurize give each row what the example alone gives."""
    embeddings = EmbeddingTable(
        vectors={"uniforms": np.array([0.3, -0.1]), "students": np.array([0.7, 0.2])}, dim=2
    )
    spec = list(derive_specificity_examples(uniform_corpus, seed=1))
    vocab = build_vocabulary((t for e in spec for t in (e.first_text, e.second_text)), min_count=1)
    records = table_records(featurize_specificity(spec, vocab, LEXICON, feature_set="both"))
    for example, record in zip(spec, records):
        alone = table_records(featurize_specificity([example], vocab, LEXICON, feature_set="both"))
        assert record == alone[0]
    stance = list(derive_stance_examples(uniform_corpus))
    for use_path in (False, True):
        records = table_records(
            featurize_stance(stance, vocab, LEXICON, embeddings, use_path=use_path)
        )
        for example, record in zip(stance, records):
            alone = table_records(featurize_stance([example], vocab, LEXICON, embeddings, use_path))
            assert record == alone[0]


@pytest.mark.parametrize(
    "header, reason",
    [
        ('{"schema": "argtree-features/1"', "invalid JSON"),
        ('{"schema": "argtree-features/1", "feature_set": "bow"}', "missing field 'task'"),
        ('{"schema": "argtree-features/0"}', "schema mismatch"),
    ],
)
def test_bad_features_header_is_a_located_error(tmp_path, header, reason):
    path = tmp_path / "features.jsonl"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_features_file(str(path))
    assert str(excinfo.value).startswith(f"{path}:1: ")
    assert reason in str(excinfo.value)


def test_feature_records_keep_strata_fields(uniform_corpus):
    examples = list(derive_stance_examples(uniform_corpus))
    vocab = build_vocabulary((t for e in examples for t in e.path_texts), min_count=1)
    records = table_records(featurize_stance(examples, vocab, LEXICON))
    for example, record in zip(examples, records):
        assert record.topic_id == example.topic_id
        assert record.distance == example.distance
        assert record.same_stance == example.same_stance
        assert record.label == example.label.value


def test_schemas_with_other_names_differ():
    a = FeatureSchema(task="stance", feature_set="endpoint", sparse_names=["x"], dense_names=["d"])
    b = FeatureSchema(task="stance", feature_set="endpoint", sparse_names=["y"], dense_names=["d"])
    assert a != b
