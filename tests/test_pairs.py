"""Pair derivation, labels, orientation, splits, and pair-file round trips."""

from __future__ import annotations

import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from argtree.pairs import (
    SpecificityExample,
    SpecificityLabel,
    StanceExample,
    StanceLabel,
    TopicSplit,
    derive_specificity_examples,
    derive_stance_examples,
    derive_stance_label,
    read_pairs,
    read_pairs_file,
    read_split_file,
    split_by_topic,
    write_pairs,
    write_split,
)
from argtree.synth import stance_oracle
from argtree.trees import StanceEdge, build_tree, node_depth
from document_fuzz import (
    DOCUMENT_FUZZ,
    arbitrary_text,
    assert_parses_or_one_file_error,
    json_mutations,
)


# ---------------------------------------------------------------- stance label

def test_stance_label_parity_hand_cases():
    pro, con = StanceEdge.PRO, StanceEdge.CON
    assert derive_stance_label([pro]) is StanceLabel.SUPPORTS
    assert derive_stance_label([con]) is StanceLabel.OPPOSES
    assert derive_stance_label([con, con]) is StanceLabel.SUPPORTS
    assert derive_stance_label([pro, con, pro]) is StanceLabel.OPPOSES
    assert derive_stance_label([con, pro, con, pro]) is StanceLabel.SUPPORTS


def test_stance_label_rejects_empty_path():
    with pytest.raises(ValueError):
        derive_stance_label([])


def test_stance_label_on_fixture_paths(uniform_tree):
    # c0 -> c5 crosses pro, con, con: two flips cancel out.
    examples = {
        (e.a_id, e.b_id): e for e in derive_stance_examples([uniform_tree])
    }
    assert examples[("c0", "c5")].label is StanceLabel.SUPPORTS
    assert examples[("c0", "c3")].label is StanceLabel.OPPOSES
    assert examples[("c1", "c5")].label is StanceLabel.SUPPORTS
    assert examples[("c2", "c6")].label is StanceLabel.SUPPORTS
    assert examples[("c0", "c6")].label is StanceLabel.OPPOSES


def _random_chain_tree(rng: random.Random):
    """A random path-shaped tree, deep enough to cross several flips."""
    depth = rng.randint(1, 7)
    rows = [("n0", None, None, "root")]
    for i in range(1, depth + 1):
        stance = StanceEdge.CON if rng.random() < 0.5 else StanceEdge.PRO
        rows.append((f"n{i}", f"n{i-1}", stance, f"claim {i}"))
    return build_tree("chain", rows), depth


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_parity_label_matches_recursive_oracle(seed):
    """Dual route: closed-form parity vs the independent recursive walker."""
    tree, depth = _random_chain_tree(random.Random(seed))
    for example in derive_stance_examples([tree], max_distance=depth):
        assert stance_oracle(tree, example.a_id, example.b_id) is example.label


# ------------------------------------------------------------- specificity

def test_specificity_label_always_points_at_descendant(uniform_tree):
    for example in derive_specificity_examples([uniform_tree], seed=3):
        if example.label is SpecificityLabel.SECOND_MORE_SPECIFIC:
            deeper = example.second_id
            shallower = example.first_id
        else:
            deeper = example.first_id
            shallower = example.second_id
        assert (
            node_depth(uniform_tree, deeper)
            - node_depth(uniform_tree, shallower)
            == example.distance
        )


def test_specificity_orientation_is_seed_deterministic(uniform_corpus):
    a = list(derive_specificity_examples(uniform_corpus, seed=9))
    b = list(derive_specificity_examples(uniform_corpus, seed=9))
    assert a == b


def test_specificity_orientation_changes_with_seed(uniform_corpus):
    a = [e.label for e in derive_specificity_examples(uniform_corpus, seed=1)]
    found_difference = False
    for other_seed in range(2, 12):
        b = [e.label for e in derive_specificity_examples(uniform_corpus, seed=other_seed)]
        if b != a:
            found_difference = True
            break
    assert found_difference


def test_specificity_same_stance_semantics(uniform_tree):
    examples = {
        frozenset((e.first_id, e.second_id)): e.same_stance
        for e in derive_specificity_examples([uniform_tree])
    }
    assert examples[frozenset(("c0", "c1"))] is None  # thesis has no stance
    assert examples[frozenset(("c1", "c3"))] is False  # pro vs con
    assert examples[frozenset(("c3", "c5"))] is True  # con vs con
    assert examples[frozenset(("c1", "c5"))] is False


def test_distance_caps():
    rows = [("n0", None, None, "root")]
    for i in range(1, 9):
        rows.append((f"n{i}", f"n{i-1}", StanceEdge.PRO, f"claim {i}"))
    tree = build_tree("deep", rows)
    spec_distances = {e.distance for e in derive_specificity_examples([tree])}
    stance_distances = {e.distance for e in derive_stance_examples([tree])}
    assert max(spec_distances) == 5
    assert max(stance_distances) == 4


def test_stance_examples_carry_full_path(uniform_tree):
    examples = {(e.a_id, e.b_id): e for e in derive_stance_examples([uniform_tree])}
    e = examples[("c0", "c5")]
    assert e.path_texts == [
        uniform_tree.nodes[n].text for n in ("c0", "c1", "c3", "c5")
    ]
    assert e.path_edges == [StanceEdge.PRO, StanceEdge.CON, StanceEdge.CON]
    assert e.distance == 3


# ------------------------------------------------------------------ splits

def test_split_partition_properties():
    topics = [f"t{i:03d}" for i in range(101)]
    split = split_by_topic(topics, ratios=(0.6, 0.2, 0.2), seed=5)
    assert split.train | split.dev | split.test == set(topics)
    assert not split.train & split.dev
    assert not split.train & split.test
    assert not split.dev & split.test
    # Largest-remainder sizing: every part within one topic of its share.
    for part, ratio in zip((split.train, split.dev, split.test), (0.6, 0.2, 0.2)):
        assert abs(len(part) - ratio * 101) < 1.0


def test_split_is_deterministic_and_seed_sensitive():
    topics = [f"t{i}" for i in range(40)]
    a = split_by_topic(topics, seed=1)
    b = split_by_topic(topics, seed=1)
    c = split_by_topic(topics, seed=2)
    assert (a.train, a.dev, a.test) == (b.train, b.dev, b.test)
    assert (a.train, a.dev, a.test) != (c.train, c.dev, c.test)


def test_split_ignores_input_order():
    topics = [f"t{i}" for i in range(40)]
    shuffled = list(topics)
    random.Random(0).shuffle(shuffled)
    a = split_by_topic(topics, seed=3)
    b = split_by_topic(shuffled, seed=3)
    assert (a.train, a.dev, a.test) == (b.train, b.dev, b.test)


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError, match="fewer topics than splits"):
        split_by_topic(["a", "b"], seed=0)
    for ratios in ((0.5, 0.2, 0.2), (float("nan"), 0.5, 0.5), (float("inf"), 0.0, 0.0)):
        with pytest.raises(ValueError, match="ratios must be"):
            split_by_topic(["a", "b", "c"], ratios=ratios, seed=0)


def test_split_rejects_duplicate_topics():
    with pytest.raises(ValueError):
        split_by_topic(["a", "a", "b"], seed=0)


@given(
    st.integers(min_value=3, max_value=120),
    st.integers(min_value=0, max_value=999),
)
@settings(max_examples=40)
def test_split_property_partition(n, seed):
    topics = [f"topic{i}" for i in range(n)]
    split = split_by_topic(topics, ratios=(0.5, 0.25, 0.25), seed=seed)
    assert len(split.train) + len(split.dev) + len(split.test) == n
    assert split.train | split.dev | split.test == set(topics)


@DOCUMENT_FUZZ
@given(
    st.lists(st.text(max_size=8), unique=True, max_size=9),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
    arbitrary_text,
)
def test_split_file_round_trips_and_bad_input_is_one_file_error(
    tmp_path, topics, seed, ratios, arbitrary
):
    split = TopicSplit(
        train=frozenset(topics[::3]), dev=frozenset(topics[1::3]), test=frozenset(topics[2::3]),
        seed=seed, ratios=ratios,
    )
    buf = io.StringIO()
    write_split(split, buf)
    path = tmp_path / "split.json"
    path.write_text(buf.getvalue(), encoding="utf-8")
    assert read_split_file(str(path)) == split
    for text in [arbitrary, *json_mutations(buf.getvalue())]:
        assert_parses_or_one_file_error(read_split_file, path, text)


# ------------------------------------------------------------- round trips

def test_pairs_round_trip_specificity(uniform_corpus):
    examples = list(derive_specificity_examples(uniform_corpus, seed=2))
    buf = io.StringIO()
    write_pairs(examples, buf)
    back = list(read_pairs(io.StringIO(buf.getvalue())))
    assert back == examples
    assert all(isinstance(e, SpecificityExample) for e in back)


def test_pairs_round_trip_stance(uniform_corpus):
    examples = list(derive_stance_examples(uniform_corpus))
    buf = io.StringIO()
    write_pairs(examples, buf)
    back = list(read_pairs(io.StringIO(buf.getvalue())))
    assert back == examples
    assert all(isinstance(e, StanceExample) for e in back)


def test_pairs_file_encodes_missing_same_stance_as_na(uniform_tree):
    examples = [e for e in derive_stance_examples([uniform_tree]) if e.a_id == "c0"]
    buf = io.StringIO()
    write_pairs(examples, buf)
    assert '"same_stance": "n/a"' in buf.getvalue()


# ------------------------------------------------------------- reader fuzz

FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
claim_texts = st.one_of(st.sampled_from(["A shared claim.", "Another claim."]), st.text(max_size=12))


@st.composite
def pair_examples(draw):
    topic_id = draw(st.sampled_from(["t0", "t1"]))
    same_stance = draw(st.sampled_from([None, True, False]))
    if draw(st.booleans()):
        return SpecificityExample(
            topic_id, "c0", "c0.1", draw(claim_texts), draw(claim_texts),
            draw(st.integers(1, 5)), draw(st.sampled_from(list(SpecificityLabel))), same_stance,
        )
    edges = draw(st.lists(st.sampled_from(list(StanceEdge)), min_size=1, max_size=4))
    texts = draw(st.lists(claim_texts, min_size=len(edges) + 1, max_size=len(edges) + 1))
    return StanceExample(
        topic_id, "c0", "c0.1", len(edges), texts, edges, derive_stance_label(edges), same_stance
    )


def _strings(example) -> list[str]:
    if isinstance(example, SpecificityExample):
        return [example.topic_id, example.first_id, example.second_id,
                example.first_text, example.second_text]
    return [example.topic_id, example.a_id, example.b_id, *example.path_texts]


def _pairs_lines(examples) -> list[str]:
    buf = io.StringIO()
    write_pairs(examples, buf)
    # not splitlines(): the writer leaves U+2028 and the like unescaped inside a line
    return buf.getvalue().split("\n")[:-1]


@FUZZ
@given(st.lists(pair_examples(), max_size=6))
def test_pairs_file_round_trips_with_one_object_per_string(tmp_path, examples):
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(line + "\n" for line in _pairs_lines(examples)), encoding="utf-8")
    back = read_pairs_file(str(path))
    assert back == examples
    first_seen: dict[str, str] = {}
    for example in back:
        for value in _strings(example):
            assert first_seen.setdefault(value, value) is value


def _pairs_mutations(line: str):
    yield from json_mutations(line)
    record = json.loads(line)
    if record["task"] == "stance":  # a path that disagrees with its distance or label
        texts, edges = record["path_texts"], record["path_edges"]
        flipped = "opposes" if record["label"] == "supports" else "supports"
        for edit in ({"path_texts": texts[:1]}, {"path_edges": edges[1:]},
                     {"path_edges": edges + edges[:1]}, {"distance": record["distance"] + 1},
                     {"label": flipped}):
            yield json.dumps(dict(record, **edit))


@FUZZ
@given(st.lists(pair_examples(), min_size=1, max_size=4), st.data())
def test_mutated_pairs_lines_parse_the_same_or_raise_one_located_error(tmp_path, examples, data):
    """A file with one bad line reads as its lines read one by one, or fails at that line."""
    lines = _pairs_lines(examples)
    at = data.draw(st.integers(0, len(lines) - 1))
    arbitrary = data.draw(st.text(st.characters(blacklist_characters="\r\n"), max_size=40))
    path = tmp_path / "pairs.jsonl"
    for mutated in [arbitrary, *_pairs_mutations(lines[at])]:
        text = "".join(line + "\n" for line in lines[:at] + [mutated] + lines[at + 1 :])
        path.write_text(text, encoding="utf-8")
        try:
            alone = list(read_pairs([mutated + "\n"], source=str(path)))
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                read_pairs_file(str(path))
            assert str(exc).startswith(f"{path}:1: ")
            assert str(excinfo.value) == str(exc).replace(f"{path}:1: ", f"{path}:{at + 1}: ", 1)
        else:
            assert read_pairs_file(str(path)) == examples[:at] + alone + examples[at + 1 :]
