"""Synthetic corpus generator: determinism, ledger exactness, planted signals."""

from __future__ import annotations

import io
import json

import pytest

from argtree.pairs import StanceLabel
from argtree.synth import (
    CONNECTIVES,
    DEPTH_CYCLE_TOKENS,
    MARKER_TOKENS,
    ROOT_TOKEN,
    SynthConfig,
    generate_corpus,
    stance_oracle,
)
from argtree.text import tokenize
from argtree.trees import StanceEdge, build_tree, node_depth, validate_tree


SMALL = SynthConfig(topic_count=12, branch_min=2, branch_max=3, depth_min=3, depth_max=4, seed=42)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(SMALL)


def test_generation_is_deterministic(small_corpus):
    trees_a, ledger_a = small_corpus
    trees_b, ledger_b = generate_corpus(SMALL)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    ledger_a.write(buf_a)
    ledger_b.write(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    from argtree.corpus_io import tree_to_record

    assert [tree_to_record(t) for t in trees_a] == [tree_to_record(t) for t in trees_b]


def test_trees_are_structurally_valid(small_corpus):
    trees, _ = small_corpus
    for tree in trees:
        assert validate_tree(tree) == []


def test_depths_stay_inside_configured_range(small_corpus):
    trees, _ = small_corpus
    for tree in trees:
        max_depth = max(node_depth(tree, n) for n in tree.nodes)
        assert SMALL.depth_min <= max_depth <= SMALL.depth_max
        # Every leaf sits exactly at the tree's target depth.
        for node in tree.nodes.values():
            if not node.children:
                assert node_depth(tree, node.id) == max_depth


def test_branching_stays_inside_configured_range(small_corpus):
    trees, _ = small_corpus
    for tree in trees:
        for node in tree.nodes.values():
            if node.children:
                assert SMALL.branch_min <= len(node.children) <= SMALL.branch_max


def test_ledger_totals_match_observable_recount(small_corpus):
    """Recount every observable ledger quantity directly from the trees."""
    trees, ledger = small_corpus
    nodes = edges = con = markers = connectives = 0
    depth_hist: dict[str, int] = {}
    for tree in trees:
        for node in tree.nodes.values():
            nodes += 1
            depth = node_depth(tree, node.id)
            depth_hist[str(depth)] = depth_hist.get(str(depth), 0) + 1
            tokens = tokenize(node.text)
            if node.stance_to_parent is not None:
                edges += 1
                if node.stance_to_parent is StanceEdge.CON:
                    con += 1
                if MARKER_TOKENS[depth % 3] in tokens:
                    markers += 1
                if tokens[0] in CONNECTIVES:
                    connectives += 1
    assert ledger.totals["nodes"] == nodes
    assert ledger.totals["edges"] == edges
    assert ledger.totals["con_edges"] == con
    assert ledger.totals["markers_placed"] == markers
    assert ledger.totals["connectives"] == connectives
    assert ledger.totals["nodes_by_depth"] == depth_hist


def test_marker_faithfulness_identity(small_corpus):
    """markers_faithful must equal marked-con plus unmarked-pro edges."""
    trees, ledger = small_corpus
    faithful = 0
    for tree in trees:
        for node in tree.nodes.values():
            if node.stance_to_parent is None:
                continue
            depth = node_depth(tree, node.id)
            marked = MARKER_TOKENS[depth % 3] in tokenize(node.text)
            if node.stance_to_parent is StanceEdge.CON:
                faithful += 1 if marked else 0
            else:
                faithful += 0 if marked else 1
    assert ledger.totals["markers_faithful"] == faithful


def test_length_pair_ledger_matches_token_counts(small_corpus):
    """Recount longer/equal/shorter per distance from the raw texts."""
    from argtree.trees import ancestor_descendant_pairs

    trees, ledger = small_corpus
    recount = {
        str(d): {"longer": 0, "equal": 0, "shorter": 0} for d in range(1, 6)
    }
    for tree in trees:
        lengths = {n: len(tokenize(tree.nodes[n].text)) for n in tree.nodes}
        for ancestor, descendant, distance in ancestor_descendant_pairs(tree, 5):
            a, b = lengths[ancestor], lengths[descendant]
            key = "longer" if b > a else "equal" if b == a else "shorter"
            recount[str(distance)][key] += 1
    assert ledger.totals["length_pairs"] == recount


def test_every_claim_carries_its_depth_cycle_token(small_corpus):
    trees, _ = small_corpus
    for tree in trees:
        for node in tree.nodes.values():
            depth = node_depth(tree, node.id)
            tokens = tokenize(node.text)
            assert DEPTH_CYCLE_TOKENS[depth % 3] in tokens
            if node.parent is None:
                assert ROOT_TOKEN in tokens
                assert node.text.endswith("?")
            else:
                assert ROOT_TOKEN not in tokens
                assert len(tokens) >= SMALL.min_claim_tokens


def test_marker_direction_tracks_con_edges():
    """With high marker fidelity, markers concentrate on con edges."""
    cfg = SynthConfig(topic_count=30, stance_marker_p=0.95, seed=9)
    trees, _ = generate_corpus(cfg)
    marked_given_con = []
    marked_given_pro = []
    for tree in trees:
        for node in tree.nodes.values():
            if node.stance_to_parent is None:
                continue
            depth = node_depth(tree, node.id)
            marked = MARKER_TOKENS[depth % 3] in tokenize(node.text)
            if node.stance_to_parent is StanceEdge.CON:
                marked_given_con.append(marked)
            else:
                marked_given_pro.append(marked)
    rate_con = sum(marked_given_con) / len(marked_given_con)
    rate_pro = sum(marked_given_pro) / len(marked_given_pro)
    assert rate_con > 0.9
    assert rate_pro < 0.1


def test_predicted_length_accuracy_formula(small_corpus):
    _, ledger = small_corpus
    outcome = ledger.totals["length_pairs"]["1"]
    total = sum(outcome.values())
    expected = (outcome["longer"] + 0.5 * outcome["equal"]) / total
    assert ledger.predicted_length_accuracy(1) == pytest.approx(expected)


def test_ledger_stream_is_json_lines(small_corpus):
    _, ledger = small_corpus
    buf = io.StringIO()
    ledger.write(buf)
    lines = buf.getvalue().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["record"] == "config"
    assert records[0]["topic_count"] == SMALL.topic_count
    assert records[-1]["record"] == "total"
    assert len(records) == SMALL.topic_count + 2
    assert all(r["record"] == "topic" for r in records[1:-1])


def test_topic_ids_embed_seed_and_index(small_corpus):
    trees, _ = small_corpus
    assert trees[0].topic_id == f"synth-{SMALL.seed}-00000"
    assert trees[-1].topic_id == f"synth-{SMALL.seed}-{SMALL.topic_count - 1:05d}"


def test_config_validation_errors():
    with pytest.raises(ValueError):
        SynthConfig(topic_count=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(branch_min=3, branch_max=2).validate()
    with pytest.raises(ValueError):
        SynthConfig(con_probability=1.5).validate()
    with pytest.raises(ValueError):
        SynthConfig(min_claim_tokens=2).validate()


def test_stance_oracle_hand_cases(uniform_tree):
    assert stance_oracle(uniform_tree, "c0", "c1") is StanceLabel.SUPPORTS
    assert stance_oracle(uniform_tree, "c0", "c3") is StanceLabel.OPPOSES
    assert stance_oracle(uniform_tree, "c0", "c5") is StanceLabel.SUPPORTS
    assert stance_oracle(uniform_tree, "c1", "c5") is StanceLabel.SUPPORTS
    assert stance_oracle(uniform_tree, "c0", "c6") is StanceLabel.OPPOSES
    with pytest.raises(ValueError):
        stance_oracle(uniform_tree, "c5", "c0")


DEEP = 3000  # well past Python's default recursion limit of 1000


def test_stance_oracle_walks_a_deep_chain():
    edges = [StanceEdge.CON if (i * 7) % 5 < 2 else StanceEdge.PRO for i in range(DEEP)]
    claims = [("c0", None, None, "Root?")] + [
        (f"c{i + 1}", f"c{i}", edge, f"claim {i + 1}.") for i, edge in enumerate(edges)
    ]
    tree = build_tree(topic_id="deep", claims=claims)
    for ancestor, descendant in (("c0", f"c{DEEP}"), ("c0", "c1"), ("c17", "c2950")):
        start, end = int(ancestor[1:]), int(descendant[1:])
        cons = sum(edge is StanceEdge.CON for edge in edges[start:end])
        want = StanceLabel.SUPPORTS if cons % 2 == 0 else StanceLabel.OPPOSES
        assert stance_oracle(tree, ancestor, descendant) is want
    with pytest.raises(ValueError, match="'c0' has no ancestors"):
        stance_oracle(tree, f"c{DEEP}", "c5")


def test_generator_grows_a_deep_chain():
    # Without length_signal_p=0 each claim outgrows its parent and texts
    # reach thousands of tokens; the walk itself is what is tested here.
    config = SynthConfig(
        topic_count=1, branch_min=1, branch_max=1, depth_min=DEEP, depth_max=DEEP,
        length_signal_p=0.0,
    )
    (tree,), ledger = generate_corpus(config)
    assert len(tree.nodes) == DEEP + 1
    assert node_depth(tree, f"c{DEEP}") == DEEP
    assert validate_tree(tree) == []
