"""Seeded synthetic corpus generator with planted, measurable signals.

Planted signals and why they are shaped this way:

* Length: with probability length_signal_p a child claim is 3-8 tokens
  longer than its parent, otherwise 1-6 tokens shorter. The asymmetric
  shrink keeps the per-distance accuracy of a pure length comparator
  strictly non-decreasing in distance (0.90, 0.95, 0.98, ... for the
  default 0.9), so the planted trend survives sampling noise.
* Stance markers: with probability stance_marker_p a con child contains
  a marker token and a pro child does not. The marker token is indexed
  by the child's depth modulo 3 (negmark0/1/2), and every claim carries
  a depth-cycle token (dcycle0/1/2). Mean-pooled pair encoders are order
  invariant, so a marker alone cannot be attributed to the parent or the
  child of a pair; the depth-cycle pair pins the depth phase, which
  makes the child's marker slot identifiable from any adjacent pair
  while claims beyond the pair stay invisible. Endpoint-only models thus
  see only the final edge of a path, and path-aware models can recover
  every edge.
* Connectives: with probability connective_p a non-root claim starts
  with one of {also, but, only, because}; thesis claims never do, so
  connectives mark the more specific side of a pair.

Texts are drawn from a per-topic concept vocabulary plus shared filler
words so bag-of-words vocabularies are non-degenerate. Generation is
seeded per topic, and the ledger records exact counts of what was
planted, including per-distance length outcomes, so tests can compare
measured model accuracy against ledger predictions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, asdict
from typing import IO, Optional

from .trees import ArgumentTree, StanceEdge, build_tree
from .pairs import StanceLabel

CONNECTIVES = ("also", "but", "only", "because")
MARKER_TOKENS = ("negmark0", "negmark1", "negmark2")
DEPTH_CYCLE_TOKENS = ("dcycle0", "dcycle1", "dcycle2")
ROOT_TOKEN = "rootmark"
LENGTH_GAIN = (3, 8)
LENGTH_SHRINK = (1, 6)
MAX_LEDGER_DISTANCE = 5


@dataclass
class SynthConfig:
    topic_count: int = 10
    branch_min: int = 2
    branch_max: int = 3
    depth_min: int = 3
    depth_max: int = 5
    con_probability: float = 0.53
    length_signal_p: float = 0.9
    stance_marker_p: float = 0.95
    connective_p: float = 0.8
    seed: int = 0
    concepts_per_topic: int = 10
    filler_count: int = 120
    root_len_min: int = 12
    root_len_max: int = 16
    min_claim_tokens: int = 6
    two_sentence_p: float = 0.3

    def validate(self) -> None:
        if self.topic_count < 1:
            raise ValueError("topic_count must be positive")
        if not (1 <= self.branch_min <= self.branch_max):
            raise ValueError("branching bounds must satisfy 1 <= min <= max")
        if not (1 <= self.depth_min <= self.depth_max):
            raise ValueError("depth bounds must satisfy 1 <= min <= max")
        for name in ("con_probability", "length_signal_p", "stance_marker_p",
                     "connective_p", "two_sentence_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not (4 <= self.root_len_min <= self.root_len_max):
            raise ValueError("root length bounds must satisfy 4 <= min <= max")
        if self.min_claim_tokens < 4:
            raise ValueError("min_claim_tokens must be at least 4")
        if self.concepts_per_topic < 1 or self.filler_count < 1:
            raise ValueError("vocabulary sizes must be positive")


def _empty_counts() -> dict:
    return {
        "nodes": 0,
        "edges": 0,
        "con_edges": 0,
        "markers_faithful": 0,
        "markers_placed": 0,
        "connectives": 0,
        "length_signal_fired": 0,
        "nodes_by_depth": {},
        "length_pairs": {
            str(d): {"longer": 0, "equal": 0, "shorter": 0}
            for d in range(1, MAX_LEDGER_DISTANCE + 1)
        },
    }


def _merge_counts(total: dict, part: dict) -> None:
    for key in ("nodes", "edges", "con_edges", "markers_faithful",
                "markers_placed", "connectives", "length_signal_fired"):
        total[key] += part[key]
    for depth, count in part["nodes_by_depth"].items():
        total["nodes_by_depth"][depth] = total["nodes_by_depth"].get(depth, 0) + count
    for d, outcome in part["length_pairs"].items():
        for kind, count in outcome.items():
            total["length_pairs"][d][kind] += count


@dataclass
class GenerationLedger:
    config: dict
    totals: dict = field(default_factory=_empty_counts)
    per_topic: list[dict] = field(default_factory=list)

    def add_topic(self, topic_id: str, counts: dict) -> None:
        self.per_topic.append({"topic_id": topic_id, **counts})
        _merge_counts(self.totals, counts)

    def length_signal_rate(self) -> float:
        if self.totals["edges"] == 0:
            return 0.0
        return self.totals["length_signal_fired"] / self.totals["edges"]

    def predicted_length_accuracy(self, distance: int) -> float:
        """Accuracy a longer-is-more-specific comparator should reach.

        Ties count half because presentation order is a fair coin.
        """
        outcome = self.totals["length_pairs"][str(distance)]
        total = outcome["longer"] + outcome["equal"] + outcome["shorter"]
        if total == 0:
            raise ValueError(f"no pairs recorded at distance {distance}")
        return (outcome["longer"] + 0.5 * outcome["equal"]) / total

    def write(self, stream: IO[str]) -> None:
        stream.write(json.dumps({"record": "config", **self.config}) + "\n")
        for topic in self.per_topic:
            stream.write(json.dumps({"record": "topic", **topic}) + "\n")
        stream.write(json.dumps({"record": "total", **self.totals}) + "\n")


@dataclass
class _NodeDraft:
    id: str
    parent: Optional[str]
    stance: Optional[StanceEdge]
    depth: int
    length: int
    text: str = ""


def _claim_text(
    rng: random.Random,
    config: SynthConfig,
    depth: int,
    length: int,
    stance: Optional[StanceEdge],
    marked: bool,
    connective: Optional[str],
    concepts: list[str],
    fillers: list[str],
) -> str:
    words: list[str] = []
    if connective is not None:
        words.append(connective)
    words.append(DEPTH_CYCLE_TOKENS[depth % 3])
    if marked:
        words.append(MARKER_TOKENS[depth % 3])
    if stance is None:
        words.append(ROOT_TOKEN)
    two_sentences = length >= 14 and rng.random() < config.two_sentence_p
    n_periods = 2 if two_sentences else 1
    while len(words) < length - n_periods:
        if rng.random() < 0.3:
            words.append(rng.choice(concepts))
        else:
            words.append(rng.choice(fillers))
    words = words[: length - n_periods]

    def cap(seq: list[str]) -> str:
        joined = " ".join(seq)
        return joined[0].upper() + joined[1:]

    closer = "?" if stance is None else "."
    if two_sentences and len(words) >= 4:
        half = len(words) // 2
        return cap(words[:half]) + ". " + cap(words[half:]) + closer
    return cap(words) + closer


def _generate_tree(
    topic_index: int, config: SynthConfig, fillers: list[str]
) -> tuple[ArgumentTree, dict]:
    rng = random.Random(f"{config.seed}:{topic_index}")
    concepts = [f"topic{topic_index}term{i}" for i in range(config.concepts_per_topic)]
    target_depth = rng.randint(config.depth_min, config.depth_max)
    counts = _empty_counts()

    drafts: list[_NodeDraft] = []
    root_len = rng.randint(config.root_len_min, config.root_len_max)
    root = _NodeDraft(id="c0", parent=None, stance=None, depth=0, length=root_len)
    root.text = _claim_text(
        rng, config, depth=0, length=root_len, stance=None,
        marked=False, connective=None, concepts=concepts, fillers=fillers,
    )
    drafts.append(root)
    counter = 1

    def children(parent: _NodeDraft, ancestor_lengths: list[int]):
        """Draw each child of parent in turn; yields (child, its ancestors' lengths)."""
        nonlocal counter
        if parent.depth >= target_depth:
            return
        n_children = rng.randint(config.branch_min, config.branch_max)
        for _ in range(n_children):
            stance = (
                StanceEdge.CON
                if rng.random() < config.con_probability
                else StanceEdge.PRO
            )
            fired = rng.random() < config.length_signal_p
            if fired:
                length = parent.length + rng.randint(*LENGTH_GAIN)
            else:
                length = max(
                    config.min_claim_tokens, parent.length - rng.randint(*LENGTH_SHRINK)
                )
            faithful = rng.random() < config.stance_marker_p
            marked = faithful if stance is StanceEdge.CON else not faithful
            connective = (
                rng.choice(CONNECTIVES) if rng.random() < config.connective_p else None
            )
            child = _NodeDraft(
                id=f"c{counter}",
                parent=parent.id,
                stance=stance,
                depth=parent.depth + 1,
                length=length,
            )
            counter += 1
            child.text = _claim_text(
                rng, config, depth=child.depth, length=length, stance=stance,
                marked=marked, connective=connective, concepts=concepts, fillers=fillers,
            )
            drafts.append(child)
            counts["edges"] += 1
            if stance is StanceEdge.CON:
                counts["con_edges"] += 1
            if faithful:
                counts["markers_faithful"] += 1
            if marked:
                counts["markers_placed"] += 1
            if connective is not None:
                counts["connectives"] += 1
            if fired:
                counts["length_signal_fired"] += 1
            for back, ancestor_length in enumerate(reversed(ancestor_lengths)):
                distance = back + 1
                if distance > MAX_LEDGER_DISTANCE:
                    break
                outcome = counts["length_pairs"][str(distance)]
                if length > ancestor_length:
                    outcome["longer"] += 1
                elif length == ancestor_length:
                    outcome["equal"] += 1
                else:
                    outcome["shorter"] += 1
            yield child, ancestor_lengths + [length]

    # Depth first with an explicit stack: a child's subtree is drawn before
    # its next sibling, the rng order of the recursive walk, at any depth.
    stack = [children(root, [root_len])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        else:
            stack.append(children(*step))

    for draft in drafts:
        counts["nodes"] += 1
        depth_key = str(draft.depth)
        counts["nodes_by_depth"][depth_key] = counts["nodes_by_depth"].get(depth_key, 0) + 1

    topic_id = f"synth-{config.seed}-{topic_index:05d}"
    tree = build_tree(
        topic_id=topic_id,
        claims=[(d.id, d.parent, d.stance, d.text) for d in drafts],
        tags=frozenset({"synthetic"}),
    )
    return tree, counts


def generate_corpus(config: SynthConfig) -> tuple[list[ArgumentTree], GenerationLedger]:
    """Generate topic_count trees plus an exact ledger of planted signals."""
    config.validate()
    fillers = [f"filler{i}" for i in range(config.filler_count)]
    ledger = GenerationLedger(config=asdict(config))
    trees = []
    for index in range(config.topic_count):
        tree, counts = _generate_tree(index, config, fillers)
        ledger.add_topic(tree.topic_id, counts)
        trees.append(tree)
    return trees, ledger


def stance_oracle(tree: ArgumentTree, ancestor_id: str, descendant_id: str) -> StanceLabel:
    """Stance composition edge by edge, independent of the parity shortcut.

    The edge just below the ancestor gives the stance; going down from it,
    a pro edge preserves and a con edge flips the stance of the parent
    toward the ancestor. The path is walked with a loop, so any depth works.
    """
    edges: list[StanceEdge] = []
    node_id = descendant_id
    while True:
        node = tree.node(node_id)
        if node.parent is None:
            raise ValueError(f"{node_id!r} has no ancestors")
        if node.stance_to_parent is None:
            raise ValueError(f"missing stance on {node_id!r}")
        edges.append(node.stance_to_parent)
        if node.parent == ancestor_id:
            break
        node_id = node.parent
    stance = StanceLabel.SUPPORTS if edges.pop() is StanceEdge.PRO else StanceLabel.OPPOSES
    for edge in reversed(edges):
        if edge is StanceEdge.CON:
            stance = StanceLabel.OPPOSES if stance is StanceLabel.SUPPORTS else StanceLabel.SUPPORTS
    return stance
