"""Argument tree data model and traversal operations.

A tree has a thesis at the root and claims as interior/leaf nodes. Every
non-root claim takes a stance (pro or con) toward its parent. The unique
parent chain between an ancestor and a descendant is the argument path;
its length in edges is the distance between the two claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional


class StanceEdge(Enum):
    PRO = "pro"
    CON = "con"


# The members by value, for the readers of corpus and pairs files.
EDGES_BY_VALUE = {edge.value: edge for edge in StanceEdge}


@dataclass
class ClaimNode:
    id: str
    text: str
    parent: Optional[str] = None
    stance_to_parent: Optional[StanceEdge] = None
    children: tuple[str, ...] = ()


@dataclass
class ArgumentTree:
    topic_id: str
    tags: frozenset[str]
    nodes: dict[str, ClaimNode]
    root_id: str
    # the corpus line the tree was parsed from, for located errors
    line_no: Optional[int] = field(default=None, compare=False, repr=False)

    def node(self, node_id: str) -> ClaimNode:
        if node_id not in self.nodes:
            raise KeyError(f"unknown node id {node_id!r} in topic {self.topic_id!r}")
        return self.nodes[node_id]


@dataclass
class Violation:
    node_id: Optional[str]
    rule: str

    def __str__(self) -> str:
        where = self.node_id if self.node_id is not None else "<tree>"
        return f"{where}: {self.rule}"


class BrokenTreeError(ValueError):
    """A walk of the tree met a claim that breaks a rule of validate_tree.

    By default the claim's parent chain does not reach the root. The
    message names the topic and the first violation validate_tree reports
    for it; `tree` is kept so a caller can say where the tree came from.
    """

    def __init__(self, tree: ArgumentTree, problem: str = "broken parent chain"):
        super().__init__(f"{problem} in topic {tree.topic_id!r}: {validate_tree(tree)[0]}")
        self.tree = tree


def check_claim(tree: ArgumentTree, node: ClaimNode) -> None:
    """Raise BrokenTreeError unless the claim has a stance iff it has a parent, and text."""
    if (node.parent is None) != (node.stance_to_parent is None) or not node.text.strip():
        raise BrokenTreeError(tree, "invalid claim")


def build_tree(
    topic_id: str,
    claims: list[tuple[str, Optional[str], Optional[StanceEdge], str]],
    tags: frozenset[str] = frozenset(),
) -> ArgumentTree:
    """Assemble a tree from (id, parent, stance, text) rows.

    Children keep the order their rows appear in. Exactly one row must
    have a null parent; that row becomes the root. Structural problems
    beyond that (dangling parents, unreachable nodes) are left for
    validate_tree to report.
    """
    nodes: dict[str, ClaimNode] = {}
    root_id: Optional[str] = None
    for claim_id, parent, stance, text in claims:
        if claim_id in nodes:
            raise ValueError(f"duplicate claim id {claim_id!r} in topic {topic_id!r}")
        nodes[claim_id] = ClaimNode(claim_id, text, parent, stance)
        if parent is None:
            if root_id is not None:
                raise ValueError(f"multiple root claims in topic {topic_id!r}")
            root_id = claim_id
    if root_id is None:
        raise ValueError(f"no root claim in topic {topic_id!r}")
    children: dict[str, list[str]] = {claim_id: [] for claim_id in nodes}
    for claim_id, parent, _, _ in claims:
        if parent is not None and parent in children:
            children[parent].append(claim_id)
    for claim_id, kids in children.items():
        nodes[claim_id].children = tuple(kids)
    return ArgumentTree(topic_id=topic_id, tags=tags, nodes=nodes, root_id=root_id)


def validate_tree(tree: ArgumentTree) -> list[Violation]:
    """Check structural invariants; return one violation per broken rule.

    Rules: single root that matches root_id, stance present exactly on
    non-root nodes, non-empty claim text, parent pointers resolve, parent
    and child links mutually consistent, every node reachable from the
    root (which also excludes cycles).
    """
    violations: list[Violation] = []
    if tree.root_id not in tree.nodes:
        violations.append(Violation(tree.root_id, "root id not present in tree"))
        return violations
    for node in tree.nodes.values():
        if node.parent is None:
            if node.id != tree.root_id:
                violations.append(Violation(node.id, "extra root (no parent)"))
            if node.stance_to_parent is not None:
                violations.append(Violation(node.id, "root claim carries a stance"))
        else:
            if node.stance_to_parent is None:
                violations.append(Violation(node.id, "non-root claim missing stance"))
            if node.parent not in tree.nodes:
                violations.append(Violation(node.id, f"dangling parent {node.parent!r}"))
        if not node.text.strip():
            violations.append(Violation(node.id, "empty claim text"))
        seen_children = set()
        for child_id in node.children:
            if child_id in seen_children:
                violations.append(Violation(node.id, f"child {child_id!r} listed twice"))
            seen_children.add(child_id)
            if child_id not in tree.nodes:
                violations.append(Violation(node.id, f"unknown child {child_id!r}"))
            elif tree.nodes[child_id].parent != node.id:
                violations.append(
                    Violation(node.id, f"child {child_id!r} does not point back to parent")
                )
    root = tree.nodes[tree.root_id]
    if root.parent is not None:
        violations.append(Violation(tree.root_id, "root claim has a parent"))
    for node in tree.nodes.values():
        if node.parent is not None and node.parent in tree.nodes:
            if node.id not in tree.nodes[node.parent].children:
                violations.append(
                    Violation(node.id, "not listed among its parent's children")
                )
    reachable = set()
    stack = [tree.root_id]
    while stack:
        current = stack.pop()
        if current in reachable or current not in tree.nodes:
            continue
        reachable.add(current)
        stack.extend(tree.nodes[current].children)
    for node_id in tree.nodes:
        if node_id not in reachable:
            violations.append(Violation(node_id, "unreachable from root"))
    return violations


def node_depth(tree: ArgumentTree, node_id: str) -> int:
    """Edge count from the root; the root itself has depth 0."""
    node = tree.node(node_id)
    depth = 0
    seen = {node_id}
    while node.parent is not None:
        if node.parent not in tree.nodes or node.parent in seen:
            raise BrokenTreeError(tree)
        seen.add(node.parent)
        node = tree.nodes[node.parent]
        depth += 1
    return depth


def path_between(tree: ArgumentTree, ancestor_id: str, descendant_id: str) -> tuple[list[str], list[StanceEdge]]:
    """Return the parent chain ancestor..descendant and its stance edges.

    The node list runs from the ancestor down to the descendant; edge i
    is the stance of node i+1 toward node i. Raises ValueError when the
    first argument is not a proper ancestor of the second, and
    BrokenTreeError when a claim on the chain has no stance.
    """
    tree.node(ancestor_id)
    node = tree.node(descendant_id)
    chain = [node.id]
    edges: list[StanceEdge] = []
    while node.id != ancestor_id:
        if node.parent is None:
            raise ValueError(
                f"{ancestor_id!r} is not an ancestor of {descendant_id!r} "
                f"in topic {tree.topic_id!r}"
            )
        if node.stance_to_parent is None:
            raise BrokenTreeError(tree, "invalid claim")
        edges.append(node.stance_to_parent)
        node = tree.node(node.parent)
        chain.append(node.id)
    if len(chain) < 2:
        raise ValueError("a claim is not its own ancestor")
    chain.reverse()
    edges.reverse()
    return chain, edges


def iter_preorder(tree: ArgumentTree) -> Iterator[str]:
    """Depth-first preorder over node ids, children in stored order."""
    stack = [tree.root_id]
    while stack:
        current = stack.pop()
        yield current
        node = tree.nodes[current]
        stack.extend(reversed(node.children))


def ancestor_descendant_pairs(
    tree: ArgumentTree, max_distance: int
) -> Iterator[tuple[str, str, int]]:
    """Yield (ancestor, descendant, distance) for 1 <= distance <= max_distance.

    Deterministic order: ancestors in depth-first preorder; for each
    ancestor, pairs grouped by increasing distance, descendants at equal
    distance in preorder of the ancestor's subtree. A claim the preorder
    walk does not reach raises BrokenTreeError once the walk ends, and a
    claim that check_claim rejects raises it when the walk reaches it.
    """
    if max_distance < 1:
        raise ValueError("max_distance must be at least 1")
    reached = 0
    for ancestor_id in iter_preorder(tree):
        check_claim(tree, tree.nodes[ancestor_id])
        reached += 1
        frontier = [ancestor_id]
        for distance in range(1, max_distance + 1):
            next_frontier: list[str] = []
            for node_id in frontier:
                next_frontier.extend(tree.nodes[node_id].children)
            for descendant_id in next_frontier:
                yield ancestor_id, descendant_id, distance
            if not next_frontier:
                break
            frontier = next_frontier
    if reached != len(tree.nodes):
        raise BrokenTreeError(tree)
