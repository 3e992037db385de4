"""Descriptive statistics over a corpus of argument trees."""

from __future__ import annotations

from dataclasses import dataclass, field

from .text import split_sentences, tokenize
from .trees import ArgumentTree, StanceEdge, check_claim, node_depth

SIZE_BUCKET_WIDTH = 30


def size_bucket(claim_count: int) -> str:
    """Bucket label for tree size, fixed width of 30 claims."""
    index = (claim_count - 1) // SIZE_BUCKET_WIDTH
    low = index * SIZE_BUCKET_WIDTH + 1
    return f"{low}-{low + SIZE_BUCKET_WIDTH - 1}"


@dataclass
class CorpusStats:
    topic_count: int
    claim_count: int
    pro_count: int
    con_count: int
    depth_histogram: dict[int, int] = field(default_factory=dict)
    size_histogram: dict[str, int] = field(default_factory=dict)
    mean_claims_per_tree: float = 0.0
    mean_depth: float = 0.0
    mean_tokens_per_claim: float = 0.0
    sentence_count_distribution: dict[int, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"topics: {self.topic_count}",
            f"claims: {self.claim_count}",
            f"pro claims: {self.pro_count}",
            f"con claims: {self.con_count}",
            f"mean claims per tree: {self.mean_claims_per_tree:.2f}",
            f"mean tree depth: {self.mean_depth:.2f}",
            f"mean tokens per claim: {self.mean_tokens_per_claim:.2f}",
            "depth histogram:",
        ]
        for depth in sorted(self.depth_histogram):
            lines.append(f"  depth {depth}: {self.depth_histogram[depth]}")
        lines.append("tree size histogram:")
        for bucket in sorted(self.size_histogram, key=lambda b: int(b.split("-")[0])):
            lines.append(f"  {bucket}: {self.size_histogram[bucket]}")
        lines.append("sentences per claim:")
        for count in sorted(self.sentence_count_distribution):
            frac = self.sentence_count_distribution[count]
            lines.append(f"  {count}: {frac:.4f}")
        return "\n".join(lines)


def corpus_stats(trees: list[ArgumentTree]) -> CorpusStats:
    """Aggregate counts and means; claim counts include thesis nodes."""
    if not trees:
        raise ValueError("empty corpus")
    claim_count = 0
    pro = 0
    con = 0
    depth_hist: dict[int, int] = {}
    size_hist: dict[str, int] = {}
    token_total = 0
    sentence_counts: dict[int, int] = {}
    depth_sum = 0
    for tree in trees:
        tree_max_depth = 0
        for node in tree.nodes.values():
            check_claim(tree, node)
            claim_count += 1
            if node.stance_to_parent is StanceEdge.PRO:
                pro += 1
            elif node.stance_to_parent is StanceEdge.CON:
                con += 1
            depth = node_depth(tree, node.id)
            tree_max_depth = max(tree_max_depth, depth)
            depth_hist[depth] = depth_hist.get(depth, 0) + 1
            token_total += len(tokenize(node.text))
            n_sentences = len(split_sentences(node.text))
            sentence_counts[n_sentences] = sentence_counts.get(n_sentences, 0) + 1
        bucket = size_bucket(len(tree.nodes))
        size_hist[bucket] = size_hist.get(bucket, 0) + 1
        depth_sum += tree_max_depth
    return CorpusStats(
        topic_count=len(trees),
        claim_count=claim_count,
        pro_count=pro,
        con_count=con,
        depth_histogram=depth_hist,
        size_histogram=size_hist,
        mean_claims_per_tree=claim_count / len(trees),
        mean_depth=depth_sum / len(trees),
        mean_tokens_per_claim=token_total / claim_count,
        sentence_count_distribution={
            count: sentence_counts[count] / claim_count for count in sorted(sentence_counts)
        },
    )
