"""argtree: argument-tree corpora, derived claim-pair tasks, and models.

The package covers the full pipeline: ingest or synthesize tree-structured
debates (a thesis plus Pro/Con claims), validate them, derive labeled
claim-pair datasets for relative specificity and relative stance, extract
features, train baseline / linear / neural models, and evaluate them with
distance-stratified accuracy and paired significance tests. Everything is
seeded and byte-deterministic.
"""

__version__ = "0.1.0"
