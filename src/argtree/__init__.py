"""argtree: argument-tree corpora, derived claim-pair tasks, and models.

The package covers the full pipeline: ingest or synthesize tree-structured
debates (a thesis plus Pro/Con claims), validate them, derive labeled
claim-pair datasets for relative specificity and relative stance, extract
features, train baseline / linear / neural models, and evaluate them with
distance-stratified accuracy and paired significance tests. Everything is
seeded and byte-deterministic.
"""

from __future__ import annotations

from .corpus_io import (
    CorpusFormatError,
    import_outline,
    import_outline_file,
    parse_corpus,
    parse_corpus_file,
    tree_to_record,
    write_corpus,
    write_corpus_file,
)
from .evaluation import (
    EvalItem,
    EvalReport,
    Stratum,
    TTestResult,
    accuracy,
    merge_reports_wide,
    paired_t_test,
    paired_topic_vectors,
    per_topic_accuracies,
    read_report_file,
    report_to_text,
    stratified_eval,
    student_t_two_sided_p,
    write_report_file,
)
from .features import (
    EmbeddingTable,
    FeatureRecord,
    FeatureSchema,
    FeatureTable,
    Lexicon,
    Vocabulary,
    build_vocabulary,
    featurize_specificity,
    featurize_stance,
    read_embeddings_file,
    read_features_file,
    read_lexicon_file,
    read_vocabulary_file,
    write_features_file,
    write_vocabulary_file,
)
from .models import (
    EncoderConfig,
    LengthBaseline,
    LogisticRegressionModel,
    MajorityBaseline,
    NeuralModel,
    TrainConfig,
    TrainingDivergedError,
    gradcheck_logreg,
    gradcheck_neural,
    length_predict,
    load_model,
    majority_fit,
    neural_train_config,
    save_model,
    train_logreg,
    train_neural,
)
from .pairs import (
    SpecificityExample,
    SpecificityLabel,
    StanceExample,
    StanceLabel,
    TopicSplit,
    derive_specificity_examples,
    derive_stance_examples,
    derive_stance_label,
    read_pairs_file,
    read_split_file,
    split_by_topic,
)
from .stats import CorpusStats, corpus_stats
from .synth import SynthConfig, generate_corpus, stance_oracle
from .text import split_sentences, tokenize
from .trees import (
    ArgumentTree,
    ClaimNode,
    StanceEdge,
    Violation,
    ancestor_descendant_pairs,
    build_tree,
    iter_preorder,
    node_depth,
    path_between,
    validate_tree,
)

__version__ = "0.1.0"
