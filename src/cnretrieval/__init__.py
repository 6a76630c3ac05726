"""Knowledge-augmented sentence-to-image retrieval scoring and evaluation.

A fixed bank of visual word detectors is extended in two stages: stemming
maps query words onto existing detectors, and a commonsense concept graph
(or tag co-occurrence corpus) lets related detectors stand in for words that
have none. Rank-based evaluation (r@k, median/mean rank) sits on top.
"""

from .cooccur import CooccurrenceModel
from .detectors import DetectorBank
from .errors import (
    EvaluationError,
    IngestError,
    SnapshotError,
    UnknownImageError,
)
from .evaluation import (
    EvalReport,
    QueryRecord,
    compute_report,
    format_table,
    load_queries,
    rank_images,
    rank_of_ground_truth,
)
from .knowledge import (
    KnowledgeGraph,
    Relation,
    RelatednessSource,
    parse_relations_csv,
)
from .scoring import (
    AGGREGATORS,
    DETECTOR,
    KNOWLEDGE,
    STEM,
    QueryPlan,
    ScoreConfig,
    Scorer,
    WordPartition,
    partition_query,
)
from .text import STOPWORDS, Token, WordClassMap, stem, stem_set, tokenize

__all__ = [
    "AGGREGATORS",
    "CooccurrenceModel",
    "DETECTOR",
    "DetectorBank",
    "EvalReport",
    "EvaluationError",
    "IngestError",
    "KNOWLEDGE",
    "KnowledgeGraph",
    "QueryPlan",
    "QueryRecord",
    "Relation",
    "RelatednessSource",
    "ScoreConfig",
    "Scorer",
    "SnapshotError",
    "STEM",
    "STOPWORDS",
    "Token",
    "UnknownImageError",
    "WordClassMap",
    "WordPartition",
    "compute_report",
    "format_table",
    "load_queries",
    "parse_relations_csv",
    "partition_query",
    "rank_images",
    "rank_of_ground_truth",
    "stem",
    "stem_set",
    "tokenize",
]

__version__ = "0.1.0"
