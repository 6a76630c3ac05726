"""Query scoring: word partition, the multiplicative detector score and its
stemming- and knowledge-graph-extended variants.

A query is compiled once into a :class:`QueryPlan` that holds everything
that does not depend on the image; scoring an image then only looks up
detector scores. The three scores are one product that keeps the first 1, 2
or 3 tiers, so the reduction chain (graph score == stem score when no
graph-detectable word exists, etc.) holds exactly. The product is taken in
log space so that 50-factor products of tiny probabilities still rank
correctly. Factors are clamped below at ``clamp_epsilon`` before taking logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import text
from .detectors import DetectorBank
from .knowledge import CORPUS_COOCCURRENCE, GRAPH, RelatednessSource

MIN = "min"
MAX = "max"
MEAN_ARITHMETIC = "mean_arithmetic"
MEAN_GEOMETRIC = "mean_geometric"
AGGREGATORS = (MIN, MAX, MEAN_ARITHMETIC, MEAN_GEOMETRIC)

CORPUS = "corpus"
CONSTANT_ONE = "constant_one"
GRAPH_WEIGHT = "graph_weight"
ESTIMATORS = (CORPUS, CONSTANT_ONE, GRAPH_WEIGHT)

#: how many tiers a plan keeps: MIL, MILSTEM, or the graph / co-occurrence score
DETECTOR, STEM, KNOWLEDGE = 1, 2, 3


@dataclass(frozen=True)
class ScoreConfig:
    """Scoring knobs; defaults mirror the best-performing configuration."""

    aggregator: str = MAX
    relatedness: str = GRAPH
    conditional_estimator: str = CORPUS
    min_weight: float = 1.0
    noun_only: bool = False
    stopword_filter: bool = True
    clamp_epsilon: float = 1e-12

    def __post_init__(self):
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.relatedness not in (GRAPH, CORPUS_COOCCURRENCE):
            raise ValueError(f"unknown relatedness {self.relatedness!r}")
        if self.conditional_estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.conditional_estimator!r}")
        if not 0.0 < self.clamp_epsilon < 1.0:
            raise ValueError("clamp_epsilon must lie in (0, 1)")
        if self.min_weight < 0:
            raise ValueError("min_weight must be non-negative")


@dataclass(frozen=True)
class WordPartition:
    """Disjoint split of a query's words by how they can be scored."""

    detectable: frozenset[str]
    stem_detectable: frozenset[str]
    undetected: frozenset[str]
    #: each knowledge-tier word -> its related detectable words
    related: dict[str, frozenset[str]]


def log_product(factors, eps: float) -> float:
    """Sum of logs with each factor clamped below at ``eps``; 0.0 for no factors."""
    return sum(math.log(max(f, eps)) for f in factors)


def partition_query(tokens, bank, relatedness: RelatednessSource,
                    config: ScoreConfig, word_classes=None,
                    tiers: int = KNOWLEDGE) -> WordPartition:
    """Assign each query word to its first matching tier among the first ``tiers``.

    Order: detector word, stem-detectable, graph/corpus-detectable, undetected.
    The stopword and noun-only filters gate only the third tier, which alone
    consults ``relatedness`` and ``word_classes``.
    """
    if tiers >= KNOWLEDGE and config.noun_only and word_classes is None:
        raise ValueError("noun_only filtering needs a word-class map")
    detectable, stem_det, related, undetected = set(), set(), {}, set()
    for token in tokens:
        word = token.surface
        if bank.is_detectable(word):
            detectable.add(word)
        elif tiers >= STEM and token.stem in bank.stem_index:
            stem_det.add(word)
        elif tiers >= KNOWLEDGE and _passes_cn_gate(word, config, word_classes) \
                and (found := relatedness.related_detectable(word, bank)):
            related[word] = found
        else:
            undetected.add(word)
    return WordPartition(
        detectable=frozenset(detectable),
        stem_detectable=frozenset(stem_det),
        undetected=frozenset(undetected),
        related=related,
    )


def _passes_cn_gate(word, config, word_classes) -> bool:
    if config.stopword_filter and word in text.STOPWORDS:
        return False
    return not config.noun_only or word_classes.get(word) == text.NOUN


def _aggregate(estimates, aggregator: str) -> float:
    if aggregator == MIN:
        return min(estimates)
    if aggregator == MAX:
        return max(estimates)
    if aggregator == MEAN_ARITHMETIC:
        return sum(estimates) / len(estimates)
    return math.prod(estimates) ** (1.0 / len(estimates))


#: One estimate of a word's presence: (stem class, c1, c0). For an image it
#: is c1*q + c0*(1-q), with q the best detector score in the stem class.
Term = tuple[tuple[str, ...], float, float]


@dataclass(frozen=True)
class QueryPlan:
    """The image-independent part of one query's score, compiled once.

    ``factors`` holds one (aggregator, terms) pair per scored word, in sum
    order: sorted detector words, sorted stem words, then sorted knowledge
    words. A detector or stem word is a single term; a knowledge word has one
    term per related detectable word, in sorted order.
    """

    bank: DetectorBank
    factors: tuple[tuple[str, tuple[Term, ...]], ...]
    clamp_epsilon: float

    def factor_values(self, image: str) -> list[float]:
        """Each word's estimate for ``image``, in sum order."""
        row = self.bank.row(image)
        values = []
        for aggregator, terms in self.factors:
            estimates = []
            for stem_class, c1, c0 in terms:
                q = max(row.get(w, 0.0) for w in stem_class)
                estimates.append(c1 * q + c0 * (1.0 - q))
            values.append(_aggregate(estimates, aggregator))
        return values

    def log_score(self, image: str) -> float:
        """Log of the score; ranks like :meth:`score` but never underflows."""
        return log_product(self.factor_values(image), self.clamp_epsilon)

    def score(self, image: str) -> float:
        """Product of the clamped factors; 1 when the query has none."""
        return math.exp(self.log_score(image))


class Scorer:
    """Bundles the loaded sources with a config; all inputs stay immutable."""

    def __init__(self, bank, graph=None, cooccur=None, word_classes=None,
                 config: ScoreConfig | None = None):
        self.bank = bank
        self.graph = graph
        self.cooccur = cooccur
        self.word_classes = word_classes
        self.config = config or ScoreConfig()
        self.relatedness = RelatednessSource(variant=self.config.relatedness,
                                             graph=graph, corpus=cooccur)

    def with_config(self, **overrides) -> "Scorer":
        return Scorer(self.bank, self.graph, self.cooccur, self.word_classes,
                      replace(self.config, **overrides))

    def partition(self, tokens) -> WordPartition:
        return partition_query(tokens, self.bank, self.relatedness, self.config,
                               self.word_classes)

    def plan(self, tokens, tiers: int = KNOWLEDGE) -> QueryPlan:
        """Compile ``tokens`` for scoring with the first ``tiers`` tiers:
        DETECTOR (MIL), STEM (MILSTEM) or KNOWLEDGE (graph / co-occurrence)."""
        partition = partition_query(tokens, self.bank, self.relatedness,
                                    self.config, self.word_classes, tiers)
        stems = {t.surface: t.stem for t in tokens}
        # a one-term factor is its term's estimate whatever the aggregator
        factors = [(MAX, (((w,), 1.0, 0.0),)) for w in sorted(partition.detectable)]
        factors += [
            (MAX, ((tuple(self.bank.stem_index[stems[w]]), 1.0, 0.0),))
            for w in sorted(partition.stem_detectable)
        ]
        factors += [
            (self.config.aggregator, tuple(
                (tuple(self.bank.st_det(r)), *self._coefficients(w, r))
                for r in sorted(partition.related[w])))
            for w in sorted(partition.related)
        ]
        return QueryPlan(self.bank, tuple(factors), self.config.clamp_epsilon)

    def _coefficients(self, w: str, related: str) -> tuple[float, float]:
        """(c1, c0) of w's estimate through one related detectable word.

        Total-probability form: P(w|rel) * q + P(w|not rel) * (1 - q). The
        constant-one estimator collapses this to q; the graph-weight
        estimator scales q by the edge confidence normalized to the strongest
        retained edge.
        """
        estimator = self.config.conditional_estimator
        if estimator == CORPUS:
            if self.cooccur is None:
                raise ValueError("corpus estimator needs a co-occurrence model")
            return (self.cooccur.cond_prob(w, related),
                    self.cooccur.cond_prob_neg(w, related))
        if estimator == CONSTANT_ONE:
            return 1.0, 0.0
        if self.graph is None:
            raise ValueError("graph_weight estimator needs a knowledge graph")
        return min(self.graph.edge_weight(w, related) / self.graph.max_weight, 1.0), 0.0
