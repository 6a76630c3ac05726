"""Query scoring: the multiplicative detector score and its stemming- and
knowledge-graph-extended variants.

:meth:`Scorer.plan` compiles a query once: it assigns each word its first
matching tier and keeps, per scored word, a :class:`Factor` holding
everything that does not depend on the image; scoring an image then only
looks up detector scores. The three scores are one product that keeps the
first 1, 2 or 3 tiers, so the reduction chain (graph score == stem score when
no graph-detectable word exists, etc.) holds exactly. The product is taken in
log space so that 50-factor products of tiny probabilities still rank
correctly. Factors are clamped below at ``clamp_epsilon`` before taking logs.
The stopword and noun-only filters gate the knowledge tier alone; the latter
only asks whether a word is in the snapshot's set of nouns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import text
from .detectors import DetectorBank

MIN = "min"
MAX = "max"
MEAN_ARITHMETIC = "mean_arithmetic"
MEAN_GEOMETRIC = "mean_geometric"
AGGREGATORS = (MIN, MAX, MEAN_ARITHMETIC, MEAN_GEOMETRIC)

CORPUS = "corpus"
CONSTANT_ONE = "constant_one"
GRAPH_WEIGHT = "graph_weight"
ESTIMATORS = (CORPUS, CONSTANT_ONE, GRAPH_WEIGHT)

#: where a knowledge-tier word's related words come from
GRAPH = "graph"
CORPUS_COOCCURRENCE = "corpus-cooccurrence"

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
        for name in ("noun_only", "stopword_filter"):
            if type(getattr(self, name)) is not bool:
                raise TypeError(f"{name} must be true or false")
        for name in ("min_weight", "clamp_epsilon"):
            if type(getattr(self, name)) not in (int, float):
                raise TypeError(f"{name} must be a number")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.relatedness not in (GRAPH, CORPUS_COOCCURRENCE):
            raise ValueError(f"unknown relatedness {self.relatedness!r}")
        if self.conditional_estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.conditional_estimator!r}")
        if not 0.0 < self.clamp_epsilon < 1.0:
            raise ValueError("clamp_epsilon must lie in (0, 1)")
        if not self.min_weight >= 0:  # also rejects NaN
            raise ValueError("min_weight must be non-negative")


def log_product(factors, eps: float) -> float:
    """Sum of logs with each factor clamped below at ``eps``; 0.0 for no factors."""
    return sum(math.log(max(f, eps)) for f in factors)


def _passes_cn_gate(word, config, nouns) -> bool:
    if config.stopword_filter and word in text.STOPWORDS:
        return False
    return not config.noun_only or word in nouns


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


class Factor(NamedTuple):
    """One scored query word: how it is scored, compiled for every image.

    ``tier`` is DETECTOR, STEM or KNOWLEDGE. A detector or stem word is a
    single term; a knowledge word has one term per related word that has a
    detector, in ``related`` order. ``related`` holds the words standing in
    for ``word``: its stem class in the stem tier, its related words in the
    knowledge tier, none in the detector tier.
    """

    word: str
    tier: int
    aggregator: str
    terms: tuple[Term, ...]
    related: tuple[str, ...]


@dataclass(frozen=True)
class QueryPlan:
    """The image-independent part of one query's score, compiled once.

    ``factors`` holds one :class:`Factor` per scored word, in sum order:
    sorted detector words, sorted stem words, then sorted knowledge words.
    A query word without a factor is undetected.
    """

    bank: DetectorBank
    factors: tuple[Factor, ...]
    clamp_epsilon: float

    def factor_values(self, image: str) -> list[float]:
        """Each word's estimate for ``image``, in sum order."""
        row = self.bank.row(image)
        values = []
        for _, _, aggregator, terms, _ in self.factors:
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
    """Bundles the loaded sources with a config; all inputs stay immutable.

    Only the knowledge tier reads ``graph``, ``cooccur`` and ``nouns``, the
    words the noun-only filter lets through, so a scorer without them still
    compiles detector and stem plans.
    """

    def __init__(self, bank, graph=None, cooccur=None, nouns=None,
                 config: ScoreConfig | None = None):
        self.bank = bank
        self.graph = graph
        self.cooccur = cooccur
        self.nouns = nouns
        self.config = config or ScoreConfig()

    def with_config(self, **overrides) -> "Scorer":
        return Scorer(self.bank, self.graph, self.cooccur, self.nouns,
                      replace(self.config, **overrides))

    def plan(self, tokens, tiers: int = KNOWLEDGE) -> QueryPlan:
        """Compile ``tokens`` for scoring with the first ``tiers`` tiers:
        DETECTOR (MIL), STEM (MILSTEM) or KNOWLEDGE (graph / co-occurrence).

        Each word goes to its first matching tier: its own detector, a
        detector sharing its stem, or related words that have a detector
        (graph neighbors through an edge of at least ``min_weight``, or tag
        stems sharing a corpus image with it). The stopword and noun-only
        filters gate only the knowledge tier, which alone reads the graph,
        the corpus and the nouns.
        """
        config, stem_index = self.config, self.bank.stem_index
        if tiers >= KNOWLEDGE:
            related_to = self._related_to()
            if config.noun_only and self.nouns is None:
                raise ValueError("noun_only filtering needs a noun set")
        found: dict[str, Factor] = {}
        for token in tokens:
            word = token.surface
            if self.bank.is_detectable(word):
                # a one-term factor is its term's estimate whatever the aggregator
                found[word] = Factor(word, DETECTOR, MAX, (((word,), 1.0, 0.0),), ())
            elif tiers >= STEM and token.stem in stem_index:
                stem_class = tuple(stem_index[token.stem])
                found[word] = Factor(word, STEM, MAX, ((stem_class, 1.0, 0.0),),
                                     stem_class)
            elif tiers >= KNOWLEDGE and _passes_cn_gate(word, config, self.nouns) \
                    and (related := related_to(token.stem)):
                found[word] = Factor(word, KNOWLEDGE, config.aggregator, tuple(
                    (tuple(stem_index[r]), *self._coefficients(token.stem, r))
                    for r in related.values()), tuple(related))
        factors = sorted(found.values(), key=lambda f: (f.tier, f.word))
        return QueryPlan(self.bank, tuple(factors), config.clamp_epsilon)

    def _related_to(self):
        """The lookup from a stem to its related words that have a detector,
        each mapped to its stem, in the config's relatedness source."""
        if self.config.relatedness == GRAPH:
            if self.graph is None:
                raise ValueError("graph relatedness needs a knowledge graph")
            return lambda stem: self.graph.neighbors(stem, self.config.min_weight)
        if self.cooccur is None:
            raise ValueError("corpus-cooccurrence relatedness needs a co-occurrence model")
        return self.cooccur.co_occurring

    def _coefficients(self, stem: str, related: str) -> tuple[float, float]:
        """(c1, c0) of the estimate of a word with stem ``stem`` through one
        related detectable word with stem ``related``.

        Total-probability form: P(w|rel) * q + P(w|not rel) * (1 - q). The
        constant-one estimator collapses this to q; the graph-weight
        estimator scales q by the edge confidence normalized to the strongest
        retained edge.
        """
        estimator = self.config.conditional_estimator
        if estimator == CORPUS:
            if self.cooccur is None:
                raise ValueError("corpus estimator needs a co-occurrence model")
            return (self.cooccur.cond_prob(stem, related),
                    self.cooccur.cond_prob_neg(stem, related))
        if estimator == CONSTANT_ONE:
            return 1.0, 0.0
        if self.graph is None:
            raise ValueError("graph_weight estimator needs a knowledge graph")
        weight = self.graph.edge_weight(stem, related, self.config.min_weight)
        return min(weight / self.graph.max_weight, 1.0), 0.0
