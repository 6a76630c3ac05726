"""Commonsense graph ingestion and neighbor lookup.

Edges are undirected for neighbor queries: an edge (a, R, b) makes b a
neighbor of a and a a neighbor of b. Multiword concepts are dropped from
neighbor results (downstream estimation needs a single detectable word), and
stem-equal edges such as "pen AtLocation pen" are discarded as noise.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import text
from .errors import IngestError, open_text

log = logging.getLogger(__name__)

GRAPH = "graph"
CORPUS_COOCCURRENCE = "corpus-cooccurrence"


class Relation(NamedTuple):
    """A weighted, typed edge between two concepts."""

    rel_type: str
    start: str
    end: str
    weight: float


@dataclass(frozen=True)
class KnowledgeGraph:
    """Filtered concept graph with stem-keyed neighbor lookup."""

    min_weight: float
    allowed_rel_types: frozenset[str] | None  # None means all types
    adjacency: dict[str, frozenset[str]] = field(default_factory=dict)
    edge_weights: dict[frozenset[str], float] = field(default_factory=dict)
    max_weight: float = 1.0

    @classmethod
    def from_relations(cls, relations, min_weight=1.0,
                       allowed_rel_types=None) -> "KnowledgeGraph":
        """Build the graph from (rel_type, start, end, weight) tuples, applying
        the configured filters. No neighbor of a word shares its stem."""
        allowed = None if allowed_rel_types is None else frozenset(allowed_rel_types)
        skipped_multiword = 0
        adjacency: dict[str, set[str]] = {}
        edge_weights: dict[frozenset[str], float] = {}
        for rel_type, start, end, weight in relations:
            if weight < min_weight:
                continue
            if allowed is not None and rel_type not in allowed:
                continue
            if " " in start or " " in end:
                skipped_multiword += 1
                continue
            start_stem, end_stem = text.stem(start), text.stem(end)
            if start_stem == end_stem:
                continue  # self-loop / stem-equal noise
            adjacency.setdefault(start_stem, set()).add(end)
            adjacency.setdefault(end_stem, set()).add(start)
            key = frozenset((start_stem, end_stem))
            edge_weights[key] = max(edge_weights.get(key, 0.0), weight)
        if skipped_multiword:
            log.info("dropped %d multiword-concept edges", skipped_multiword)
        max_weight = max(edge_weights.values(), default=1.0)
        return cls(
            min_weight=min_weight,
            allowed_rel_types=allowed,
            adjacency={s: frozenset(ns) for s, ns in adjacency.items()},
            edge_weights=edge_weights,
            max_weight=max_weight if max_weight > 0 else 1.0,
        )

    @classmethod
    def from_csv(cls, path, min_weight=1.0, allowed_rel_types=None) -> "KnowledgeGraph":
        """Load an edge file: CSV with header ``rel_type,start,end,weight``."""
        return cls.from_relations(parse_relations_csv(path), min_weight=min_weight,
                                  allowed_rel_types=allowed_rel_types)

    def neighbors(self, word: str) -> frozenset[str]:
        """Single-token concepts connected to the stem of ``word``, either direction."""
        return self.adjacency.get(text.stem(word), frozenset())

    def edge_weight(self, a: str, b: str) -> float:
        """Best confidence among retained edges linking the stems of a and b; 0 if none."""
        return self.edge_weights.get(frozenset((text.stem(a), text.stem(b))), 0.0)


def parse_relations_csv(path) -> list[Relation]:
    """Parse an edge CSV without filtering. Concepts are lowercased and
    underscores become spaces; filtering happens at graph construction.
    An empty concept or a weight that is negative or not finite is an error."""
    relations = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != \
                ["rel_type", "start", "end", "weight"]:
            raise IngestError("expected header `rel_type,start,end,weight`",
                              path=path, line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise IngestError("expected 4 fields", path=path, line=lineno)
            rel_type, start, end, weight_str = (f.strip() for f in row)
            try:
                weight = float(weight_str)
            except ValueError:
                raise IngestError(f"bad weight {weight_str!r}", path=path, line=lineno)
            if not math.isfinite(weight) or weight < 0:
                raise IngestError(f"weight {weight} is not a finite non-negative number",
                                  path=path, line=lineno)
            if not start or not end:
                raise IngestError("empty concept in edge", path=path, line=lineno)
            relations.append(Relation(
                rel_type=rel_type,
                start=start.lower().replace("_", " "),
                end=end.lower().replace("_", " "),
                weight=weight,
            ))
    return relations


@dataclass(frozen=True)
class RelatednessSource:
    """Where "related concepts" come from: graph edges or tag co-occurrence."""

    variant: str  # GRAPH or CORPUS_COOCCURRENCE
    graph: KnowledgeGraph | None = None
    corpus: object | None = None

    def __post_init__(self):
        if self.variant == GRAPH:
            if self.graph is None:
                raise ValueError("graph variant needs a KnowledgeGraph")
        elif self.variant == CORPUS_COOCCURRENCE:
            if self.corpus is None:
                raise ValueError("corpus-cooccurrence variant needs a corpus")
        else:
            raise ValueError(f"unknown relatedness variant {self.variant!r}")

    def related_detectable(self, word: str, bank) -> frozenset[str]:
        """Related concepts that have a stem-matching detector: graph neighbors,
        or stemmed tags that co-occur with ``word`` in some corpus image."""
        if self.variant == GRAPH:
            related = self.graph.neighbors(word)
        else:
            related = self.corpus.co_occurring(word)
        return frozenset(c for c in related if bank.st_det(c))
