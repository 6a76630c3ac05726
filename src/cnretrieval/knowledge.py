"""Commonsense graph ingestion, projected onto a detector vocabulary.

Edges are undirected: an edge (a, R, b) makes b a neighbor of a and a a
neighbor of b. Multiword concepts are dropped (downstream estimation needs a
single detectable word), and stem-equal edges such as "pen AtLocation pen"
are discarded as noise. Scoring reads a neighbor only through its detectors,
and asks only for the neighbors of a word whose stem has no detector (any
other word is scored in the stem tier), so :meth:`KnowledgeGraph.project`
keeps, for each stem without a detector, just the neighbors whose stem has
one, each with the best weight of an edge to it. The
``min_weight`` threshold is a filter applied when a row is read, so one
projection serves every threshold. Relation types are not read.
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


class Relation(NamedTuple):
    """A weighted edge between two concepts."""

    start: str
    end: str
    weight: float


@dataclass(frozen=True)
class KnowledgeGraph:
    """Graph neighbors that have a detector, keyed by the stem without a
    detector that they neighbor."""

    #: stem -> ((neighbor, its stem, best weight of an edge to it), ...), by neighbor
    rows: dict[str, tuple[tuple[str, str, float], ...]] = field(default_factory=dict)
    #: heaviest retained edge anywhere in the graph, the graph-weight normaliser
    max_weight: float = 1.0

    @classmethod
    def project(cls, relations, detector_stems) -> "KnowledgeGraph":
        """Project (start, end, weight) edges onto ``detector_stems``,
        the stems that have a detector: rows for the other stems, holding
        their neighbors in ``detector_stems``. No neighbor of a word shares
        its stem."""
        skipped_multiword = 0
        max_weight = 0.0
        rows: dict[str, dict[str, float]] = {}  # stem -> {neighbor: best weight}
        for start, end, weight in relations:
            if " " in start or " " in end:
                skipped_multiword += 1
                continue
            start_stem, end_stem = text.stem(start), text.stem(end)
            if start_stem == end_stem:
                continue  # self-loop / stem-equal noise
            max_weight = max(max_weight, weight)
            for stem, other, other_stem in ((start_stem, end, end_stem),
                                            (end_stem, start, start_stem)):
                if other_stem in detector_stems and stem not in detector_stems:
                    row = rows.setdefault(stem, {})
                    row[other] = max(row.get(other, 0.0), weight)
        if skipped_multiword:
            log.info("dropped %d multiword-concept edges", skipped_multiword)
        return cls(
            rows={s: tuple((c, text.stem(c), row[c]) for c in sorted(row))
                  for s, row in sorted(rows.items())},
            max_weight=max_weight if max_weight > 0 else 1.0,
        )

    def neighbors(self, stem: str, min_weight: float) -> dict[str, str]:
        """Detectable neighbors of ``stem``, a stem without a detector,
        through an edge of at least ``min_weight``, each mapped to its own
        stem, in neighbor order."""
        return {c: s for c, s, weight in self.rows.get(stem, ()) if weight >= min_weight}

    def edge_weight(self, stem: str, detector_stem: str, min_weight: float) -> float:
        """Best weight of an edge of at least ``min_weight`` linking two stems,
        the first one without a detector and the second one with; 0 if none."""
        best = max((w for _, s, w in self.rows.get(stem, ()) if s == detector_stem),
                   default=0.0)
        return best if best >= min_weight else 0.0


def parse_relations_csv(path) -> list[Relation]:
    """Parse an edge CSV without filtering. Concepts are lowercased and
    underscores become spaces; the relation type column is not kept;
    filtering happens at projection.
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
            _, start, end, weight_str = (f.strip() for f in row)
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
                start=start.lower().replace("_", " "),
                end=end.lower().replace("_", " "),
                weight=weight,
            ))
    return relations
