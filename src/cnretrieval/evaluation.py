"""Ranking and metric computation: per-query ranks, r@k, median and mean rank.

Ties are broken by image id (ascending) so rankings are deterministic.
With several ground-truth images the rank is the best-placed one, matching
the "correct image found among the top k" reading of recall.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

from .errors import EvaluationError, IngestError, open_text

SENTENCE = "sentence"
SINGLE_WORD = "single-word"

DEFAULT_KS = (1, 5, 10)


@dataclass(frozen=True)
class QueryRecord:
    """One retrieval query with its ground-truth image set."""

    query_id: str
    text: str
    ground_truth: frozenset[str]
    protocol: str = SENTENCE

    def __post_init__(self):
        if not self.text:
            raise ValueError("query text must be non-empty")
        if not self.ground_truth:
            raise ValueError("ground_truth must be non-empty")
        if self.protocol not in (SENTENCE, SINGLE_WORD):
            raise ValueError(f"unknown protocol {self.protocol!r}")


@dataclass(frozen=True)
class EvalReport:
    """Per-query ranks plus the summary metrics derived from them."""

    per_query: tuple[tuple[str, int], ...]
    r_at: dict[int, float]
    median_rank: float
    mean_rank: float

    def to_dict(self) -> dict:
        return {
            "per_query": [{"query_id": q, "rank": r} for q, r in self.per_query],
            "r_at": {str(k): v for k, v in sorted(self.r_at.items())},
            "median_rank": self.median_rank,
            "mean_rank": self.mean_rank,
        }


def rank_images(image_ids, score_fn) -> list[tuple[str, float]]:
    """Score every image and sort: descending score, then ascending id."""
    scored = [(image, score_fn(image)) for image in image_ids]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def rank_of_ground_truth(ranking, ground_truth) -> int:
    """1-based position of the best-ranked ground-truth image."""
    if not ground_truth:
        raise EvaluationError("empty ground-truth set")
    positions = {image: i for i, (image, _) in enumerate(ranking, start=1)}
    missing = [g for g in ground_truth if g not in positions]
    if missing:
        raise EvaluationError(f"ground-truth ids missing from ranking: {sorted(missing)}")
    return min(positions[g] for g in ground_truth)


def compute_report(queries, score_fn, image_ids, ks=DEFAULT_KS) -> EvalReport:
    """Rank every query over one shared image universe and summarize.

    ``score_fn(query, image)`` must be total over the universe.
    """
    queries = list(queries)
    if not queries:
        raise EvaluationError("no queries to evaluate")
    image_ids = list(image_ids)
    per_query = []
    for query in queries:
        ranking = rank_images(image_ids, lambda img: score_fn(query, img))
        per_query.append((query.query_id,
                          rank_of_ground_truth(ranking, query.ground_truth)))

    ranks = [r for _, r in per_query]
    r_at = {k: 100.0 * sum(1 for r in ranks if r <= k) / len(ranks) for k in ks}
    return EvalReport(
        per_query=tuple(per_query),
        r_at=r_at,
        median_rank=float(statistics.median(ranks)),
        mean_rank=float(statistics.fmean(ranks)),
    )


def load_queries(path) -> list[QueryRecord]:
    """Load a JSON-lines query file; each ``query_id`` may appear once."""
    records = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise IngestError(f"invalid JSON: {exc}", path=path, line=lineno)
            try:
                if not isinstance(obj["text"], str) or \
                        not isinstance(obj["ground_truth"], list):
                    raise TypeError("text must be a string and ground_truth a list")
                record = QueryRecord(
                    query_id=str(obj["query_id"]),
                    text=obj["text"],
                    ground_truth=frozenset(str(g) for g in obj["ground_truth"]),
                    protocol=obj.get("protocol", SENTENCE),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise IngestError(f"bad query record: {exc}", path=path, line=lineno)
            if record.query_id in records:
                raise IngestError(f"duplicate query_id {record.query_id!r}",
                                  path=path, line=lineno)
            records[record.query_id] = record
    return list(records.values())


def format_table(reports: dict[str, EvalReport], ks=DEFAULT_KS) -> str:
    """Aligned-column text table, one row per scorer."""
    headers = ["scorer"] + [f"r@{k}" for k in ks] + ["median rank", "mean rank"]
    rows = [headers]
    for name, report in reports.items():
        rows.append(
            [name]
            + [f"{report.r_at[k]:.1f}" for k in ks]
            + [f"{report.median_rank:g}", f"{report.mean_rank:.1f}"]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
