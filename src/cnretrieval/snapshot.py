"""Versioned binary snapshot of the ingested sources.

The snapshot stores the detector vocabulary and score rows, and the graph
and tag corpus already projected onto that vocabulary (see
:meth:`KnowledgeGraph.project` and :meth:`CooccurrenceModel.project`):
for each stem its detectable neighbors with their best edge weights and the
heaviest edge, and the corpus's image count, document frequencies and
co-counts with the tag stems that are detector stems. If ingest read a
word-class file, the snapshot also stores its nouns as a sorted list: the
noun-only filter reads nothing else of it. Loading unpickles
these tables, checks in one pass over them that every query they serve can
be scored, and builds the detector bank, which stems the vocabulary and
nothing else; the ``min_weight`` threshold is applied when a row is read, so
one snapshot serves every config. Each distinct string is written once, which
makes re-ingesting identical inputs byte-identical.
"""

from __future__ import annotations

import pickle
import sys

from .cooccur import CooccurrenceModel
from .detectors import DetectorBank
from .errors import SnapshotError
from .knowledge import KnowledgeGraph

FORMAT_VERSION = 4


def save(path, bank: DetectorBank, graph: KnowledgeGraph, corpus: CooccurrenceModel,
         nouns: frozenset[str] | None = None) -> None:
    """Persist the bank, the projected graph and corpus tables and the nouns."""
    # one object per distinct string: pickle writes each once, and the bytes
    # depend on the values only, not on which objects happen to be shared
    pool: dict[str, str] = {}

    def one(s: str) -> str:
        return pool.setdefault(s, s)

    payload = {
        "format_version": FORMAT_VERSION,
        "vocab": [one(w) for w in bank.vocab],
        "scores": {
            one(image): {one(w): v for w, v in sorted(bank.scores[image].items())}
            for image in sorted(bank.scores)
        },
        "graph": {
            "rows": {one(s): tuple((one(c), one(k), w) for c, k, w in row)
                     for s, row in graph.rows.items()},
            "max_weight": graph.max_weight,
        },
        "corpus": {
            "n_images": corpus.n_images,
            "df": {one(s): n for s, n in corpus.df.items()},
            "co_counts": {one(s): {one(t): n for t, n in row.items()}
                          for s, row in corpus.co_counts.items()},
        },
        "nouns": None if nouns is None else [one(w) for w in sorted(nouns)],
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=4)


def load(path):
    """Rebuild (bank, graph, corpus, nouns) from a snapshot file.

    Any file that is not a readable snapshot of this format raises SnapshotError.
    """
    try:
        with open(path, "rb") as fh:
            payload = pickle.loads(fh.read())
    except (OSError, pickle.UnpicklingError, EOFError, ValueError, TypeError, KeyError,
            IndexError, AttributeError, ImportError, OverflowError,
            MemoryError) as exc:  # a length field far beyond the file's own size
        raise SnapshotError(f"cannot read snapshot {path}: "
                            f"{str(exc) or type(exc).__name__}") from None
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise SnapshotError(f"{path} is not a snapshot file")
    version = payload["format_version"]
    if version != FORMAT_VERSION:
        raise SnapshotError(f"{path}: snapshot format version {version} is not supported "
                            f"(expected {FORMAT_VERSION}); re-ingest the sources")
    try:
        bank = DetectorBank.build(payload["vocab"], payload["scores"])
        graph = _graph(payload["graph"], bank.stem_index)
        corpus = _corpus(payload["corpus"], bank.stem_index)
        nouns = payload["nouns"]
        if nouns is not None:
            if type(nouns) is not list:
                raise TypeError(f"expected a list of nouns, got {type(nouns).__name__}")
            nouns = frozenset(nouns)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SnapshotError(f"{path} is not a valid snapshot: {exc!r}") from None
    return bank, graph, corpus, nouns


def _graph(table, detector_stems) -> KnowledgeGraph:
    """The graph tables, checked so that every query they serve can be scored:
    each neighbor is a word whose stem has a detector, each weight is finite
    and non-negative, and the normaliser is positive."""
    rows = _dict(table["rows"])
    for row in rows.values():
        for neighbor, stem, weight in row:
            if type(neighbor) is not str or stem not in detector_stems \
                    or not 0 <= weight <= sys.float_info.max:
                raise ValueError(f"bad graph neighbor {(neighbor, stem, weight)!r}")
    max_weight = float(table["max_weight"])
    if not 0 < max_weight <= sys.float_info.max:
        raise ValueError(f"bad max_weight {max_weight!r}")
    return KnowledgeGraph(rows=rows, max_weight=max_weight)


def _corpus(table, detector_stems) -> CooccurrenceModel:
    """The corpus tables, checked so that every query they serve can be
    scored: each co-count partner is a detector stem, no stem is in more
    images than there are, and no co-count exceeds its stem's document
    frequency, so no conditional probability is negative."""
    n_images = int(table["n_images"])
    df = _counts(table["df"], n_images)
    co_counts = _dict(table["co_counts"])
    for stem, row in co_counts.items():
        _counts(row, df.get(stem, 0))
    if not set().union(*co_counts.values()) <= detector_stems.keys():
        raise ValueError("a co-count partner has no detector")
    return CooccurrenceModel(n_images=n_images, df=df, co_counts=co_counts)


def _counts(table, most) -> dict:
    """``table``, if it maps to numbers from 0 to ``most``."""
    counts = _dict(table).values()
    if counts and not 0 <= min(counts) <= max(counts) <= most:
        raise ValueError(f"counts must lie in [0, {most}]")
    return table


def _dict(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a table, got {type(value).__name__}")
    return value
