"""Versioned binary snapshot of the ingested sources.

The snapshot stores the parsed data (vocabulary, score rows, relations as
plain tuples, and the corpus as each image's tag stems) rather than the
built objects, so loading rebuilds indexes under the active configuration;
it indexes the stored stems and never stems a corpus tag. All containers
are canonicalized (sorted) and each distinct string is written once, which
makes re-ingesting identical inputs byte-identical.
"""

from __future__ import annotations

import pickle

from .cooccur import CooccurrenceModel
from .detectors import DetectorBank
from .errors import SnapshotError
from .knowledge import KnowledgeGraph
from .text import WordClassMap

FORMAT_VERSION = 1


def save(path, bank: DetectorBank, relations, corpus: CooccurrenceModel,
         word_classes: WordClassMap | None = None) -> None:
    """Persist parsed sources; ``relations`` are the unfiltered graph edges."""
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
        "relations": [(one(rel_type), one(start), one(end), weight)
                      for rel_type, start, end, weight in sorted(relations)],
        "corpus": {
            one(image): [one(s) for s in sorted(corpus.tag_sets[image])]
            for image in sorted(corpus.tag_sets)
        },
        "word_classes": {one(w): one(c) for w, c in sorted(word_classes.entries.items())}
        if word_classes is not None else None,
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=4)


def load(path, min_weight: float = 1.0, allowed_rel_types=None):
    """Rebuild (bank, graph, corpus, word_classes) from a snapshot file.

    Graph filters are applied at load time so one snapshot serves any config.
    Any file that is not a readable snapshot raises SnapshotError.
    """
    try:
        with open(path, "rb") as fh:
            payload = pickle.loads(fh.read())
    except (OSError, pickle.UnpicklingError, EOFError, ValueError, TypeError, KeyError,
            IndexError, AttributeError, ImportError, OverflowError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise SnapshotError(f"{path} is not a snapshot file")
    version = payload["format_version"]
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    try:
        bank = DetectorBank.build(payload["vocab"], payload["scores"])
        graph = KnowledgeGraph.from_relations(payload["relations"], min_weight=min_weight,
                                              allowed_rel_types=allowed_rel_types)
        corpus = CooccurrenceModel.build(payload["corpus"].items())
        classes = payload.get("word_classes")
        word_classes = None if classes is None else WordClassMap(entries=dict(classes))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(f"{path} is not a valid snapshot: {exc!r}") from None
    return bank, graph, corpus, word_classes
