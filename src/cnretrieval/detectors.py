"""Detector bank: vocabulary, sparse per-image word scores, stem index.

Missing (image, word) entries mean score 0; real detector dumps omit
near-zero scores. The bank is immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import text
from .errors import IngestError, UnknownImageError, open_text


@dataclass(frozen=True)
class DetectorBank:
    """Vocabulary plus sparse word-presence scores for a set of images."""

    vocab: tuple[str, ...]
    images: tuple[str, ...]
    scores: dict[str, dict[str, float]]  # image id -> {word: score}
    stem_index: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, vocab, image_scores) -> "DetectorBank":
        """Construct from a vocabulary and {image: {word: score}} mapping."""
        vocab = tuple(vocab)
        vocab_set = set(vocab)
        if len(vocab) != len(vocab_set):
            raise IngestError("duplicate word in vocabulary")
        scores = {}
        for image, word_scores in image_scores.items():
            row = {}
            for word, value in word_scores.items():
                if word not in vocab_set:
                    raise IngestError(f"score for word {word!r} outside vocabulary")
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    raise IngestError(f"score {value!r} for {word!r} is not a number") \
                        from None
                if not 0.0 <= value <= 1.0:
                    raise IngestError(f"score {value} for {word!r} not in [0, 1]")
                row[word] = value
            scores[image] = row
        stem_index: dict[str, set[str]] = {}
        for word in vocab:
            stem_index.setdefault(text.stem(word), set()).add(word)
        frozen_index = {s: frozenset(ws) for s, ws in stem_index.items()}
        return cls(
            vocab=vocab,
            images=tuple(scores),
            scores=scores,
            stem_index=frozen_index,
        )

    @classmethod
    def from_jsonl(cls, path) -> "DetectorBank":
        """Load a detector matrix file.

        First line: ``{"vocab": [...]}``. Each following line:
        ``{"image": "<id>", "scores": {"<word>": <float>, ...}}``.
        """
        vocab = None
        image_scores: dict[str, dict[str, float]] = {}
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise IngestError(f"invalid JSON: {exc}", path=path, line=lineno)
                if not isinstance(obj, dict):
                    raise IngestError("expected a JSON object", path=path, line=lineno)
                if vocab is None:
                    if not isinstance(obj.get("vocab"), list):
                        raise IngestError("first line must declare the vocabulary list",
                                          path=path, line=lineno)
                    vocab = [str(w) for w in obj["vocab"]]
                    continue
                if "image" not in obj or not isinstance(obj.get("scores"), dict):
                    raise IngestError("expected image and scores fields",
                                      path=path, line=lineno)
                image = str(obj["image"])
                if image in image_scores:
                    raise IngestError(f"duplicate image id {image!r}",
                                      path=path, line=lineno)
                image_scores[image] = obj["scores"]
        if vocab is None:
            raise IngestError("missing vocabulary header line", path=path)
        try:
            return cls.build(vocab, image_scores)
        except IngestError as exc:
            raise IngestError(str(exc), path=path)

    def row(self, image: str) -> dict[str, float]:
        """Sparse {word: score} row of ``image``."""
        try:
            return self.scores[image]
        except KeyError:
            raise UnknownImageError(f"unknown image id {image!r}") from None

    @property
    def _vocab_set(self) -> frozenset[str]:
        cached = self.__dict__.get("_vocab_set_cache")
        if cached is None:
            cached = frozenset(self.vocab)
            object.__setattr__(self, "_vocab_set_cache", cached)
        return cached

    def is_detectable(self, word: str) -> bool:
        return word in self._vocab_set

    def st_det(self, word: str) -> frozenset[str]:
        """Vocabulary words sharing the stem of ``word``; may be empty."""
        return self.stem_index.get(text.stem(word), frozenset())
