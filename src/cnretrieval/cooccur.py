"""Tag-corpus co-occurrence counts and the conditional estimates they yield.

The corpus is stored and indexed as stems: raw tags are lowercased and
stemmed once, in :meth:`CooccurrenceModel.from_jsonl`. Counts are over
images, not tag occurrences. Conditioning on a word never seen in the
corpus yields probability 0 (no evidence), as does conditioning on the
absence of a word present in every image.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import text
from .errors import IngestError, open_text


@dataclass
class CooccurrenceModel:
    """Document frequencies and pair counts over a stemmed tag corpus."""

    n_images: int
    tag_sets: dict[str, frozenset[str]]  # image id -> stemmed tag set
    df: dict[str, int]
    _image_index: dict[str, frozenset[str]] = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, tagged_images) -> "CooccurrenceModel":
        """Construct from (image id, iterable of tag stems) pairs, indexed as given."""
        tag_sets: dict[str, frozenset[str]] = {}
        df: dict[str, int] = {}
        index: dict[str, set[str]] = {}  # stem -> ids of the images tagged with it
        for image, tags in tagged_images:
            if image in tag_sets:
                raise IngestError(f"duplicate image id {image!r}")
            tag_sets[image] = stems = frozenset(tags)
            for s in stems:
                df[s] = df.get(s, 0) + 1
                index.setdefault(s, set()).add(image)
        return cls(
            n_images=len(tag_sets),
            tag_sets=tag_sets,
            df=df,
            _image_index={s: frozenset(images) for s, images in index.items()},
        )

    @classmethod
    def from_jsonl(cls, path) -> "CooccurrenceModel":
        """Load a tag corpus file: one ``{"image": ..., "tags": [...]}`` per line;
        tags are lowercased and stemmed."""
        tagged = []
        seen = set()
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise IngestError(f"invalid JSON: {exc}", path=path, line=lineno)
                if not isinstance(obj, dict) or "image" not in obj or \
                        not isinstance(obj.get("tags"), list):
                    raise IngestError("expected image and tags fields",
                                      path=path, line=lineno)
                image = str(obj["image"])
                if image in seen:
                    raise IngestError(f"duplicate image id {image!r}",
                                      path=path, line=lineno)
                seen.add(image)
                tags = (str(t).lower() for t in obj["tags"])
                tagged.append((image, text.stem_set(tags)))
        return cls.build(tagged)

    def co_count(self, a: str, b: str) -> int:
        """Number of images whose tag sets contain both stems (inputs are stemmed)."""
        a, b = text.stem(a), text.stem(b)
        if a == b:
            return self.df.get(a, 0)
        imgs_a = self._image_index.get(a)
        imgs_b = self._image_index.get(b)
        return len(imgs_a & imgs_b) if imgs_a and imgs_b else 0

    def doc_freq(self, word: str) -> int:
        return self.df.get(text.stem(word), 0)

    def cond_prob(self, w: str, given: str) -> float:
        """P(w | given): share of images tagged with ``given`` also tagged with ``w``."""
        denom = self.doc_freq(given)
        if denom == 0:
            return 0.0
        return self.co_count(w, given) / denom

    def cond_prob_neg(self, w: str, given: str) -> float:
        """P(w | not given): share of images lacking ``given`` that are tagged with ``w``."""
        denom = self.n_images - self.doc_freq(given)
        if denom == 0:
            return 0.0
        return (self.doc_freq(w) - self.co_count(w, given)) / denom

    def co_occurring(self, word: str) -> frozenset[str]:
        """All stems sharing at least one image with the stem of ``word``, itself excluded."""
        word_stem = text.stem(word)
        related: set[str] = set()
        for image in self._image_index.get(word_stem, ()):
            related.update(self.tag_sets[image])
        related.discard(word_stem)
        return frozenset(related)
