"""Tag-corpus co-occurrence counts, projected onto a detector vocabulary.

Raw tags are lowercased and stemmed once, in :func:`parse_tags_jsonl`.
Scoring reads the corpus only through the number of images, each stem's
document frequency, and the co-counts of a stem without a detector (any
other query word is scored in the stem tier) with the tag stems that have
one, so :meth:`CooccurrenceModel.project` keeps just those. Counts
are over images, not tag occurrences. Conditioning on a word never seen in
the corpus yields probability 0 (no evidence), as does conditioning on the
absence of a word present in every image.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import text
from .errors import IngestError, open_text


def parse_tags_jsonl(path) -> dict[str, frozenset[str]]:
    """Parse a tag corpus file, one ``{"image": ..., "tags": [...]}`` per line,
    into each image's set of lowercased, stemmed tags."""
    tag_sets: dict[str, frozenset[str]] = {}
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
                raise IngestError("expected image and tags fields", path=path, line=lineno)
            image = str(obj["image"])
            if image in tag_sets:
                raise IngestError(f"duplicate image id {image!r}", path=path, line=lineno)
            tag_sets[image] = text.stem_set(str(t).lower() for t in obj["tags"])
    return tag_sets


@dataclass(frozen=True)
class CooccurrenceModel:
    """Document frequencies, and each stem without a detector's co-counts
    with the tag stems that have one."""

    n_images: int = 0
    #: tag stem -> images tagged with it
    df: dict[str, int] = field(default_factory=dict)
    #: tag stem that is not a detector stem -> {partner: images tagged with
    #: both}, in partner order; a partner is another tag stem that is, or
    #: stems to, a detector stem
    co_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    #: tag stem -> its stem, for every tag stem whose stem has a detector
    detectable: dict[str, str] = field(default_factory=dict)

    @classmethod
    def project(cls, tag_sets, detector_stems) -> "CooccurrenceModel":
        """Count a corpus given as one set of tag stems per image, keeping the
        co-counts of the stems outside ``detector_stems``, the stems that have
        a detector, with the partners of ``detector_stems``."""
        tag_sets = list(tag_sets)
        df: dict[str, int] = {}
        for tags in tag_sets:
            for t in tags:
                df[t] = df.get(t, 0) + 1
        detectable = {t: s for t in sorted(df) if (s := text.stem(t)) in detector_stems}
        partners = detectable.keys() | (df.keys() & detector_stems)
        co_counts: dict[str, dict[str, int]] = {}
        for tags in tag_sets:
            found = [t for t in tags if t in partners]
            if not found:
                continue
            for s in tags:
                if s in detector_stems:
                    continue
                row = co_counts.setdefault(s, {})
                for t in found:
                    if t != s:
                        row[t] = row.get(t, 0) + 1
        return cls(
            n_images=len(tag_sets),
            df=dict(sorted(df.items())),
            co_counts={s: dict(sorted(row.items())) for s, row in sorted(co_counts.items())
                       if row},
            detectable=detectable,
        )

    def co_count(self, stem: str, detector_stem: str) -> int:
        """Number of images tagged with both stems, the second one a detector
        stem and the first one either not a detector stem or the second itself."""
        if stem == detector_stem:
            return self.df.get(stem, 0)
        row = self.co_counts.get(stem)
        return row.get(detector_stem, 0) if row else 0

    def cond_prob(self, stem: str, given: str) -> float:
        """P(stem | given): share of images tagged with ``given`` also tagged with ``stem``."""
        denom = self.df.get(given, 0)
        if denom == 0:
            return 0.0
        return self.co_count(stem, given) / denom

    def cond_prob_neg(self, stem: str, given: str) -> float:
        """P(stem | not given): share of images lacking ``given`` tagged with ``stem``."""
        denom = self.n_images - self.df.get(given, 0)
        if denom == 0:
            return 0.0
        return (self.df.get(stem, 0) - self.co_count(stem, given)) / denom

    def co_occurring(self, stem: str) -> dict[str, str]:
        """Tag stems sharing an image with ``stem`` whose stem has a detector,
        each mapped to that stem, in tag order; ``stem`` itself is excluded."""
        detectable = self.detectable
        return {t: detectable[t] for t in self.co_counts.get(stem, ()) if t in detectable}
