"""Reference ranks for the output check.

An independent scorer re-reads a workload's input files and scores every
image for every (query, scorer) pair the way the program's formulas define
it, with per-query work hoisted out of the image loop so that it runs in
seconds. Like ``tests/oracle.py`` it shares only the stemmer and the stopword
list with the program.

For each (query, scorer) it records the band of ranks the ground truth may
take: the images whose log score ties the ground truth's within 1e-9
relative could sit in any order, so a rank anywhere in that band passes,
and reordering float sums in a later refactor is not a failure.
"""

from __future__ import annotations

import csv
import json
import math
import string

from cnretrieval.text import NOUN, STOPWORDS, stem

REL_TOL = 1e-9
EPS = 1e-12
MIN_WEIGHT = 1.0

#: scorer -> (tier, relatedness, aggregator, noun only)
SCORERS = {
    "MIL": ("mil", None, None, False),
    "MILSTEM": ("milstem", None, None, False),
    "ESP_MIN": ("cn", "corpus", "min", False),
    "ESP_MEAN_G": ("cn", "corpus", "mean_geometric", False),
    "ESP_MEAN_A": ("cn", "corpus", "mean_arithmetic", False),
    "ESP_MAX": ("cn", "corpus", "max", False),
    "CN_MIN": ("cn", "graph", "min", False),
    "CN_MEAN_G": ("cn", "graph", "mean_geometric", False),
    "CN_MEAN_A": ("cn", "graph", "mean_arithmetic", False),
    "CN_MAX": ("cn", "graph", "max", False),
    "CN_MAX_NN": ("cn", "graph", "max", True),
}


def tokenize(text: str) -> list[str]:
    seen = {}
    for raw in text.lower().split():
        word = raw.strip(string.punctuation)
        if word:
            seen.setdefault(word, None)
    return list(seen)


def tied(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class ReferenceScorer:
    """Scores every image of a workload from its input files alone."""

    def __init__(self, directory):
        self._stems: dict[str, str] = {}
        with open(directory / "detectors.jsonl", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        self.vocab = frozenset(lines[0]["vocab"])
        self.images = [row["image"] for row in lines[1:]]
        self.scores = {row["image"]: row["scores"] for row in lines[1:]}
        self.stem_index: dict[str, list[str]] = {}
        for word in lines[0]["vocab"]:
            self.stem_index.setdefault(self.stem(word), []).append(word)

        self.adjacency: dict[str, set[str]] = {}
        with open(directory / "graph.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for _, start, end, weight in reader:
                start = start.strip().lower().replace("_", " ")
                end = end.strip().lower().replace("_", " ")
                if float(weight) < MIN_WEIGHT or " " in start or " " in end:
                    continue
                s, e = self.stem(start), self.stem(end)
                if s != e:
                    self.adjacency.setdefault(s, set()).add(end)
                    self.adjacency.setdefault(e, set()).add(start)

        self.tag_sets = []
        self.posting: dict[str, set[int]] = {}
        with open(directory / "corpus.jsonl", encoding="utf-8") as fh:
            for position, line in enumerate(fh):
                tags = frozenset(self.stem(t.lower()) for t in json.loads(line)["tags"])
                self.tag_sets.append(tags)
                for t in tags:
                    self.posting.setdefault(t, set()).add(position)

        self.classes = {}
        path = directory / "word_classes.csv"
        if path.exists():
            with open(path, newline="", encoding="utf-8") as fh:
                for word, word_class in csv.reader(fh):
                    self.classes[word.strip().lower()] = word_class.strip().lower()

    def stem(self, word: str) -> str:
        cached = self._stems.get(word)
        if cached is None:
            cached = self._stems[word] = stem(word)
        return cached

    def _st_det(self, word):
        return self.stem_index.get(self.stem(word), ())

    def _related_detectable(self, word, relatedness):
        ws = self.stem(word)
        if relatedness == "graph":
            related = {c for c in self.adjacency.get(ws, ()) if self.stem(c) != ws}
        else:
            related = set()
            for position in self.posting.get(ws, ()):
                related |= self.tag_sets[position]
            related.discard(ws)
        return sorted(c for c in related if self._st_det(c))

    def _df(self, word):
        return len(self.posting.get(self.stem(word), ()))

    def _co_count(self, a, b):
        a, b = self.stem(a), self.stem(b)
        if a == b:
            return len(self.posting.get(a, ()))
        return len(self.posting.get(a, set()) & self.posting.get(b, set()))

    def _cond(self, w, given):
        denom = self._df(given)
        pos = self._co_count(w, given) / denom if denom else 0.0
        denom = len(self.tag_sets) - self._df(given)
        neg = (self._df(w) - self._co_count(w, given)) / denom if denom else 0.0
        return pos, neg

    def plan(self, words, scorer):
        """Image-independent factors: detector words, stem classes, related sets."""
        tier, relatedness, aggregator, noun_only = SCORERS[scorer]
        detectable = sorted(w for w in words if w in self.vocab)
        if tier == "mil":
            return detectable, [], []
        stem_det = sorted(w for w in words if w not in self.vocab and self._st_det(w))
        knowledge = []
        if tier == "cn":
            for w in sorted(words):
                if w in self.vocab or self._st_det(w) or w in STOPWORDS:
                    continue
                if noun_only and self.classes.get(w) != NOUN:
                    continue
                related = self._related_detectable(w, relatedness)
                if related:
                    knowledge.append(
                        [(self._st_det(r), *self._cond(w, r)) for r in related])
        return detectable, [self._st_det(w) for w in stem_det], knowledge

    def log_score(self, plan, scorer, image) -> float:
        detectable, stem_classes, knowledge = plan
        aggregator = SCORERS[scorer][2]
        row = self.scores[image]
        factors = [row.get(w, 0.0) for w in detectable]
        factors += [max(row.get(v, 0.0) for v in cls) for cls in stem_classes]
        for pairs in knowledge:
            estimates = []
            for cls, pos, neg in pairs:
                q = max(row.get(v, 0.0) for v in cls)
                estimates.append(pos * q + neg * (1.0 - q))
            if aggregator == "min":
                factors.append(min(estimates))
            elif aggregator == "max":
                factors.append(max(estimates))
            elif aggregator == "mean_arithmetic":
                factors.append(sum(estimates) / len(estimates))
            else:
                factors.append(math.prod(estimates) ** (1.0 / len(estimates)))
        return sum(math.log(max(f, EPS)) for f in factors)

    def underflows(self, query, scorer) -> bool:
        """Whether a geometric mean for the ground truth takes the underflow
        path: its product is 0 although every estimate in it is positive."""
        if SCORERS[scorer][2] != "mean_geometric":
            return False
        row = self.scores[query["ground_truth"][0]]
        for pairs in self.plan(tokenize(query["text"]), scorer)[2]:
            estimates = [pos * q + neg * (1.0 - q) for q, pos, neg in
                         ((max(row.get(v, 0.0) for v in cls), pos, neg)
                          for cls, pos, neg in pairs)]
            if min(estimates) > 0 and math.prod(estimates) == 0:
                return True
        return False

    def band(self, query, scorer) -> list[int]:
        """[lowest, highest] 1-based rank the query's ground truth may take."""
        plan = self.plan(tokenize(query["text"]), scorer)
        truth = set(query["ground_truth"])
        best = max(self.log_score(plan, scorer, g) for g in truth)
        better = ties = 0
        for image in self.images:
            if image in truth:
                continue
            score = self.log_score(plan, scorer, image)
            if tied(score, best):
                ties += 1
            elif score > best:
                better += 1
        return [better + 1, better + ties + 1]


def check_eval(output: dict, queries, scorers, expected: dict) -> list[str]:
    """Compare ``eval --output json`` against reference bands.

    Returns one message per failed (query, scorer) pair; an empty list means
    every pair ranked its ground truth inside its band.
    """
    failures = []
    for scorer in scorers:
        ranks = {}
        try:
            for entry in output[scorer]["per_query"]:
                ranks[entry["query_id"]] = entry["rank"]
        except (KeyError, TypeError):
            pass
        for query in queries:
            qid = query["query_id"]
            lo, hi = expected[qid][scorer]
            rank = ranks.get(qid)
            if not isinstance(rank, int) or not lo <= rank <= hi:
                failures.append(f"{scorer} {qid}: rank {rank}, expected {lo}..{hi}")
    return failures


def cross_check(directory, queries, scorers, rng, samples: int) -> int:
    """Compare reference log scores with ``tests/oracle.py`` on sampled pairs.

    For each scorer, ``samples`` seeded (query, image) pairs are scored by
    the brute-force oracle (imported read-only, with its stemmer memoized)
    and must agree at 1e-9 relative. Returns the number of pairs checked;
    raises AssertionError on the first disagreement.
    """
    import functools
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    import oracle

    if not hasattr(oracle.stem, "cache_info"):
        oracle.stem = functools.lru_cache(maxsize=None)(oracle.stem)
    ref = ReferenceScorer(directory)
    edges = []
    with open(directory / "graph.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rel_type, start, end, weight in reader:
            edges.append((rel_type.strip(), start.strip().lower().replace("_", " "),
                          end.strip().lower().replace("_", " "), float(weight)))
    with open(directory / "corpus.jsonl", encoding="utf-8") as fh:
        corpus = [(row["image"], row["tags"]) for row in map(json.loads, fh)]
    with open(directory / "detectors.jsonl", encoding="utf-8") as fh:
        vocab = json.loads(fh.readline())["vocab"]
    world = oracle.World(vocab, ref.scores, edges, corpus, ref.classes)
    checked = 0
    for scorer in scorers:
        tier, relatedness, aggregator, noun_only = SCORERS[scorer]
        for query in rng.sample(queries, samples):
            words = tokenize(query["text"])
            image = rng.choice([query["ground_truth"][0], rng.choice(ref.images)])
            if tier == "mil":
                value = oracle.mil(world, words, image)
            elif tier == "milstem":
                value = oracle.milstem(world, words, image)
            else:
                value = oracle.cn(world, words, image, aggregator=aggregator,
                                  relatedness=relatedness, noun_only=noun_only)
            mine = ref.log_score(ref.plan(words, scorer), scorer, image)
            if not tied(math.log(value), mine):
                raise AssertionError(f"{scorer} {query['query_id']} {image}: oracle "
                                     f"{math.log(value)!r}, reference {mine!r}")
            checked += 1
    return checked
