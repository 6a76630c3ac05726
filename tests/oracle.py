"""Independent brute-force evaluator used as a test oracle.

Everything here is direct nested loops over plain data: no log-space, no
stem index, no adjacency maps, no caches. It shares only the stemmer and
stopword list with the package (both tiers must normalize words the same
way for the comparison to be meaningful).
"""

from fractions import Fraction

from cnretrieval.text import NOUN, STOPWORDS, stem


class World:
    """Plain-data world: vocab list, dense-ish score dicts, edge tuples, tag lists."""

    def __init__(self, vocab, scores, edges, corpus, word_classes=None):
        self.vocab = list(vocab)
        self.scores = scores            # image -> {word: float}
        self.edges = list(edges)        # (rel_type, start, end, weight)
        self.corpus = list(corpus)      # (image, [tags])
        self.word_classes = word_classes or {}

    @property
    def images(self):
        return list(self.scores)


def detector_score(world, image, word):
    return world.scores[image].get(word, 0.0)


def st_det(world, word):
    return [v for v in world.vocab if stem(v) == stem(word)]


def stem_max(world, word, image):
    best = 0.0
    for v in st_det(world, word):
        best = max(best, detector_score(world, image, v))
    return best


def kept_edges(world, min_weight=1.0):
    """Edges between two distinct single-word stems, at least ``min_weight``."""
    for _, start, end, weight in world.edges:
        if weight >= min_weight and " " not in start + end and stem(start) != stem(end):
            yield start, end, weight


def neighbors(world, word, min_weight=1.0):
    found = set()
    ws = stem(word)
    for start, end, _ in kept_edges(world, min_weight):
        if stem(start) == ws:
            found.add(end)
        if stem(end) == ws:
            found.add(start)
    return {c for c in found if stem(c) != ws}


def edge_weight(world, a, b, min_weight=1.0):
    """Best weight of a kept edge linking the stems of a and b; 0 if none."""
    pair = {stem(a), stem(b)}
    return max((w for start, end, w in kept_edges(world, min_weight)
                if {stem(start), stem(end)} == pair), default=0.0)


def max_weight(world, min_weight=1.0):
    heaviest = max((w for _, _, w in kept_edges(world, min_weight)), default=1.0)
    return heaviest if heaviest > 0 else 1.0


def esp_related(world, word):
    ws = stem(word)
    found = set()
    for _, tags in world.corpus:
        stems = {stem(t.lower()) for t in tags}
        if ws in stems:
            found |= stems
    found.discard(ws)
    return found


def count_images_with(world, *words):
    stems_wanted = [stem(w) for w in words]
    n = 0
    for _, tags in world.corpus:
        stems = {stem(t.lower()) for t in tags}
        if all(s in stems for s in stems_wanted):
            n += 1
    return n


def cond_prob(world, w, given):
    denom = count_images_with(world, given)
    if denom == 0:
        return 0.0
    return count_images_with(world, w, given) / denom


def cond_prob_neg(world, w, given):
    denom = len(world.corpus) - count_images_with(world, given)
    if denom == 0:
        return 0.0
    return (count_images_with(world, w) - count_images_with(world, w, given)) / denom


def pair_estimate(world, w, related, image, estimator="corpus", min_weight=1.0):
    q = stem_max(world, related, image)
    if estimator == "corpus":
        return cond_prob(world, w, related) * q \
            + cond_prob_neg(world, w, related) * (1.0 - q)
    if estimator == "constant_one":
        return q
    if estimator == "graph_weight":
        weight = edge_weight(world, w, related, min_weight) / max_weight(world, min_weight)
        return min(weight, 1.0) * q
    raise ValueError(estimator)


def related_detectable(world, word, relatedness="graph", min_weight=1.0):
    if relatedness == "graph":
        rel = neighbors(world, word, min_weight)
    else:
        rel = esp_related(world, word)
    return {c for c in rel if st_det(world, c)}


def aggregate(values, aggregator):
    values = list(values)
    if aggregator == "min":
        return min(values)
    if aggregator == "max":
        return max(values)
    if aggregator == "mean_arithmetic":
        return sum(values) / len(values)
    if aggregator == "mean_geometric":
        product = 1.0
        for v in values:
            product *= v
        return product ** (1.0 / len(values))
    raise ValueError(aggregator)


def partition(world, words, relatedness="graph", min_weight=1.0,
              stopword_filter=True, noun_only=False):
    detectable, stem_det, cn_det, undetected = set(), set(), set(), set()
    for w in words:
        if w in world.vocab:
            detectable.add(w)
        elif st_det(world, w):
            stem_det.add(w)
        else:
            gated = (stopword_filter and w in STOPWORDS) or \
                (noun_only and world.word_classes.get(w, "other") != NOUN)
            if not gated and related_detectable(world, w, relatedness, min_weight):
                cn_det.add(w)
            else:
                undetected.add(w)
    return detectable, stem_det, cn_det, undetected


EPS = 1e-12  # same probability floor the engine applies to each factor


def mil(world, words, image, eps=EPS):
    product = 1.0
    for w in set(words):
        if w in world.vocab:
            product *= max(detector_score(world, image, w), eps)
    return product


def milstem(world, words, image, eps=EPS):
    product = mil(world, words, image, eps)
    for w in set(words):
        if w not in world.vocab and st_det(world, w):
            product *= max(stem_max(world, w, image), eps)
    return product


def cn(world, words, image, aggregator="max", relatedness="graph",
       estimator="corpus", min_weight=1.0, stopword_filter=True, noun_only=False,
       eps=EPS):
    product = milstem(world, words, image, eps)
    _, _, cn_words, _ = partition(world, words, relatedness, min_weight,
                                  stopword_filter, noun_only)
    for w in cn_words:
        related = related_detectable(world, w, relatedness, min_weight)
        estimates = [pair_estimate(world, w, r, image, estimator, min_weight)
                     for r in related]
        product *= max(aggregate(estimates, aggregator), eps)
    return product


def mil_exact(world, words, image):
    """MIL as an exact rational product; scores must be Fraction-convertible."""
    product = Fraction(1)
    for w in set(words):
        if w in world.vocab:
            product *= Fraction(detector_score(world, image, w))  # exact binary value
    return product
