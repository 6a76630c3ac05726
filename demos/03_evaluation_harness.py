"""Batch evaluation: ranks, r@k, median and mean rank, side-by-side table.

Evaluates three scorers over a small query set and prints the metric
table. Also shows the random-scorer sanity check: with uniform random
scores over N images, the mean rank of a single ground-truth image
converges to (N + 1) / 2.

Run: python demos/03_evaluation_harness.py
"""

import random

from cnretrieval import (
    DETECTOR,
    KNOWLEDGE,
    STEM,
    CooccurrenceModel,
    DetectorBank,
    KnowledgeGraph,
    QueryRecord,
    Relation,
    ScoreConfig,
    Scorer,
    compute_report,
    format_table,
    stem_set,
    tokenize,
)

bank = DetectorBank.build(
    ["person", "dish", "kitchen", "man", "dog", "grass"],
    {
        "img_beach": {"man": 0.8, "dog": 0.6},
        "img_kitchen": {"person": 0.9, "dish": 0.8, "kitchen": 0.95},
        "img_park": {"dog": 0.9, "grass": 0.8},
        "img_plain": {},
    },
)
graph = KnowledgeGraph.project([
    Relation("chef", "person", 2.5),
    Relation("chef", "kitchen", 2.0),
], bank.stem_index)
corpus = CooccurrenceModel.project(
    (stem_set(tags) for tags in [["chef", "person", "kitchen"], ["dog", "grass"]]),
    bank.stem_index)
scorer = Scorer(bank, graph, corpus, config=ScoreConfig())

queries = [
    QueryRecord("q1", "a chef", frozenset({"img_kitchen"})),
    QueryRecord("q2", "dogs on grass", frozenset({"img_park"})),
    QueryRecord("q3", "a man and his dog", frozenset({"img_beach"})),
]

reports = {}
for name, tiers in (("MIL", DETECTOR), ("MILSTEM", STEM), ("CN_MAX", KNOWLEDGE)):
    # compile each query once, then score every image with its plan
    plans = {q: scorer.plan(tokenize(q.text), tiers) for q in queries}
    reports[name] = compute_report(
        queries, lambda q, i: plans[q].log_score(i), bank.images)
print(format_table(reports))
print()

# Random-scorer sanity check.
rng = random.Random(0)
n = 500
images = [f"i{k:03d}" for k in range(n)]
random_queries = [
    QueryRecord(f"r{k}", "x", frozenset({rng.choice(images)}))
    for k in range(400)
]
report = compute_report(random_queries, lambda q, i: rng.random(), images)
print(f"random scorer over {n} images: mean rank {report.mean_rank:.1f} "
      f"(expected about {(n + 1) / 2})")
