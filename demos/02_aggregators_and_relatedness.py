"""Comparing aggregation functions and relatedness sources.

For a word scored through several related detectors, the per-neighbor
estimates can be combined by min, geometric mean, arithmetic mean or max;
the combined value is always ordered min <= geo <= arith <= max.
Relatedness itself can come from graph edges or from tag co-occurrence.

Run: python demos/02_aggregators_and_relatedness.py
"""

from cnretrieval import (
    CooccurrenceModel,
    DetectorBank,
    KnowledgeGraph,
    Relation,
    ScoreConfig,
    Scorer,
    stem_set,
    tokenize,
)

bank = DetectorBank.build(
    ["doughnut", "bread", "plate", "coffee"],
    {
        "img_bakery": {"doughnut": 0.85, "bread": 0.7, "plate": 0.4},
        "img_cafe": {"coffee": 0.9, "plate": 0.6, "bread": 0.2},
        "img_field": {},
    },
)

# both sources are projected onto the bank: only related words that have a
# detector are kept
graph = KnowledgeGraph.project([
    Relation("bagel", "doughnut", 1.5),
    Relation("bagel", "bread", 1.0),
], bank.stem_index)

# the corpus is each image's tag stems ("coffee" stems to "coff")
corpus = CooccurrenceModel.project((stem_set(tags) for tags in [
    ["bagel", "bread", "plate"],
    ["bagel", "doughnut"],
    ["coffee", "plate"],
    ["bread"],
]), bank.stem_index)

tokens = tokenize("a bagel")

print("graph relatedness ('bagel' via doughnut + bread detectors):")
print(f"{'image':<12}" + "".join(f"{a:>12}" for a in
                                 ("min", "geo-mean", "arith-mean", "max")))
plans = [
    Scorer(bank, graph, corpus, config=ScoreConfig(aggregator=agg)).plan(tokens)
    for agg in ("min", "mean_geometric", "mean_arithmetic", "max")
]
for image in bank.images:
    print(f"{image:<12}" + "".join(f"{plan.score(image):>12.4f}" for plan in plans))

print()
print("tag-co-occurrence relatedness (no graph edges needed):")
scorer = Scorer(bank, graph, corpus, config=ScoreConfig(
    aggregator="max", relatedness="corpus-cooccurrence"))
plan = scorer.plan(tokens)
for image in bank.images:
    print(f"{image:<12}{plan.score(image):>12.4f}")
