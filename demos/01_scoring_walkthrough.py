"""Walkthrough: how an undetectable query word gets scored anyway.

Builds a four-image toy world in code, shows the word partition for a
query containing "chef" (no detector, no stem match), and compares the
plain detector-product score with its stemming- and graph-extended
variants.

Run: python demos/01_scoring_walkthrough.py
"""

from cnretrieval import (
    DETECTOR,
    STEM,
    CooccurrenceModel,
    DetectorBank,
    KnowledgeGraph,
    Relation,
    ScoreConfig,
    Scorer,
    tokenize,
)

# A detector bank: vocabulary + sparse per-image scores (missing = 0).
bank = DetectorBank.build(
    ["person", "dish", "kitchen", "man", "dog", "grass", "jacket"],
    {
        "img_beach": {"man": 0.8, "dog": 0.6},
        "img_kitchen": {"person": 0.9, "dish": 0.8, "kitchen": 0.95},
        "img_park": {"dog": 0.9, "grass": 0.8},
        "img_plain": {},
    },
)

# Commonsense edges: "chef" has no detector, but its neighbors do.
graph = KnowledgeGraph.from_relations([
    Relation("IsA", "chef", "person", 2.5),
    Relation("AtLocation", "chef", "kitchen", 2.0),
    Relation("RelatedTo", "chef", "dish", 1.0),
], min_weight=1.0)

# A tag corpus giving the conditional co-occurrence evidence.
corpus = CooccurrenceModel.build([
    ("e1", ["chef", "person", "kitchen"]),
    ("e2", ["chef", "dish"]),
    ("e3", ["dog", "grass"]),
    ("e4", ["man", "person"]),
])

scorer = Scorer(bank, graph, corpus, config=ScoreConfig(aggregator="max"))

query = "a chef and his dish"
tokens = tokenize(query)
partition = scorer.partition(tokens)

print(f"query: {query!r}")
print(f"  detector words:        {sorted(partition.detectable)}")
print(f"  stem-detectable words: {sorted(partition.stem_detectable)}")
print(f"  graph-detectable:      {sorted(partition.related)}")
print(f"  undetected:            {sorted(partition.undetected)}")
print()

query = "a chef"
tokens = tokenize(query)
# A plan compiles the query once; it keeps the first 1, 2 or 3 tiers.
mil, milstem, cn = (scorer.plan(tokens, DETECTOR), scorer.plan(tokens, STEM),
                    scorer.plan(tokens))
print(f"query: {query!r} — no word has a detector, even after stemming")
print(f"{'image':<12} {'detector-only':>14} {'+stemming':>10} {'+graph':>10}")
for image in bank.images:
    print(f"{image:<12} {mil.score(image):>14.4f} "
          f"{milstem.score(image):>10.4f} "
          f"{cn.score(image):>10.4f}")

print()
print("Without the graph every image ties at 1.0 and the ranking is")
print("arbitrary; the neighbors of 'chef' (person, dish, kitchen) single")
print("out the kitchen image.")
