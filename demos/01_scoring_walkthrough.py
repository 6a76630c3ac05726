"""Walkthrough: how an undetectable query word gets scored anyway.

Builds a four-image toy world in code, shows the tier of each word of a
query containing "chef" (no detector, no stem match), and compares the
plain detector-product score with its stemming- and graph-extended
variants.

Run: python demos/01_scoring_walkthrough.py
"""

from cnretrieval import (
    DETECTOR,
    KNOWLEDGE,
    STEM,
    CooccurrenceModel,
    DetectorBank,
    KnowledgeGraph,
    Relation,
    ScoreConfig,
    Scorer,
    stem_set,
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

# Commonsense edges: "chef" has no detector, but its neighbors do. Only
# neighbors with a detector are kept: the graph is projected onto the bank.
graph = KnowledgeGraph.project([
    Relation("chef", "person", 2.5),
    Relation("chef", "kitchen", 2.0),
    Relation("chef", "dish", 1.0),
], bank.stem_index)

# A tag corpus (each image's tag stems) giving the conditional co-occurrence
# evidence, projected onto the bank the same way.
corpus = CooccurrenceModel.project((stem_set(tags) for tags in [
    ["chef", "person", "kitchen"],
    ["chef", "dish"],
    ["dog", "grass"],
    ["man", "person"],
]), bank.stem_index)

scorer = Scorer(bank, graph, corpus, config=ScoreConfig(aggregator="max"))

query = "a chef and his dish"
tokens = tokenize(query)
# The plan holds one factor per scored word, tagged with the word's tier;
# a word without a factor is undetected.
factors = scorer.plan(tokens).factors


def tier_words(tier):
    return [f.word for f in factors if f.tier == tier]


print(f"query: {query!r}")
print(f"  detector words:        {tier_words(DETECTOR)}")
print(f"  stem-detectable words: {tier_words(STEM)}")
print(f"  graph-detectable:      {tier_words(KNOWLEDGE)}")
print(f"  undetected:            "
      f"{sorted({t.surface for t in tokens} - {f.word for f in factors})}")
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
