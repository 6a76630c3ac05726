"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

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
    rank_images,
    stem,
    tokenize,
)

import oracle
from conftest import (
    TINY_CORPUS,
    TINY_EDGES,
    TINY_SCORES,
    TINY_VOCAB,
    TINY_WORD_CLASSES,
    stemmed,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


# --- random world generation ---------------------------------------------

BASE_WORDS = ["dog", "dogs", "cat", "man", "person", "kitchen", "dish",
              "grass", "jacket", "bread", "run", "runs", "running", "tree"]
EXTRA_WORDS = ["chef", "tuxedo", "bagel", "hotel", "zebra", "resort"]
REL_TYPES = ["IsA", "AtLocation", "RelatedTo", "Antonym"]


def make_world(rng, n_images=6, ensure_cn_word=None):
    vocab = rng.sample(BASE_WORDS, rng.randint(4, 12))
    scores = {
        f"i{k:02d}": {
            w: round(rng.random(), 3)
            for w in rng.sample(vocab, rng.randint(0, len(vocab)))
        }
        for k in range(rng.randint(2, n_images))
    }
    edges = [
        (rng.choice(REL_TYPES), rng.choice(BASE_WORDS + EXTRA_WORDS),
         rng.choice(BASE_WORDS + EXTRA_WORDS), round(rng.uniform(0, 3), 2))
        for _ in range(rng.randint(0, 20))
    ]
    if ensure_cn_word:
        for target in rng.sample(vocab, min(3, len(vocab))):
            edges.append(("RelatedTo", ensure_cn_word, target, 2.0))
    corpus = [
        (f"e{k}", rng.sample(BASE_WORDS + EXTRA_WORDS, rng.randint(1, 6)))
        for k in range(rng.randint(1, 10))
    ]
    return oracle.World(vocab, scores, edges, corpus)


def build_scorer(world, **config_kwargs):
    config = ScoreConfig(**config_kwargs)
    bank = DetectorBank.build(world.vocab, world.scores)
    graph = KnowledgeGraph.project([Relation(*e[1:]) for e in world.edges],
                                   bank.stem_index)
    corpus = CooccurrenceModel.project(stemmed(world.corpus), bank.stem_index)
    return Scorer(bank, graph, corpus, None, config)


def knowledge_words(scorer, tokens):
    return {f.word for f in scorer.plan(tokens).factors if f.tier == KNOWLEDGE}


def random_query(rng, world):
    pool = world.vocab + EXTRA_WORDS + ["the", "a", "qqqx"]
    return " ".join(rng.sample(pool, rng.randint(1, 6)))


# --- criteria -------------------------------------------------------------

def test_oracle_equivalence_on_tiny_world():
    with criterion("oracle equivalence: brute force reproduces all scores at 1e-9"):
        start = time.perf_counter()
        rng = random.Random(101)
        world = make_world(rng, ensure_cn_word="chef")
        queries = [random_query(rng, world) for _ in range(6)] + ["a chef", "dogs run"]
        for aggregator in ("min", "max", "mean_arithmetic", "mean_geometric"):
            scorer = build_scorer(world, aggregator=aggregator)
            for query in queries:
                tokens = tokenize(query)
                words = [t.surface for t in tokens]
                mil, milstem = scorer.plan(tokens, DETECTOR), scorer.plan(tokens, STEM)
                cn = scorer.plan(tokens)
                for image in world.images:
                    assert mil.score(image) == pytest.approx(
                        oracle.mil(world, words, image), rel=1e-9, abs=1e-300)
                    assert milstem.score(image) == pytest.approx(
                        oracle.milstem(world, words, image), rel=1e-9, abs=1e-300)
                    assert cn.score(image) == pytest.approx(
                        oracle.cn(world, words, image, aggregator=aggregator),
                        rel=1e-9, abs=1e-300)
        assert time.perf_counter() - start < 1.0


def test_reduction_chain_randomized():
    with criterion("reduction chain: exact degeneracies over 1000 random instances"):
        rng = random.Random(202)
        for _ in range(1000):
            world = make_world(rng, ensure_cn_word=rng.choice(EXTRA_WORDS))
            scorer = build_scorer(world)
            tokens = tokenize(random_query(rng, world))
            image = rng.choice(world.images)
            tiers = {f.word: f.tier for f in scorer.plan(tokens).factors}

            no_cn = [t for t in tokens if tiers.get(t.surface) != KNOWLEDGE]
            assert scorer.plan(no_cn).score(image) == \
                scorer.plan(no_cn, STEM).score(image)

            no_stem = [t for t in no_cn if tiers.get(t.surface) != STEM]
            assert scorer.plan(no_stem, STEM).score(image) == \
                scorer.plan(no_stem, DETECTOR).score(image)

            undetectable = [t for t in tokens if t.stem not in scorer.bank.stem_index]
            assert scorer.plan(undetectable, DETECTOR).score(image) == 1.0


def test_aggregator_ordering_randomized():
    with criterion("aggregator ordering: min <= geo <= arith <= max (1e-12)"):
        rng = random.Random(303)
        for _ in range(1000):
            cn_word = rng.choice(EXTRA_WORDS)
            world = make_world(rng, ensure_cn_word=cn_word)
            tokens = tokenize(f"{random_query(rng, world)} {cn_word}")
            image = rng.choice(world.images)
            values = [
                build_scorer(world, aggregator=agg).plan(tokens).score(image)
                for agg in ("min", "mean_geometric", "mean_arithmetic", "max")
            ]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-12


def test_cooccurrence_law_of_total_counts():
    with criterion("co-occurrence law of total counts: exact on 100 random corpora"):
        rng = random.Random(404)
        for _ in range(100):
            tag_sets = stemmed([
                (f"e{k}", rng.sample(BASE_WORDS, rng.randint(1, 6)))
                for k in range(rng.randint(1, 10))
            ])
            # every stem has a detector, so every co-count is kept
            corpus = CooccurrenceModel.project(tag_sets, set().union(*tag_sets))
            n = corpus.n_images
            for w in corpus.df:
                for g in corpus.df:
                    df_g = corpus.df[g]
                    if not 0 < df_g < n:
                        continue
                    co = corpus.co_count(w, g)
                    total = Fraction(co, df_g) * df_g + \
                        Fraction(corpus.df[w] - co, n - df_g) * (n - df_g)
                    assert total == corpus.df[w]
                    assert corpus.cond_prob(w, g) == co / df_g
                    assert corpus.cond_prob_neg(w, g) == \
                        (corpus.df[w] - co) / (n - df_g)


def test_underflow_ranking_matches_rational_oracle():
    with criterion("numerics: 50-factor underflow query ranks as exact rationals"):
        rng = random.Random(505)
        vocab = [f"w{k:02d}" for k in range(50)]
        scores = {
            f"i{k:02d}": {w: 1e-3 * rng.uniform(0.5, 1.5) for w in vocab}
            for k in range(20)
        }
        world = oracle.World(vocab, scores, [], [])
        scorer = build_scorer(world)
        tokens = tokenize(" ".join(vocab))
        words = vocab

        log_ranking = [img for img, _ in rank_images(
            world.images, scorer.plan(tokens, DETECTOR).log_score)]
        cn_ranking = [img for img, _ in rank_images(
            world.images, scorer.plan(tokens).log_score)]
        exact = sorted(world.images,
                       key=lambda img: (-oracle.mil_exact(world, words, img), img))
        assert log_ranking == exact
        assert cn_ranking == exact
        # sanity: the direct product really is deep in the underflow zone
        assert oracle.mil_exact(world, words, exact[0]) < Fraction(1, 10**100)


def test_random_baseline_mean_rank():
    with criterion("random baseline: mean rank near (N+1)/2 = 2500.5"):
        start = time.perf_counter()
        rng = random.Random(606)
        n_images = 5000
        images = [f"i{k:04d}" for k in range(n_images)]
        queries = [
            QueryRecord(query_id=f"q{k}", text="word",
                        ground_truth=frozenset([images[rng.randrange(n_images)]]))
            for k in range(2000)
        ]
        state = {"qid": None, "scores": None}

        def score_fn(query, image):
            if state["qid"] != query.query_id:
                state["qid"] = query.query_id
                state["scores"] = {image: rng.random() for image in images}
            return state["scores"][image]

        report = compute_report(queries, score_fn, images)
        assert 2400 <= report.mean_rank <= 2600
        assert time.perf_counter() - start < 30.0


def test_stem_max_estimate_property():
    with criterion("stem-max estimate equals class max on 1000 random banks"):
        rng = random.Random(707)
        for _ in range(1000):
            world = make_world(rng)
            scorer = build_scorer(world)
            bank = scorer.bank
            image = rng.choice(world.images)
            probe = rng.choice(BASE_WORDS + ["dogged", "runner"])
            stem_class = oracle.st_det(world, probe)
            if not stem_class:
                continue
            row = bank.row(image)
            estimate = max(row.get(w, 0.0) for w in bank.stem_index[stem(probe)])
            assert estimate == max(
                world.scores[image].get(w, 0.0) for w in stem_class)
            if len(stem_class) == 1:
                assert estimate == row.get(stem_class[0], 0.0)
            if not bank.is_detectable(probe):
                # a stem-tier word's factor is this estimate
                plan = scorer.plan(tokenize(probe), STEM)
                assert plan.factor_values(image) == [estimate]


def test_metric_recount():
    with criterion("metric recount: r@k/median/mean agree with per-rank recount"):
        rng = random.Random(808)
        for _ in range(100):
            n = rng.randint(3, 40)
            images = [f"i{k}" for k in range(n)]
            scores = {(q, img): rng.random()
                      for q in range(rng.randint(1, 12)) for img in images}
            queries = [
                QueryRecord(query_id=f"q{q}", text="x",
                            ground_truth=frozenset(rng.sample(images, rng.randint(1, 3))))
                for q in range(max(k for k, _ in scores) + 1)
            ]
            ks = (1, 5, 10)
            report = compute_report(
                queries, lambda q, img: scores[(int(q.query_id[1:]), img)],
                images, ks=ks)
            ranks = [r for _, r in report.per_query]
            for k in ks:
                assert report.r_at[k] == 100.0 * sum(r <= k for r in ranks) / len(ranks)
            assert report.median_rank == statistics.median(ranks)
            assert report.mean_rank == pytest.approx(sum(ranks) / len(ranks))
            assert report.r_at[1] <= report.r_at[5] <= report.r_at[10]


def test_threshold_antitonicity():
    with criterion("raising min_weight never adds neighbors or graph-tier words"):
        rng = random.Random(909)
        for _ in range(100):
            cn_word = rng.choice(EXTRA_WORDS)
            world = make_world(rng, ensure_cn_word=cn_word)
            relations = [Relation(*e[1:]) for e in world.edges]
            low_t, high_t = sorted([rng.uniform(0, 1.5), rng.uniform(0.5, 3)])
            # a vocabulary holding every stem keeps every neighbor
            graph = KnowledgeGraph.project(relations, {stem(w) for e in relations
                                                       for w in e[:2]})
            for word in rng.sample(BASE_WORDS + EXTRA_WORDS, 6):
                assert graph.neighbors(stem(word), high_t).keys() <= \
                    graph.neighbors(stem(word), low_t).keys()

            tokens = tokenize(f"{random_query(rng, world)} {cn_word}")
            low_scorer = build_scorer(world, min_weight=low_t)
            high_scorer = build_scorer(world, min_weight=high_t)
            assert knowledge_words(high_scorer, tokens) <= \
                knowledge_words(low_scorer, tokens)


def test_end_to_end_chef_scenario():
    with criterion("chef scenario: graph neighbors rank the kitchen image first"):
        world = oracle.World(
            TINY_VOCAB, TINY_SCORES,
            [("RelatedTo", *r) for r in TINY_EDGES],
            TINY_CORPUS, dict(TINY_WORD_CLASSES),
        )
        bank = DetectorBank.build(TINY_VOCAB, TINY_SCORES)
        graph = KnowledgeGraph.project(TINY_EDGES, bank.stem_index)
        corpus = CooccurrenceModel.project(stemmed(TINY_CORPUS), bank.stem_index)
        scorer = Scorer(bank, graph, corpus, None, ScoreConfig(aggregator="max"))
        tokens = tokenize("a chef")
        words = [t.surface for t in tokens]

        assert set(graph.neighbors("chef", 1.0)) == {"person", "dish", "kitchen"}
        assert stem("chef") not in bank.stem_index

        cn_ranking = rank_images(bank.images, scorer.plan(tokens).log_score)
        milstem_ranking = rank_images(bank.images, scorer.plan(tokens, STEM).log_score)
        cn_rank = [img for img, _ in cn_ranking].index("img_kitchen") + 1
        milstem_rank = [img for img, _ in milstem_ranking].index("img_kitchen") + 1
        assert cn_rank == 1
        assert milstem_rank > cn_rank

        # brute-force confirmation of both orderings
        oracle_cn = sorted(world.images,
                           key=lambda i: (-oracle.cn(world, words, i), i))
        oracle_milstem = sorted(world.images,
                                key=lambda i: (-oracle.milstem(world, words, i), i))
        assert [img for img, _ in cn_ranking] == oracle_cn
        assert [img for img, _ in milstem_ranking] == oracle_milstem
