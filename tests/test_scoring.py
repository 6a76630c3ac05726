import math
import random

import pytest

from cnretrieval import (
    DETECTOR,
    KNOWLEDGE,
    STEM,
    KnowledgeGraph,
    Relation,
    ScoreConfig,
    Scorer,
    UnknownImageError,
    partition_query,
    tokenize,
)
from cnretrieval.scoring import log_product

import oracle


def pair_estimate(word, related, image, bank, cooccur, weight=1.0, **config):
    """Estimate of ``word``'s presence through ``related`` alone: the only
    factor of the one-word query when the graph has just the edge between them."""
    graph = KnowledgeGraph.from_relations([Relation("RelatedTo", word, related, weight)])
    scorer = Scorer(bank, graph, cooccur, config=ScoreConfig(**config))
    [factor] = scorer.plan(tokenize(word)).factor_values(image)
    return factor


def stem_max(bank, word, image):
    """Best detector score among the vocabulary words sharing ``word``'s stem."""
    return max(bank.row(image).get(w, 0.0) for w in bank.st_det(word))


class TestScoreConfig:
    def test_defaults(self):
        config = ScoreConfig()
        assert config.aggregator == "max"
        assert config.relatedness == "graph"
        assert config.conditional_estimator == "corpus"
        assert config.min_weight == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScoreConfig(aggregator="median")
        with pytest.raises(ValueError):
            ScoreConfig(clamp_epsilon=0.0)
        with pytest.raises(ValueError):
            ScoreConfig(conditional_estimator="magic")


class TestPartition:
    def test_chef_sentence(self, scorer):
        partition = scorer.partition(tokenize("a chef and his dish"))
        assert partition.detectable == {"dish"}
        assert set(partition.related) == {"chef"}
        # "a", "and", "his" are stopwords with no detector: undetected
        assert partition.undetected == {"a", "and", "his"}

    def test_stem_detectable(self, scorer):
        partition = scorer.partition(tokenize("dogs"))
        assert partition.stem_detectable == {"dogs"}

    def test_fully_unknown_word(self, scorer):
        partition = scorer.partition(tokenize("zebra"))
        assert partition.undetected == {"zebra"}

    def test_tiers_are_disjoint_and_cover(self, scorer):
        tokens = tokenize("a man runs with his dogs near the chef tuxedo zebra")
        partition = scorer.partition(tokens)
        tiers = [partition.detectable, partition.stem_detectable,
                 set(partition.related), partition.undetected]
        union = set().union(*tiers)
        assert union == {t.surface for t in tokens}
        assert sum(len(t) for t in tiers) == len(union)

    def test_stopword_gate_only_affects_cn_tier(self, bank, graph, corpus):
        # "in" gets a graph edge; with the filter on it stays undetected
        from cnretrieval import KnowledgeGraph, Relation, RelatednessSource
        g = KnowledgeGraph.from_relations([Relation("RelatedTo", "in", "dog", 1.0)])
        src = RelatednessSource(variant="graph", graph=g)
        on = partition_query(tokenize("in"), bank, src, ScoreConfig())
        off = partition_query(tokenize("in"), bank, src,
                              ScoreConfig(stopword_filter=False))
        assert on.undetected == {"in"}
        assert set(off.related) == {"in"}

    def test_noun_only_gate(self, scorer, bank, graph, corpus):
        from cnretrieval import WordClassMap
        nn = scorer.with_config(noun_only=True)
        assert set(nn.partition(tokenize("chef")).related) == {"chef"}
        relabeled = Scorer(bank, graph, corpus,
                           WordClassMap(entries={"chef": "verb"}),
                           ScoreConfig(noun_only=True))
        assert not relabeled.partition(tokenize("chef")).related
        assert relabeled.partition(tokenize("chef")).undetected == {"chef"}

    def test_noun_only_requires_class_map(self, bank, graph, corpus):
        s = Scorer(bank, graph, corpus, None, ScoreConfig(noun_only=True))
        with pytest.raises(ValueError):
            s.partition(tokenize("chef"))
        with pytest.raises(ValueError):
            s.plan(tokenize("chef"))
        # the detector and stem tiers never consult word classes
        assert s.plan(tokenize("chef dogs"), STEM).score("img_park") == \
            pytest.approx(0.9)
        assert s.plan(tokenize("chef dogs"), DETECTOR).score("img_park") == 1.0

    def test_plan_partition_stops_at_tiers(self, scorer):
        tokens = tokenize("man dogs chef")
        mil = partition_query(tokens, scorer.bank, scorer.relatedness, scorer.config,
                              tiers=DETECTOR)
        milstem = partition_query(tokens, scorer.bank, scorer.relatedness,
                                  scorer.config, tiers=STEM)
        assert mil.undetected == {"dogs", "chef"}
        assert milstem.stem_detectable == {"dogs"}
        assert milstem.undetected == {"chef"}
        assert scorer.partition(tokens).related == {
            "chef": {"person", "dish", "kitchen"}}


class TestMilScore:
    def test_product(self, scorer):
        # img_beach: man 0.8, dog 0.6
        assert scorer.plan(tokenize("man dog"), DETECTOR).score("img_beach") == \
            pytest.approx(0.48)

    def test_empty_product_is_one(self, scorer):
        assert scorer.plan(tokenize("chef zebra"), DETECTOR).score("img_beach") == 1.0

    def test_three_factors(self, scorer):
        tokens = tokenize("person dish kitchen")
        score = scorer.plan(tokens, DETECTOR).score("img_kitchen")
        assert score == pytest.approx(0.9 * 0.8 * 0.95)

    def test_repeated_word_counts_once(self, scorer):
        once = scorer.plan(tokenize("dog"), DETECTOR).score("img_beach")
        thrice = scorer.plan(tokenize("dog dog DOG"), DETECTOR).score("img_beach")
        assert once == thrice

    def test_monotone_in_detector_score(self, bank, graph, scorer):
        from cnretrieval import DetectorBank
        raised = dict(bank.scores)
        raised["img_beach"] = {**raised["img_beach"], "dog": 0.9}
        bank2 = DetectorBank.build(bank.vocab, raised)
        tokens = tokenize("man dog")
        assert Scorer(bank2, graph).plan(tokens, DETECTOR).score("img_beach") >= \
            scorer.plan(tokens, DETECTOR).score("img_beach")

    @pytest.mark.parametrize("tiers", [DETECTOR, STEM, KNOWLEDGE])
    @pytest.mark.parametrize("query", ["dog", "dogs", "chef", "zebra"])
    def test_unknown_image_raises_for_every_query(self, scorer, tiers, query):
        plan = scorer.plan(tokenize(query), tiers)
        with pytest.raises(UnknownImageError):
            plan.log_score("nope")
        with pytest.raises(UnknownImageError):
            plan.score("nope")


class TestPairEstimate:
    def test_convex_combination(self, scorer):
        # chef|kitchen: co=1, df[kitchen]=1 -> cond=1.0
        # cond_neg = (2 - 1) / (5 - 1) = 0.25; q = 0.95 on img_kitchen
        value = pair_estimate("chef", "kitchen", "img_kitchen", scorer.bank,
                              scorer.cooccur)
        assert value == pytest.approx(1.0 * 0.95 + 0.25 * 0.05)

    def test_constant_one_collapses_to_detector(self, scorer):
        value = pair_estimate("chef", "kitchen", "img_kitchen", scorer.bank,
                              scorer.cooccur, conditional_estimator="constant_one")
        assert value == stem_max(scorer.bank, "kitchen", "img_kitchen")

    def test_degenerate_convexity(self):
        # equal conditional and negated-conditional collapse to that value
        from cnretrieval import CooccurrenceModel, DetectorBank
        corpus = CooccurrenceModel.build([
            ("i1", ["hotel", "resort"]), ("i2", ["hotel"]),
            ("i3", ["resort"]), ("i4", []),
        ])
        assert corpus.cond_prob("hotel", "resort") == 0.5
        assert corpus.cond_prob_neg("hotel", "resort") == 0.5
        for q in (0.0, 0.25, 0.9):
            bank = DetectorBank.build(["resort"], {"imgA": {"resort": q}})
            value = pair_estimate("hotel", "resort", "imgA", bank, corpus)
            assert value == pytest.approx(0.5)

    def test_requires_stem_detector(self, scorer):
        # a related word without a stem-matching detector yields no estimate
        graph = KnowledgeGraph.from_relations([Relation("RelatedTo", "chef", "zebra", 1.0)])
        plan = Scorer(scorer.bank, graph, scorer.cooccur).plan(tokenize("chef"))
        assert plan.factor_values("img_kitchen") == []

    def test_graph_weight_estimator(self, scorer):
        q = stem_max(scorer.bank, "person", "img_kitchen")
        value = pair_estimate("chef", "person", "img_kitchen", scorer.bank,
                              scorer.cooccur, weight=2.5,
                              conditional_estimator="graph_weight")
        assert value == pytest.approx((2.5 / scorer.graph.max_weight) * q)

    def test_bounded_by_conditionals(self, scorer):
        for image in scorer.bank.images:
            cond = scorer.cooccur.cond_prob("chef", "kitchen")
            cond_neg = scorer.cooccur.cond_prob_neg("chef", "kitchen")
            value = pair_estimate("chef", "kitchen", image, scorer.bank,
                                  scorer.cooccur)
            assert min(cond, cond_neg) - 1e-12 <= value <= max(cond, cond_neg) + 1e-12


class TestAggregateEstimate:
    @pytest.mark.parametrize("aggregator,expected", [
        ("max", 0.8), ("min", 0.2), ("mean_arithmetic", 0.5),
        ("mean_geometric", 0.4),
    ])
    def test_closed_forms(self, aggregator, expected):
        from cnretrieval.scoring import MAX, MEAN_ARITHMETIC, MEAN_GEOMETRIC, MIN
        values = [0.2, 0.8]
        agg = {
            "min": min(values), "max": max(values),
            "mean_arithmetic": sum(values) / 2,
            "mean_geometric": math.sqrt(0.2 * 0.8),
        }[aggregator]
        assert agg == pytest.approx(expected)

    @pytest.mark.parametrize("aggregator", ["min", "max", "mean_arithmetic",
                                            "mean_geometric"])
    def test_singleton_all_agree(self, scorer, aggregator):
        variant = scorer.with_config(aggregator=aggregator)
        [value] = variant.plan(tokenize("tuxedo")).factor_values("img_beach")
        expected = pair_estimate("tuxedo", "jacket", "img_beach", scorer.bank,
                                 scorer.cooccur)
        assert value == pytest.approx(expected)

    def test_empty_relatedness_rejected(self, scorer):
        # a word with no related detectable concept contributes no factor
        assert scorer.plan(tokenize("zebra")).factor_values("img_beach") == []

    def test_aggregator_ordering(self, scorer):
        for image in scorer.bank.images:
            values = {}
            for agg in ("min", "mean_geometric", "mean_arithmetic", "max"):
                variant = scorer.with_config(aggregator=agg)
                [values[agg]] = variant.plan(tokenize("chef")).factor_values(image)
            assert values["min"] <= values["mean_geometric"] + 1e-12
            assert values["mean_geometric"] <= values["mean_arithmetic"] + 1e-12
            assert values["mean_arithmetic"] <= values["max"] + 1e-12


class TestReductionChain:
    def test_cn_equals_milstem_without_cn_words(self, scorer):
        tokens = tokenize("man dogs")
        cn, milstem = scorer.plan(tokens), scorer.plan(tokens, STEM)
        for image in scorer.bank.images:
            assert cn.score(image) == milstem.score(image)

    def test_milstem_equals_mil_without_stem_words(self, scorer):
        tokens = tokenize("man dog")
        milstem, mil = scorer.plan(tokens, STEM), scorer.plan(tokens, DETECTOR)
        for image in scorer.bank.images:
            assert milstem.score(image) == mil.score(image)

    def test_mil_is_one_when_nothing_detectable(self, scorer):
        mil = scorer.plan(tokenize("chef zebra"), DETECTOR)
        for image in scorer.bank.images:
            assert mil.score(image) == 1.0


class TestScoresAgainstOracle:
    def tiny_world(self, bank, graph, corpus, word_classes):
        from conftest import TINY_CORPUS, TINY_EDGES, TINY_SCORES, TINY_VOCAB
        return oracle.World(
            TINY_VOCAB, TINY_SCORES,
            [(r.rel_type, r.start, r.end, r.weight) for r in TINY_EDGES],
            TINY_CORPUS, dict(word_classes.entries),
        )

    @pytest.mark.parametrize("query", [
        "a man in a tuxedo",
        "a chef and his dish",
        "dogs running on grass",
        "a bagel on a plate",
        "zebra chef dogs man",
    ])
    @pytest.mark.parametrize("aggregator", ["min", "max", "mean_arithmetic",
                                            "mean_geometric"])
    def test_all_scores_match(self, scorer, query, aggregator,
                              bank, graph, corpus, word_classes):
        world = self.tiny_world(bank, graph, corpus, word_classes)
        variant = scorer.with_config(aggregator=aggregator)
        tokens = tokenize(query)
        words = [t.surface for t in tokens]
        mil, milstem = variant.plan(tokens, DETECTOR), variant.plan(tokens, STEM)
        cn = variant.plan(tokens)
        for image in bank.images:
            assert mil.score(image) == \
                pytest.approx(oracle.mil(world, words, image), rel=1e-9)
            assert milstem.score(image) == \
                pytest.approx(oracle.milstem(world, words, image), rel=1e-9)
            assert cn.score(image) == \
                pytest.approx(oracle.cn(world, words, image, aggregator=aggregator),
                              rel=1e-9)

    def test_esp_relatedness_matches(self, scorer, bank, graph, corpus, word_classes):
        world = self.tiny_world(bank, graph, corpus, word_classes)
        variant = scorer.with_config(relatedness="corpus-cooccurrence")
        tokens = tokenize("a chef cooking")
        words = [t.surface for t in tokens]
        cn = variant.plan(tokens)
        for image in bank.images:
            assert cn.score(image) == pytest.approx(
                oracle.cn(world, words, image, relatedness="esp"), rel=1e-9)


class TestNumerics:
    def test_log_space_matches_direct_product(self):
        rng = random.Random(23)
        for _ in range(200):
            factors = [rng.uniform(1e-6, 1.0) for _ in range(rng.randint(0, 10))]
            direct = math.prod(factors)
            via_logs = math.exp(log_product(factors, 1e-12))
            assert via_logs == pytest.approx(direct, rel=1e-9)

    def test_zero_factor_clamped(self):
        assert log_product([0.0], 1e-12) == math.log(1e-12)

    def test_scores_stay_in_unit_interval(self, scorer):
        for query in ("a chef", "man dog grass", "dogs running", "tuxedo bagel chef"):
            tokens = tokenize(query)
            for tiers in (DETECTOR, STEM, KNOWLEDGE):
                plan = scorer.plan(tokens, tiers)
                for image in scorer.bank.images:
                    assert 0.0 <= plan.score(image) <= 1.0
