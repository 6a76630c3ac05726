import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    UnknownImageError,
    stem,
    stem_set,
    tokenize,
)
from cnretrieval.scoring import log_product

import oracle


def pair_estimate(word, related, image, bank, cooccur, weight=1.0, **config):
    """Estimate of ``word``'s presence through ``related`` alone: the only
    factor of the one-word query when the graph has just the edge between them."""
    graph = KnowledgeGraph.project([Relation(word, related, weight)], bank.stem_index)
    scorer = Scorer(bank, graph, cooccur, config=ScoreConfig(**config))
    [factor] = scorer.plan(tokenize(word)).factor_values(image)
    return factor


def tier_words(plan, tier):
    """The words ``plan`` scores in ``tier``."""
    return {f.word for f in plan.factors if f.tier == tier}


def undetected(plan, tokens):
    """The words of ``tokens`` that ``plan`` leaves without a factor."""
    return {t.surface for t in tokens} - {f.word for f in plan.factors}


def stem_max(bank, word, image):
    """Best detector score among the vocabulary words sharing ``word``'s stem."""
    return max(bank.row(image).get(w, 0.0) for w in bank.stem_index[stem(word)])


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
        tokens = tokenize("a chef and his dish")
        plan = scorer.plan(tokens)
        assert tier_words(plan, DETECTOR) == {"dish"}
        assert tier_words(plan, KNOWLEDGE) == {"chef"}
        # "a", "and", "his" are stopwords with no detector: undetected
        assert undetected(plan, tokens) == {"a", "and", "his"}

    def test_stem_detectable(self, scorer):
        assert tier_words(scorer.plan(tokenize("dogs")), STEM) == {"dogs"}

    def test_fully_unknown_word(self, scorer):
        tokens = tokenize("zebra")
        assert undetected(scorer.plan(tokens), tokens) == {"zebra"}

    def test_tiers_are_disjoint_and_cover(self, scorer):
        tokens = tokenize("a man runs with his dogs near the chef tuxedo zebra")
        plan = scorer.plan(tokens)
        words = [f.word for f in plan.factors]
        assert len(words) == len(set(words))
        assert set(words) | undetected(plan, tokens) == {t.surface for t in tokens}
        # sum order: sorted detector words, sorted stem words, sorted knowledge words
        assert [(f.tier, f.word) for f in plan.factors] == [
            (DETECTOR, "man"), (DETECTOR, "runs"), (STEM, "dogs"),
            (KNOWLEDGE, "chef"), (KNOWLEDGE, "tuxedo")]

    def test_stopword_gate_only_affects_cn_tier(self, bank, graph, corpus):
        # "in" gets a graph edge; with the filter on it stays undetected
        g = KnowledgeGraph.project([Relation("in", "dog", 1.0)], bank.stem_index)
        on = Scorer(bank, g, corpus).plan(tokenize("in"))
        off = Scorer(bank, g, corpus, config=ScoreConfig(stopword_filter=False)) \
            .plan(tokenize("in"))
        assert undetected(on, tokenize("in")) == {"in"}
        assert tier_words(off, KNOWLEDGE) == {"in"}

    def test_noun_only_gate(self, scorer, bank, graph, corpus):
        from cnretrieval import WordClassMap
        nn = scorer.with_config(noun_only=True)
        assert tier_words(nn.plan(tokenize("chef")), KNOWLEDGE) == {"chef"}
        relabeled = Scorer(bank, graph, corpus,
                           WordClassMap(entries={"chef": "verb"}),
                           ScoreConfig(noun_only=True))
        assert relabeled.plan(tokenize("chef")).factors == ()

    def test_noun_only_requires_class_map(self, bank, graph, corpus):
        s = Scorer(bank, graph, corpus, None, ScoreConfig(noun_only=True))
        with pytest.raises(ValueError):
            s.plan(tokenize("chef"))
        # the detector and stem tiers never consult word classes
        assert s.plan(tokenize("chef dogs"), STEM).score("img_park") == \
            pytest.approx(0.9)
        assert s.plan(tokenize("chef dogs"), DETECTOR).score("img_park") == 1.0

    def test_plan_partition_stops_at_tiers(self, scorer):
        tokens = tokenize("man dogs chef")
        mil, milstem = scorer.plan(tokens, DETECTOR), scorer.plan(tokens, STEM)
        assert undetected(mil, tokens) == {"dogs", "chef"}
        assert tier_words(milstem, STEM) == {"dogs"}
        assert undetected(milstem, tokens) == {"chef"}
        [chef] = [f for f in scorer.plan(tokens).factors if f.tier == KNOWLEDGE]
        assert chef.word == "chef"
        assert chef.related == ("dish", "kitchen", "person")
        assert [stem_class for stem_class, _, _ in chef.terms] == [
            ("dish",), ("kitchen",), ("person",)]

    def test_detector_and_stem_plans_need_no_knowledge_source(self, bank):
        scorer = Scorer(bank)
        tokens = tokenize("man dogs chef")
        assert scorer.plan(tokens, DETECTOR).score("img_beach") == pytest.approx(0.8)
        assert scorer.plan(tokens, STEM).score("img_beach") == pytest.approx(0.8 * 0.6)
        with pytest.raises(ValueError, match="graph"):
            scorer.plan(tokens)  # the knowledge tier needs its source


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
        corpus = CooccurrenceModel.project(
            [{"hotel", "resort"}, {"hotel"}, {"resort"}, set()], {"resort"})
        assert corpus.cond_prob("hotel", "resort") == 0.5
        assert corpus.cond_prob_neg("hotel", "resort") == 0.5
        for q in (0.0, 0.25, 0.9):
            bank = DetectorBank.build(["resort"], {"imgA": {"resort": q}})
            value = pair_estimate("hotel", "resort", "imgA", bank, corpus)
            assert value == pytest.approx(0.5)

    def test_requires_stem_detector(self, scorer):
        # a related word without a stem-matching detector yields no estimate
        graph = KnowledgeGraph.project([Relation("chef", "zebra", 1.0)],
                                       scorer.bank.stem_index)
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
            [("RelatedTo", *r) for r in TINY_EDGES],
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


class TestMinWeight:
    def test_with_config_applies_min_weight(self, scorer, bank, graph, corpus):
        tokens = tokenize("chef")
        [default] = scorer.plan(tokens).factors
        [strict] = scorer.with_config(min_weight=2.0).plan(tokens).factors
        assert len(default.terms) == 3  # person 2.5, kitchen 2.0, dish 1.0
        assert len(strict.terms) == 2
        fresh = Scorer(bank, graph, corpus, config=ScoreConfig(min_weight=2.0))
        assert fresh.plan(tokens).factors == \
            scorer.with_config(min_weight=2.0).plan(tokens).factors

    def test_graph_weight_of_tag_partners_skips_lighter_edges(self, scorer):
        # chef co-occurs with person, kitchen and dish; its edges weigh 2.5, 2.0, 1.0
        variant = scorer.with_config(relatedness="corpus-cooccurrence",
                                     conditional_estimator="graph_weight", min_weight=2.0)
        [factor] = variant.plan(tokenize("chef")).factors
        assert [(stem_class, c1) for stem_class, c1, _ in factor.terms] == [
            (("dish",), 0.0), (("kitchen",), 2.0 / 2.5), (("person",), 1.0)]

    def test_threshold_above_every_edge_leaves_no_graph_tier(self, scorer):
        assert scorer.with_config(min_weight=3.0).plan(tokenize("chef")).factors == ()

    def test_partition_reads_the_threshold_from_the_config(self, bank, graph, corpus):
        tokens = tokenize("chef")
        assert Scorer(bank, graph, corpus, config=ScoreConfig(min_weight=3.0)) \
            .plan(tokens).factors == ()
        [factor] = Scorer(bank, graph, corpus, config=ScoreConfig(min_weight=2.0)) \
            .plan(tokens).factors
        assert set(factor.related) == {"person", "kitchen"}


#: "bakeseseseseseseseseseseses" and "bakeseseses" take 12 and 4 Porter passes
#: to reach their stem "bake": a query word, edge endpoint or tag may need many
#: passes to meet its detector
WORLD_WORDS = ["dog", "dogs", "cat", "man", "person", "kitchen", "dish", "grass",
               "run", "running", "bake", "chef", "tuxedo", "bagel", "hotel", "resort",
               "bakeseseseseseseseseseseses", "bakeseseses", "in"]
VOCAB_WORDS = ["dog", "cat", "man", "person", "kitchen", "dish", "grass", "run",
               "running", "bake"]


@st.composite
def tiny_worlds(draw):
    vocab = draw(st.lists(st.sampled_from(VOCAB_WORDS), min_size=1, max_size=6,
                          unique=True))
    scores = {
        f"i{k}": draw(st.dictionaries(st.sampled_from(vocab),
                                      st.sampled_from([0.0, 0.1, 0.35, 0.8, 1.0]),
                                      max_size=len(vocab)))
        for k in range(draw(st.integers(1, 3)))
    }
    edges = draw(st.lists(st.tuples(st.just("RelatedTo"), st.sampled_from(WORLD_WORDS),
                                    st.sampled_from(WORLD_WORDS),
                                    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
                          max_size=15))
    corpus = [(f"e{k}", tags) for k, tags in enumerate(draw(st.lists(
        st.lists(st.sampled_from(WORLD_WORDS), min_size=1, max_size=5, unique=True),
        max_size=8)))]
    query = draw(st.lists(st.sampled_from(WORLD_WORDS), min_size=1, max_size=5,
                          unique=True))
    return oracle.World(vocab, scores, edges, corpus), " ".join(query)


@settings(max_examples=60, deadline=None)
@given(tiny_worlds(), st.sampled_from(["min", "max", "mean_arithmetic", "mean_geometric"]))
def test_projected_plans_match_oracle(world_and_query, aggregator):
    world, query = world_and_query
    bank = DetectorBank.build(world.vocab, world.scores)
    graph = KnowledgeGraph.project([Relation(*e[1:]) for e in world.edges],
                                   bank.stem_index)
    corpus = CooccurrenceModel.project((stem_set(tags) for _, tags in world.corpus),
                                       bank.stem_index)
    tokens = tokenize(query)
    words = [t.surface for t in tokens]
    for relatedness, source in (("graph", "graph"), ("corpus-cooccurrence", "esp")):
        for estimator in ("corpus", "constant_one", "graph_weight"):
            for min_weight in (0.0, 1.0, 2.0, 3.0):
                scorer = Scorer(bank, graph, corpus, config=ScoreConfig(
                    aggregator=aggregator, relatedness=relatedness,
                    conditional_estimator=estimator, min_weight=min_weight))
                plan = scorer.plan(tokens)
                tiers = oracle.partition(world, words, source, min_weight)
                assert [tier_words(plan, DETECTOR), tier_words(plan, STEM),
                        tier_words(plan, KNOWLEDGE), undetected(plan, tokens)] == \
                    list(tiers)
                for f in plan.factors:
                    if f.tier == KNOWLEDGE:
                        assert set(f.related) == oracle.related_detectable(
                            world, f.word, source, min_weight)
                for image in world.images:
                    assert plan.score(image) == pytest.approx(oracle.cn(
                        world, words, image, aggregator, source, estimator, min_weight),
                        rel=1e-9, abs=1e-300)


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
