import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnretrieval import (
    CooccurrenceModel,
    IngestError,
    KnowledgeGraph,
    Relation,
    ScoreConfig,
    Scorer,
    parse_relations_csv,
    stem,
    tokenize,
)

import oracle
from conftest import TINY_CORPUS, TINY_EDGES, stemmed

WORDS = ("dog", "cat", "pen", "chef", "kitchen", "sofa", "jacket", "bread", "hotel",
         "resort")


def random_graph(rng, words=WORDS):
    relations = []
    for _ in range(rng.randint(5, 25)):
        start, end = rng.sample(words, 2)
        relations.append(Relation(start, end, round(rng.uniform(0, 4), 2)))
    return relations


def every_stem(relations):
    """Stems of every single-word endpoint."""
    return {stem(w) for r in relations for w in (r.start, r.end) if " " not in w}


def neighbors(graph, word, min_weight=1.0):
    return set(graph.neighbors(stem(word), min_weight))


def all_neighbors(relations, word, min_weight=1.0, extra=()):
    """Neighbors of ``word`` in the graph projected onto every endpoint stem
    but its own (a word with a detector has no row), plus ``extra``: a
    vocabulary that hides none of its neighbors."""
    detector_stems = every_stem(relations) - {stem(word)} | set(extra)
    return neighbors(KnowledgeGraph.project(relations, detector_stems), word, min_weight)


class TestNeighbors:
    def test_tuxedo_jacket(self, graph):
        assert graph.neighbors("tuxedo", 1.0) == {"jacket": "jacket"}

    def test_chef_neighborhood(self, graph):
        assert neighbors(graph, "chef") == {"person", "dish", "kitchen"}

    def test_no_edges(self, graph):
        assert graph.neighbors("zebra", 1.0) == {}

    def test_symmetric_direction(self):
        assert "chef" in all_neighbors(TINY_EDGES, "kitchen")
        assert "kitchen" in all_neighbors(TINY_EDGES, "chef")

    def test_stem_equal_noise_dropped(self):
        relations = TINY_EDGES + [Relation("pens", "pen", 9.0)]
        assert all_neighbors(relations, "pen", 0.0) == set()
        # nor does a stem-equal edge count towards the graph-weight normaliser
        graph = KnowledgeGraph.project(relations, every_stem(relations) - {"pen"})
        assert graph.max_weight == 2.5

    def test_multiword_concepts_excluded(self):
        multiword = {"piece of furniture", "mixing bowl"}
        assert all_neighbors(TINY_EDGES, "sofa", 0.0, multiword) == set()
        assert "mixing bowl" not in all_neighbors(TINY_EDGES, "chef", 0.0, multiword)

    def test_lookup_goes_through_stems(self, scorer):
        [chefs] = scorer.plan(tokenize("chefs")).factors
        [chef] = scorer.plan(tokenize("chef")).factors
        assert (chefs.related, chefs.terms) == (chef.related, chef.terms)

    def test_min_weight_antitone(self):
        rng = random.Random(11)
        for _ in range(25):
            relations = random_graph(rng)
            for word in ("dog", "chef", "pen", "sofa"):
                assert all_neighbors(relations, word, 2.0) <= \
                    all_neighbors(relations, word, 0.5)

    def test_matches_bruteforce(self):
        rng = random.Random(17)
        for _ in range(25):
            relations = random_graph(rng)
            vocab = rng.sample(WORDS, rng.randint(1, len(WORDS)))
            detector_stems = {stem(v) for v in vocab}
            graph = KnowledgeGraph.project(relations, detector_stems)
            world = oracle.World(vocab, {}, [("RelatedTo", *r) for r in relations], [])
            # a word with a stem-matching detector never reaches the graph tier
            words = [w for w in WORDS if stem(w) not in detector_stems]
            for min_weight in (0.0, 1.0, 2.5):
                for word in words:
                    assert neighbors(graph, word, min_weight) == \
                        oracle.related_detectable(world, word, min_weight=min_weight)
                    for c, s in graph.neighbors(stem(word), min_weight).items():
                        assert s == stem(c)
                        assert graph.edge_weight(stem(word), s, min_weight) == \
                            oracle.edge_weight(world, word, c, min_weight)


STEM_FAMILIES = ["dog", "dogs", "dogged", "run", "runs", "running", "runner",
                 "chef", "chefs", "kitchen", "kitchens", "pen", "pens"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(STEM_FAMILIES), st.sampled_from(STEM_FAMILIES),
                          st.sampled_from([0.5, 1.0, 2.0])), max_size=25))
def test_no_neighbor_shares_the_word_stem(edges):
    relations = [Relation(*e) for e in edges]
    for word in STEM_FAMILIES:
        assert all(stem(c) != stem(word) for c in all_neighbors(relations, word, 0.0))


class TestCnDet:
    def test_filters_to_detectable(self, bank):
        g = KnowledgeGraph.project([
            Relation("tuxedo", "jacket", 1.5),
            Relation("tuxedo", "prom", 1.0),
        ], bank.stem_index)
        assert neighbors(g, "tuxedo") == {"jacket"}

    def test_none_detectable(self, bank):
        g = KnowledgeGraph.project([Relation("ghost", "spirit", 1.0)],
                                   bank.stem_index)
        assert neighbors(g, "ghost") == set()
        assert g.rows == {}

    def test_bagel_via_doughnut_and_bread(self, graph):
        assert neighbors(graph, "bagel") == {"doughnut", "bread"}


def co_occurring(corpus, word):
    return set(corpus.co_occurring(stem(word)))


class TestEspRelated:
    def test_cooccurring_tag(self):
        corpus = CooccurrenceModel.project(stemmed(TINY_CORPUS), {"grass"})
        assert "grass" in co_occurring(corpus, "dog")

    def test_absent_word(self, corpus):
        assert corpus.co_occurring("zebra") == {}

    def test_hotel_resort(self, corpus):
        # "resort" has no detector in the tiny vocabulary, so it takes one
        assert co_occurring(corpus, "hotel") == set()
        with_resort = CooccurrenceModel.project(stemmed(TINY_CORPUS), {"resort"})
        assert with_resort.co_occurring("hotel") == {"resort": "resort"}

    def test_symmetric(self):
        tags = {"dog", "grass", "man", "person", "chef", "kitchen", "dish"}

        def related(a, b):
            # ``a`` without a detector, every other tag with one
            corpus = CooccurrenceModel.project(stemmed(TINY_CORPUS),
                                               {stem(t) for t in tags - {a}})
            return b in co_occurring(corpus, a)

        found = 0
        for a in tags:
            for b in tags:
                assert related(a, b) == related(b, a)
                found += related(a, b)
        assert found == 16  # 8 co-occurring pairs, each both ways

    def test_excludes_own_stem(self, corpus):
        assert "dog" not in co_occurring(corpus, "dogs")


class TestIngestCsv:
    def test_round_trip(self, tiny_files, graph, bank):
        relations = parse_relations_csv(tiny_files["graph"])
        assert relations == TINY_EDGES
        assert KnowledgeGraph.project(relations, bank.stem_index) == graph

    def test_underscores_become_spaces(self, tiny_files, bank):
        relations = parse_relations_csv(tiny_files["graph"])
        assert ("sofa", "piece of furniture", 3.0) in relations
        loaded = KnowledgeGraph.project(relations, bank.stem_index.keys() |
                                        {"piece of furniture", "mixing bowl"})
        # the multiword concepts are dropped, so no retained edge has a space
        assert loaded.rows
        assert all(" " not in c for row in loaded.rows.values() for c, _, _ in row)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("a,b,c\nIsA,x,y,1\n")
        with pytest.raises(IngestError):
            parse_relations_csv(path)

    def test_bad_weight_names_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("rel_type,start,end,weight\nIsA,x,y,heavy\n")
        with pytest.raises(IngestError, match="2"):
            parse_relations_csv(path)

    def test_empty_concept_rejected_at_parse(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("rel_type,start,end,weight\nIsA,x,y,1\nRelatedTo,,cat,0.5\n")
        with pytest.raises(IngestError, match=re.escape(f"{path}:3: empty concept")):
            parse_relations_csv(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_weight_rejected_at_parse(self, tmp_path, weight):
        path = tmp_path / "e.csv"
        path.write_text(f"rel_type,start,end,weight\nIsA,x,y,{weight}\n")
        with pytest.raises(IngestError, match=re.escape(f"{path}:2:")):
            parse_relations_csv(path)

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("rel_type,start,end,weight\nIsA,x,y,-1\n")
        with pytest.raises(IngestError):
            parse_relations_csv(path)


class TestProjection:
    def test_rows_hold_best_weight_and_stem(self, bank):
        graph = KnowledgeGraph.project([
            Relation("chef", "person", 1.0),
            Relation("person", "chefs", 2.5),
            Relation("chef", "dogs", 0.5),
        ], bank.stem_index)
        assert graph.rows["chef"] == (("dogs", "dog", 0.5), ("person", "person", 2.5))
        assert graph.max_weight == 2.5
        assert graph.neighbors("chef", 1.0) == {"person": "person"}
        assert graph.edge_weight("chef", "dog", 1.0) == 0.0
        assert graph.edge_weight("chef", "dog", 0.5) == 0.5

    def test_detector_stems_get_no_row(self, bank):
        # a word whose stem has a detector is scored in the stem tier
        graph = KnowledgeGraph.project([Relation("dogs", "grass", 1.0),
                                        Relation("chef", "dog", 1.0)],
                                       bank.stem_index)
        assert set(graph.rows) == {"chef"}
        corpus = CooccurrenceModel.project([{"dog", "grass", "chef"}], bank.stem_index)
        assert corpus.co_counts == {"chef": {"dog": 1, "grass": 1}}
        assert corpus.df == {"chef": 1, "dog": 1, "grass": 1}

    def test_max_weight_counts_edges_without_detectors(self, bank):
        graph = KnowledgeGraph.project([
            Relation("chef", "person", 1.0),
            Relation("ghost", "spirit", 3.0),
        ], bank.stem_index)
        assert graph.max_weight == 3.0

    def test_all_zero_weights_normalise_by_one(self, bank):
        graph = KnowledgeGraph.project([Relation("chef", "person", 0.0)],
                                       bank.stem_index)
        assert graph.max_weight == 1.0
        assert graph.neighbors("chef", 0.0) == {"person": "person"}


class TestRelatedWords:
    """A knowledge-tier factor reads its related words from the configured source."""

    def test_graph_variant(self, scorer):
        [chef] = scorer.plan(tokenize("chef")).factors
        assert set(chef.related) == {"person", "dish", "kitchen"}
        [strict] = scorer.with_config(min_weight=2.0).plan(tokenize("chef")).factors
        assert strict.related == ("kitchen", "person")
        assert [stem_class for stem_class, _, _ in strict.terms] == [("kitchen",),
                                                                    ("person",)]

    def test_corpus_variant(self, scorer):
        esp = scorer.with_config(relatedness="corpus-cooccurrence")
        [chef] = esp.plan(tokenize("chef")).factors
        assert set(chef.related) == {"person", "kitchen", "dish"}

    def test_requires_backing_source(self, bank, graph, corpus):
        with pytest.raises(ValueError, match="graph"):
            Scorer(bank, cooccur=corpus).plan(tokenize("chef"))
        with pytest.raises(ValueError, match="co-occurrence"):
            Scorer(bank, graph, config=ScoreConfig(relatedness="corpus-cooccurrence",
                                                   conditional_estimator="constant_one")
                   ).plan(tokenize("chef"))
        with pytest.raises(ValueError):
            ScoreConfig(relatedness="nope")
