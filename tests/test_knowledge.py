import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnretrieval import (
    IngestError,
    KnowledgeGraph,
    Relation,
    RelatednessSource,
    parse_relations_csv,
    stem,
)

import oracle
from conftest import TINY_EDGES


def random_graph(rng, words=("dog", "cat", "pen", "chef", "kitchen", "sofa",
                             "jacket", "bread", "hotel", "resort")):
    relations = []
    rel_types = ["IsA", "AtLocation", "RelatedTo", "Antonym", "UsedFor"]
    for _ in range(rng.randint(5, 25)):
        start, end = rng.sample(words, 2)
        relations.append(Relation(rng.choice(rel_types), start, end,
                                  round(rng.uniform(0, 4), 2)))
    return relations


class TestNeighbors:
    def test_tuxedo_jacket(self, graph):
        assert graph.neighbors("tuxedo") == {"jacket"}

    def test_chef_neighborhood(self, graph):
        assert graph.neighbors("chef") == {"person", "dish", "kitchen"}

    def test_no_edges(self, graph):
        assert graph.neighbors("zebra") == frozenset()

    def test_symmetric_direction(self, graph):
        assert "chef" in graph.neighbors("kitchen")

    def test_stem_equal_noise_dropped(self, graph):
        assert graph.neighbors("pen") == frozenset()

    def test_multiword_concepts_excluded(self, graph):
        assert "piece of furniture" not in graph.neighbors("sofa")
        assert "mixing bowl" not in graph.neighbors("chef")

    def test_lookup_goes_through_stems(self, graph):
        assert graph.neighbors("chefs") == graph.neighbors("chef")

    def test_min_weight_antitone(self):
        rng = random.Random(11)
        for _ in range(25):
            relations = random_graph(rng)
            low = KnowledgeGraph.from_relations(relations, min_weight=0.5)
            high = KnowledgeGraph.from_relations(relations, min_weight=2.0)
            for word in ("dog", "chef", "pen", "sofa"):
                assert high.neighbors(word) <= low.neighbors(word)

    def test_rel_type_restriction_antitone(self):
        rng = random.Random(13)
        for _ in range(25):
            relations = random_graph(rng)
            full = KnowledgeGraph.from_relations(relations, min_weight=0.0)
            isa_only = KnowledgeGraph.from_relations(
                relations, min_weight=0.0, allowed_rel_types={"IsA"})
            for word in ("dog", "chef", "hotel"):
                assert isa_only.neighbors(word) <= full.neighbors(word)

    def test_matches_bruteforce(self):
        rng = random.Random(17)
        for _ in range(25):
            relations = random_graph(rng)
            graph = KnowledgeGraph.from_relations(relations, min_weight=1.0)
            world = oracle.World([], {}, [(r.rel_type, r.start, r.end, r.weight)
                                          for r in relations], [])
            for word in ("dog", "cat", "chef", "kitchen"):
                assert graph.neighbors(word) == oracle.neighbors(world, word)


STEM_FAMILIES = ["dog", "dogs", "dogged", "run", "runs", "running", "runner",
                 "chef", "chefs", "kitchen", "kitchens", "pen", "pens"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["IsA", "RelatedTo"]),
                          st.sampled_from(STEM_FAMILIES), st.sampled_from(STEM_FAMILIES),
                          st.sampled_from([0.5, 1.0, 2.0])), max_size=25))
def test_no_neighbor_shares_the_word_stem(edges):
    graph = KnowledgeGraph.from_relations([Relation(*e) for e in edges], min_weight=0.0)
    for word in STEM_FAMILIES:
        assert all(stem(c) != stem(word) for c in graph.neighbors(word))


def cn_det(graph, word, bank):
    return RelatednessSource(variant="graph", graph=graph).related_detectable(word, bank)


class TestCnDet:
    def test_filters_to_detectable(self, bank):
        g = KnowledgeGraph.from_relations([
            Relation("IsA", "tuxedo", "jacket", 1.5),
            Relation("RelatedTo", "tuxedo", "prom", 1.0),
        ])
        assert cn_det(g, "tuxedo", bank) == {"jacket"}

    def test_none_detectable(self, bank):
        g = KnowledgeGraph.from_relations([Relation("IsA", "ghost", "spirit", 1.0)])
        assert cn_det(g, "ghost", bank) == frozenset()

    def test_bagel_via_doughnut_and_bread(self, graph, bank):
        assert cn_det(graph, "bagel", bank) == {"doughnut", "bread"}


class TestEspRelated:
    def test_cooccurring_tag(self, corpus):
        assert "grass" in corpus.co_occurring("dog")

    def test_absent_word(self, corpus):
        assert corpus.co_occurring("zebra") == frozenset()

    def test_hotel_resort(self, corpus):
        assert "resort" in corpus.co_occurring("hotel")

    def test_symmetric(self, corpus):
        tags = {"dog", "grass", "man", "person", "chef", "kitchen", "dish"}
        for a in tags:
            for b in tags:
                assert (b in corpus.co_occurring(a)) == (a in corpus.co_occurring(b))

    def test_excludes_own_stem(self, corpus):
        assert "dog" not in corpus.co_occurring("dogs")


class TestIngestCsv:
    def test_round_trip(self, tiny_files, graph):
        loaded = KnowledgeGraph.from_csv(tiny_files["graph"], min_weight=1.0)
        assert loaded.neighbors("chef") == graph.neighbors("chef")
        assert loaded.adjacency == graph.adjacency
        assert loaded.edge_weights == graph.edge_weights
        assert parse_relations_csv(tiny_files["graph"]) == TINY_EDGES

    def test_underscores_become_spaces(self, tiny_files):
        relations = parse_relations_csv(tiny_files["graph"])
        assert ("IsA", "sofa", "piece of furniture", 3.0) in relations
        loaded = KnowledgeGraph.from_relations(relations)
        # the multiword concepts are dropped, so no retained edge has a space
        assert all(" " not in c for ns in loaded.adjacency.values() for c in ns)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("a,b,c\nIsA,x,y,1\n")
        with pytest.raises(IngestError):
            KnowledgeGraph.from_csv(path)

    def test_bad_weight_names_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("rel_type,start,end,weight\nIsA,x,y,heavy\n")
        with pytest.raises(IngestError, match="2"):
            KnowledgeGraph.from_csv(path)

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
            KnowledgeGraph.from_csv(path)


class TestRelatednessSource:
    def test_graph_variant(self, graph, bank):
        src = RelatednessSource(variant="graph", graph=graph)
        assert src.related_detectable("chef", bank) == {"person", "dish", "kitchen"}

    def test_corpus_variant(self, corpus, bank):
        src = RelatednessSource(variant="corpus-cooccurrence", corpus=corpus)
        assert "grass" in src.related_detectable("dog", bank)

    def test_requires_backing_source(self, graph):
        with pytest.raises(ValueError):
            RelatednessSource(variant="graph")
        with pytest.raises(ValueError):
            RelatednessSource(variant="nope", graph=graph)
