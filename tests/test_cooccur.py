import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnretrieval import CooccurrenceModel, IngestError, parse_tags_jsonl, stem

import oracle
from conftest import stemmed

TAG_POOL = ["dog", "dogs", "cat", "grass", "man", "person", "chef",
            "kitchen", "sky", "tree", "running", "run"]


def random_corpus(rng, max_images=12):
    return [
        (f"img{i}", rng.sample(TAG_POOL, rng.randint(1, 6)))
        for i in range(rng.randint(1, max_images))
    ]


def given_one(tagged, given):
    """The corpus projected onto a vocabulary of one stem, ``given``, so that
    every other stem keeps its co-count with it."""
    return CooccurrenceModel.project(stemmed(tagged), {given})


corpora = st.lists(
    st.sets(st.sampled_from(TAG_POOL), min_size=1, max_size=6).map(sorted),
    min_size=0, max_size=10,
).map(lambda tag_lists: [(f"img{i}", tags) for i, tags in enumerate(tag_lists)])


class TestIngest:
    def test_hand_counts(self):
        model = CooccurrenceModel.project([{"dog", "grass"}, {"dog"}], {"grass"})
        assert model.df["dog"] == 2
        assert model.df["grass"] == 1
        assert model.co_count("dog", "grass") == 1
        assert model.co_counts == {"dog": {"grass": 1}}

    def test_stems_deduplicate(self, tmp_path):
        path = tmp_path / "tags.jsonl"
        path.write_text('{"image": "i1", "tags": ["runs", "Running"]}\n')
        tag_sets = parse_tags_jsonl(path)
        assert tag_sets == {"i1": {"run"}}
        assert CooccurrenceModel.project(tag_sets.values(), {"run"}).df["run"] == 1

    def test_empty_corpus(self):
        model = CooccurrenceModel.project([], {"dog"})
        assert model.n_images == 0
        assert model.df == {}

    def test_duplicate_image_rejected(self, tmp_path):
        path = tmp_path / "tags.jsonl"
        path.write_text('{"image": "i1", "tags": ["dog"]}\n'
                        '{"image": "i1", "tags": ["cat"]}\n')
        with pytest.raises(IngestError, match="2"):
            parse_tags_jsonl(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "tags.jsonl"
        path.write_text('{"image": "i1", "tags": ["dog"]}\nnot json\n')
        with pytest.raises(IngestError, match="2"):
            parse_tags_jsonl(path)

    def test_from_jsonl(self, tiny_files, corpus, bank):
        tag_sets = parse_tags_jsonl(tiny_files["corpus"])
        model = CooccurrenceModel.project(tag_sets.values(), bank.stem_index)
        assert model == corpus
        assert model.n_images == 5
        assert model.df["chef"] == 2


class TestCondProb:
    """Two images tagged {dog, grass} and {dog}; the conditioning stem is
    the vocabulary."""

    @staticmethod
    def model(given):
        return CooccurrenceModel.project([{"dog", "grass"}, {"dog"}], {given})

    def test_dog_given_grass(self):
        assert self.model("grass").cond_prob("dog", "grass") == 1.0

    def test_grass_given_dog(self):
        assert self.model("dog").cond_prob("grass", "dog") == 0.5

    def test_self_conditioning(self):
        assert self.model("dog").cond_prob(stem("dogs"), "dog") == 1.0  # same stem

    def test_unseen_conditioning_word(self):
        assert self.model("zebra").cond_prob("dog", "zebra") == 0.0

    def test_dog_given_not_grass(self):
        assert self.model("grass").cond_prob_neg("dog", "grass") == 1.0

    def test_absent_word_neg(self):
        assert self.model("grass").cond_prob_neg("zebra", "grass") == 0.0

    def test_given_everywhere_neg(self):
        assert self.model("dog").cond_prob_neg("grass", "dog") == 0.0  # dog in every image


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(corpora)
    def test_counts_and_bounds(self, tagged):
        stems = sorted(set().union(*stemmed(tagged)))
        for b in stems:
            model = given_one(tagged, b)
            for a in stems:
                co = model.co_count(a, b)
                assert 0 <= co <= min(model.df[a], model.df[b]) <= model.n_images
                assert 0.0 <= model.cond_prob(a, b) <= 1.0
                assert 0.0 <= model.cond_prob_neg(a, b) <= 1.0
                # symmetric numerators
                assert model.cond_prob(a, b) * model.df[b] == pytest.approx(
                    given_one(tagged, a).cond_prob(b, a) * model.df[a])

    @settings(max_examples=60, deadline=None)
    @given(corpora)
    def test_law_of_total_counts(self, tagged):
        for g in set().union(*stemmed(tagged)):
            model = given_one(tagged, g)
            for w in model.df:
                if 0 < model.df[g] < model.n_images:
                    total = model.cond_prob(w, g) * model.df[g] + \
                        model.cond_prob_neg(w, g) * (model.n_images - model.df[g])
                    assert total == pytest.approx(model.df[w])

    def test_matches_bruteforce(self):
        rng = random.Random(5)
        for _ in range(20):
            tagged = random_corpus(rng)
            vocab = rng.sample(TAG_POOL, rng.randint(1, len(TAG_POOL)))
            detector_stems = {stem(v) for v in vocab}
            model = CooccurrenceModel.project(stemmed(tagged), detector_stems)
            world = oracle.World(vocab, {}, [], tagged)
            # a word with a stem-matching detector never reaches the corpus tier
            words = [w for w in TAG_POOL if stem(w) not in detector_stems]
            for a in rng.sample(words, min(4, len(words))):
                assert set(model.co_occurring(stem(a))) == \
                    oracle.related_detectable(world, a, "esp")
                for b in rng.sample(vocab, min(4, len(vocab))):
                    assert model.cond_prob(stem(a), stem(b)) == oracle.cond_prob(world, a, b)
                    assert model.cond_prob_neg(stem(a), stem(b)) == \
                        oracle.cond_prob_neg(world, a, b)
