import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnretrieval import CooccurrenceModel, IngestError

import oracle
from conftest import stemmed

TAG_POOL = ["dog", "dogs", "cat", "grass", "man", "person", "chef",
            "kitchen", "sky", "tree", "running", "run"]


def random_corpus(rng, max_images=12):
    return [
        (f"img{i}", rng.sample(TAG_POOL, rng.randint(1, 6)))
        for i in range(rng.randint(1, max_images))
    ]


corpora = st.lists(
    st.sets(st.sampled_from(TAG_POOL), min_size=1, max_size=6).map(sorted),
    min_size=0, max_size=10,
).map(lambda tag_lists: [(f"img{i}", tags) for i, tags in enumerate(tag_lists)])


class TestIngest:
    def test_hand_counts(self):
        model = CooccurrenceModel.build([("i1", ["dog", "grass"]), ("i2", ["dog"])])
        assert model.df["dog"] == 2
        assert model.df["grass"] == 1
        assert model.co_count("dog", "grass") == 1

    def test_stems_deduplicate(self, tmp_path):
        path = tmp_path / "tags.jsonl"
        path.write_text('{"image": "i1", "tags": ["runs", "Running"]}\n')
        model = CooccurrenceModel.from_jsonl(path)
        assert model.tag_sets["i1"] == {"run"}
        assert model.df["run"] == 1

    def test_empty_corpus(self):
        model = CooccurrenceModel.build([])
        assert model.n_images == 0
        assert model.df == {}

    def test_duplicate_image_rejected(self):
        with pytest.raises(IngestError):
            CooccurrenceModel.build([("i1", ["dog"]), ("i1", ["cat"])])

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "tags.jsonl"
        path.write_text('{"image": "i1", "tags": ["dog"]}\nnot json\n')
        with pytest.raises(IngestError, match="2"):
            CooccurrenceModel.from_jsonl(path)

    def test_from_jsonl(self, tiny_files):
        model = CooccurrenceModel.from_jsonl(tiny_files["corpus"])
        assert model.n_images == 5
        assert model.df["chef"] == 2


class TestCondProb:
    @pytest.fixture
    def model(self):
        return CooccurrenceModel.build([("i1", ["dog", "grass"]), ("i2", ["dog"])])

    def test_dog_given_grass(self, model):
        assert model.cond_prob("dog", "grass") == 1.0

    def test_grass_given_dog(self, model):
        assert model.cond_prob("grass", "dog") == 0.5

    def test_self_conditioning(self, model):
        assert model.cond_prob("dog", "dogs") == 1.0  # same stem

    def test_unseen_conditioning_word(self, model):
        assert model.cond_prob("dog", "zebra") == 0.0

    def test_dog_given_not_grass(self, model):
        assert model.cond_prob_neg("dog", "grass") == 1.0

    def test_absent_word_neg(self, model):
        assert model.cond_prob_neg("zebra", "grass") == 0.0

    def test_given_everywhere_neg(self, model):
        assert model.cond_prob_neg("grass", "dog") == 0.0  # dog in every image


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(corpora)
    def test_counts_and_bounds(self, tagged):
        model = CooccurrenceModel.build(stemmed(tagged))
        stems = sorted(model.df)
        for a in stems:
            for b in stems:
                co = model.co_count(a, b)
                assert 0 <= co <= min(model.df[a], model.df[b]) <= model.n_images
                assert 0.0 <= model.cond_prob(a, b) <= 1.0
                assert 0.0 <= model.cond_prob_neg(a, b) <= 1.0
                # symmetric numerators
                assert model.cond_prob(a, b) * model.df[b] == pytest.approx(
                    model.cond_prob(b, a) * model.df[a])

    @settings(max_examples=60, deadline=None)
    @given(corpora)
    def test_law_of_total_counts(self, tagged):
        model = CooccurrenceModel.build(stemmed(tagged))
        for w in model.df:
            for g in model.df:
                if 0 < model.df[g] < model.n_images:
                    total = model.cond_prob(w, g) * model.df[g] + \
                        model.cond_prob_neg(w, g) * (model.n_images - model.df[g])
                    assert total == pytest.approx(model.df[w])

    def test_matches_bruteforce(self):
        rng = random.Random(5)
        for _ in range(20):
            tagged = random_corpus(rng)
            model = CooccurrenceModel.build(stemmed(tagged))
            world = oracle.World([], {}, [], tagged)
            for a in rng.sample(TAG_POOL, 4):
                for b in rng.sample(TAG_POOL, 4):
                    assert model.cond_prob(a, b) == oracle.cond_prob(world, a, b)
                    assert model.cond_prob_neg(a, b) == oracle.cond_prob_neg(world, a, b)
