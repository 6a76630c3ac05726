import json
import random

import pytest

from cnretrieval import (
    STEM,
    DetectorBank,
    IngestError,
    KnowledgeGraph,
    Scorer,
    UnknownImageError,
    stem,
    tokenize,
)


class TestDetectorScore:
    def test_stored_score(self, bank):
        assert bank.row("img_kitchen")["person"] == 0.9

    def test_missing_entry_is_zero(self, bank):
        assert bank.row("img_kitchen").get("dog", 0.0) == 0.0

    def test_word_outside_vocab(self, bank):
        assert not bank.is_detectable("chef")
        assert all("chef" not in bank.row(image) for image in bank.images)

    def test_unknown_image(self, bank):
        with pytest.raises(UnknownImageError):
            bank.row("nope")


def st_det(bank, word):
    """ST_DET(word): the vocabulary words sharing ``word``'s stem."""
    return bank.stem_index.get(stem(word), frozenset())


class TestStDet:
    def test_stem_match(self, bank):
        assert st_det(bank, "dogs") == {"dog"}

    def test_no_match(self, bank):
        assert st_det(bank, "chef") == frozenset()

    def test_multiple_variants(self, bank):
        assert st_det(bank, "run") == {"runs", "running"}

    def test_vocab_word_in_own_class(self, bank):
        assert "dog" in st_det(bank, "dog")


def stem_max_estimate(bank, word, image):
    """The stem-tier estimate of one word: the only factor of its one-word
    MILSTEM plan; None when the word has no stem-matching detector."""
    scorer = Scorer(bank, KnowledgeGraph())
    values = scorer.plan(tokenize(word), STEM).factor_values(image)
    return values[0] if values else None


class TestStemMaxEstimate:
    def test_singleton_class(self, bank):
        assert stem_max_estimate(bank, "dogs", "img_park") == 0.9

    def test_max_over_class(self, bank):
        # runs: 0.2, running: 0.5 on img_park
        assert stem_max_estimate(bank, "run", "img_park") == 0.5

    def test_all_scores_absent(self, bank):
        assert stem_max_estimate(bank, "dogs", "img_abbey") == 0.0

    def test_empty_stem_class_rejected(self, bank):
        assert stem_max_estimate(bank, "chef", "img_kitchen") is None

    def test_dominates_every_member(self, bank):
        for image in bank.images:
            est = stem_max_estimate(bank, "run", image)
            for w in st_det(bank, "run"):
                assert est >= bank.row(image).get(w, 0.0)

    def test_invariant_under_vocab_reorder(self, bank):
        rng = random.Random(7)
        vocab = list(bank.vocab)
        rng.shuffle(vocab)
        shuffled = DetectorBank.build(vocab, bank.scores)
        for image in bank.images:
            assert stem_max_estimate(shuffled, "run", image) == \
                stem_max_estimate(bank, "run", image)


class TestIngest:
    def test_from_jsonl(self, tiny_files, bank):
        loaded = DetectorBank.from_jsonl(tiny_files["detectors"])
        assert loaded.vocab == bank.vocab
        assert loaded.row("img_beach")["man"] == 0.8

    def test_score_outside_vocab_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"vocab": ["dog"]}) + "\n" +
                        json.dumps({"image": "i1", "scores": {"cat": 0.5}}) + "\n")
        with pytest.raises(IngestError):
            DetectorBank.from_jsonl(path)

    def test_score_out_of_range_rejected(self):
        with pytest.raises(IngestError):
            DetectorBank.build(["dog"], {"i1": {"dog": 1.5}})

    def test_duplicate_image_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"vocab": ["dog"]}) + "\n" +
                        json.dumps({"image": "i1", "scores": {}}) + "\n" +
                        json.dumps({"image": "i1", "scores": {}}) + "\n")
        with pytest.raises(IngestError, match="3"):
            DetectorBank.from_jsonl(path)

    def test_corrupt_line_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"vocab": ["dog"]}) + "\n{not json\n")
        with pytest.raises(IngestError, match="2"):
            DetectorBank.from_jsonl(path)

    def test_stem_index_partitions_vocab(self, bank):
        covered = set()
        for s, ws in bank.stem_index.items():
            for w in ws:
                assert stem(w) == s
                covered.add(w)
        assert covered == set(bank.vocab)
