import string
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cnretrieval import IngestError, WordClassMap, stem, stem_set, tokenize
from cnretrieval.text import OTHER

words = st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz"),
                min_size=1, max_size=15)


class TestStem:
    def test_run_family_collapses(self):
        assert stem("running") == "run"
        assert stem("runs") == "run"
        assert stem("run") == "run"

    def test_bowling_becomes_bowl(self):
        assert stem("bowling") == "bowl"

    def test_plural(self):
        assert stem("dogs") == "dog"

    @given(words)
    @example("bakeseseseseseseseseseseses")  # 12 passes
    @example("ormsfulizeeedingesericicment")  # 11 passes
    def test_idempotent(self, w):
        assert stem(stem(w)) == stem(w)

    def test_long_chain_reaches_its_fixpoint_quickly(self):
        word = "bake" + "se" * 10000 + "s"  # 10,001 passes
        start = time.perf_counter()
        assert stem(word) == "bake"
        assert time.perf_counter() - start < 5.0

    @given(words)
    def test_never_grows(self, w):
        assert len(stem(w)) <= len(w)


class TestStemSet:
    def test_collapses_variants(self):
        assert stem_set({"run", "runs", "running"}) == {"run"}

    def test_empty(self):
        assert stem_set(set()) == frozenset()

    def test_already_stems(self):
        assert stem_set({"dog", "cat"}) == {"dog", "cat"}

    @given(st.sets(words), st.sets(words))
    def test_distributes_over_union(self, a, b):
        assert stem_set(a | b) == stem_set(a) | stem_set(b)

    @given(st.sets(words))
    def test_never_larger(self, s):
        assert len(stem_set(s)) <= len(s)


class TestTokenize:
    def test_sentence(self):
        assert {t.surface for t in tokenize("A man in a tuxedo.")} == \
            {"a", "man", "in", "tuxedo"}

    def test_empty(self):
        assert tokenize("") == []

    def test_dedup_and_lowercase(self):
        assert {t.surface for t in tokenize("Two dogs, two DOGS")} == {"two", "dogs"}

    def test_tokens_carry_stems(self):
        (token,) = tokenize("running")
        assert token.stem == "run"

    def test_surfaces_have_no_edge_punctuation(self):
        for token in tokenize('"Hello," she said -- loudly!'):
            assert not token.surface[0] in string.punctuation
            assert not token.surface[-1] in string.punctuation

    @given(st.lists(words))
    def test_order_independent_as_set(self, ws):
        forward = {t.surface for t in tokenize(" ".join(ws))}
        backward = {t.surface for t in tokenize(" ".join(reversed(ws)))}
        assert forward == backward


class TestWordClassMap:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("dog,noun\nrun,verb\nshiny,adjective\n")
        wcm = WordClassMap.from_csv(path)
        assert wcm.get("dog") == "noun"
        assert wcm.get("run") == "verb"

    def test_absent_word_is_other(self):
        assert WordClassMap().get("zzz") == OTHER

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("dog,noun\ncat,adverb\n")
        with pytest.raises(IngestError, match="2"):
            WordClassMap.from_csv(path)
