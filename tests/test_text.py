import string
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cnretrieval import IngestError, parse_nouns_csv, stem, stem_set, tokenize
from cnretrieval.text import _is_consonant

words = st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz"),
                min_size=1, max_size=15)


def is_consonant_recursive(word, i):
    """Porter's definition as written: a y is a consonant at the start of a
    word or after a vowel."""
    if word[i] in "aeiou":
        return False
    if word[i] == "y":
        return i == 0 or not is_consonant_recursive(word, i - 1)
    return True


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

    @given(st.text(alphabet=st.sampled_from("yyyyaebst"), min_size=1, max_size=40))
    def test_consonant_rule_along_a_run_of_ys(self, w):
        assert [_is_consonant(w, i) for i in range(len(w))] == \
            [is_consonant_recursive(w, i) for i in range(len(w))]

    @pytest.mark.parametrize("suffix", ["ing", "ed"])
    def test_long_run_of_ys_stems_without_recursion(self, suffix):
        assert stem("y" * 3000 + suffix) == "y" * 2999 + "i"

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


class TestParseNounsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("dog,noun\nrun,verb\nshiny,adjective\n")
        nouns = parse_nouns_csv(path)
        assert "dog" in nouns
        assert "run" not in nouns and "shiny" not in nouns

    def test_absent_word_is_not_a_noun(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("dog,noun\n")
        assert "zzz" not in parse_nouns_csv(path)

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("dog,noun\ncat,adverb\n")
        with pytest.raises(IngestError, match="2"):
            parse_nouns_csv(path)

    def test_last_class_wins(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("dog,noun\ndog,verb\n")
        assert "dog" not in parse_nouns_csv(path)
