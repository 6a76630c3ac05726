"""Query and tag normalization: tokenization, stemming, stopwords, word classes.

The stemmer is the classic Porter suffix-stripping algorithm, applied until
the word stops changing so that stemming is idempotent (the single-pass
algorithm is not, in rare cases). The loop always ends: a pass that changes a
word either shortens it, or keeps its length and turns a final ``y`` into
``i`` or ``e``, or a final ``i`` into ``e``. Stems are therefore deterministic
and reproducible, but may differ from other stemmer variants on unusual words.
"""

from __future__ import annotations

import csv
import functools
import string
from dataclasses import dataclass, field

from .errors import IngestError, open_text

NOUN = "noun"
VERB = "verb"
ADJECTIVE = "adjective"
OTHER = "other"

_WORD_CLASSES = frozenset({NOUN, VERB, ADJECTIVE})

#: Articles, prepositions, pronouns and auxiliaries. Used only to gate
#: knowledge-graph lookups for otherwise undetectable words; detector and
#: stem-detector matching is never filtered.
STOPWORDS = frozenset({
    "a", "an", "the", "and", "or", "but", "nor",
    "in", "on", "at", "to", "for", "of", "with", "by", "from", "as",
    "into", "onto", "over", "under", "up", "down", "out", "off",
    "is", "am", "are", "was", "were", "be", "been", "being",
    "have", "has", "had", "having", "do", "does", "did",
    "will", "would", "shall", "should", "can", "could", "may", "might", "must",
    "i", "me", "my", "we", "us", "our", "you", "your",
    "he", "him", "his", "she", "her", "it", "its", "they", "them", "their",
    "this", "that", "these", "those", "there", "here",
    "what", "which", "who", "whom", "whose", "when", "where", "how",
    "not", "no", "so", "if", "then", "than", "too", "very",
})


# --- Porter stemmer -------------------------------------------------------

def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant blocks in the [C](VC)^m[V] form, counted up
    to 2: every rule compares it with 0, 1 or 2."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if cons and prev_vowel:
            m += 1
            if m == 2:
                return m
        prev_vowel = not cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    return (
        len(word) >= 3
        and _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = tuple(sorted((
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
), key=len, reverse=True))


def _porter_pass(w: str) -> str:
    if len(w) <= 2:
        return w

    # Step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("s") and not w.endswith("ss"):
        w = w[:-1]

    # Step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = None
        if w.endswith("ed") and _has_vowel(w[:-2]):
            stripped = w[:-2]
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            stripped = w[:-3]
        if stripped is not None:
            w = stripped
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # Step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # Step 3
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # Step 4 (longest suffix first)
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _measure(stem) > 1:
                w = stem
            break

    # Step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem

    # Step 5b
    if w.endswith("ll") and _measure(w) > 1:
        w = w[:-1]

    return w


@functools.cache
def stem(word: str) -> str:
    """Stem a lowercase word; deterministic and idempotent. Each distinct word
    is stemmed once per process; later calls are a dictionary hit.

    >>> stem("running")
    'run'
    """
    while (after := _porter_pass(word)) != word:
        word = after
    return word


def stem_set(words) -> frozenset[str]:
    """Image of a word set under :func:`stem`; never larger than the input."""
    return frozenset(stem(w) for w in words)


# --- Tokenization ---------------------------------------------------------

@dataclass(frozen=True)
class Token:
    """A normalized query or tag word together with its stem."""

    surface: str
    stem: str

    @classmethod
    def from_word(cls, word: str) -> "Token":
        return cls(surface=word, stem=stem(word))


def tokenize(text: str) -> list[Token]:
    """Split free text into unique normalized tokens, in first-seen order.

    Lowercases, splits on whitespace, strips leading/trailing punctuation and
    drops empty results. Duplicate surfaces are kept once (scores treat the
    query as a set of words).
    """
    seen = {}
    for raw in text.lower().split():
        word = raw.strip(string.punctuation)
        if word and word not in seen:
            seen[word] = Token.from_word(word)
    return list(seen.values())


# --- Word classes ---------------------------------------------------------

@dataclass(frozen=True)
class WordClassMap:
    """Word to part-of-speech lookup backed by an external word,class CSV.

    Absent words map to ``other``; no tagging is attempted.
    """

    entries: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_csv(cls, path) -> "WordClassMap":
        entries = {}
        with open_text(path) as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if len(row) != 2:
                    raise IngestError("expected `word,class`", path=path, line=lineno)
                word, word_class = row[0].strip().lower(), row[1].strip().lower()
                if word_class not in _WORD_CLASSES:
                    raise IngestError(
                        f"unknown word class {word_class!r}", path=path, line=lineno
                    )
                entries[word] = word_class
        return cls(entries=entries)

    def get(self, word: str) -> str:
        return self.entries.get(word, OTHER)
