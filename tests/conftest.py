import json

import pytest

from cnretrieval import (
    CooccurrenceModel,
    DetectorBank,
    KnowledgeGraph,
    Relation,
    ScoreConfig,
    Scorer,
    stem_set,
)

TINY_VOCAB = [
    "person", "dish", "kitchen", "man", "dog", "grass",
    "jacket", "bread", "doughnut", "runs", "running", "hotel",
]

# img_kitchen deliberately sorts after img_abbey/img_beach so that an
# all-tied ranking cannot put it first by accident.
TINY_SCORES = {
    "img_abbey": {},
    "img_beach": {"man": 0.8, "dog": 0.6, "jacket": 0.3},
    "img_kitchen": {"person": 0.9, "dish": 0.8, "kitchen": 0.95},
    "img_park": {"dog": 0.9, "grass": 0.8, "runs": 0.2, "running": 0.5},
}

TINY_EDGES = [
    Relation("chef", "kitchen", 2.0),
    Relation("chef", "person", 2.5),
    Relation("chef", "dish", 1.0),
    Relation("tuxedo", "jacket", 1.5),
    Relation("bagel", "doughnut", 1.0),
    Relation("bagel", "bread", 1.0),
    Relation("hotel", "resort", 1.0),
    Relation("pen", "pen", 1.0),                  # stem-equal noise
    Relation("sofa", "piece of furniture", 3.0),  # multiword, dropped
    Relation("chef", "mixing bowl", 1.0),         # multiword, dropped
]

TINY_CORPUS = [
    ("esp1", ["chef", "person", "kitchen"]),
    ("esp2", ["chef", "dish"]),
    ("esp3", ["dog", "grass"]),
    ("esp4", ["dog", "man", "person"]),
    ("esp5", ["hotel", "resort"]),
]


def stemmed(tagged):
    """(image, raw tags) pairs as the per-image tag stem sets that
    CooccurrenceModel.project counts."""
    return [stem_set(tags) for _, tags in tagged]


TINY_WORD_CLASSES = {
    "chef": "noun", "tuxedo": "noun", "bagel": "noun", "dog": "noun",
    "hotel": "noun", "running": "verb", "sprinting": "verb", "shiny": "adjective",
}


@pytest.fixture
def bank():
    return DetectorBank.build(TINY_VOCAB, TINY_SCORES)


@pytest.fixture
def graph(bank):
    return KnowledgeGraph.project(TINY_EDGES, bank.stem_index)


@pytest.fixture
def corpus(bank):
    return CooccurrenceModel.project(stemmed(TINY_CORPUS), bank.stem_index)


@pytest.fixture
def nouns():
    return frozenset(w for w, c in TINY_WORD_CLASSES.items() if c == "noun")


@pytest.fixture
def scorer(bank, graph, corpus, nouns):
    return Scorer(bank, graph, corpus, nouns, ScoreConfig())


@pytest.fixture
def tiny_files(tmp_path):
    """The tiny world written out in the external file formats."""
    detectors = tmp_path / "detectors.jsonl"
    lines = [json.dumps({"vocab": TINY_VOCAB})]
    lines += [
        json.dumps({"image": image, "scores": scores})
        for image, scores in TINY_SCORES.items()
    ]
    detectors.write_text("\n".join(lines) + "\n")

    graph_file = tmp_path / "edges.csv"
    rows = ["rel_type,start,end,weight"]
    rows += [
        f"RelatedTo,{r.start.replace(' ', '_')},{r.end.replace(' ', '_')},{r.weight}"
        for r in TINY_EDGES
    ]
    graph_file.write_text("\n".join(rows) + "\n")

    corpus_file = tmp_path / "tags.jsonl"
    corpus_file.write_text("\n".join(
        json.dumps({"image": image, "tags": tags}) for image, tags in TINY_CORPUS
    ) + "\n")

    classes_file = tmp_path / "classes.csv"
    classes_file.write_text("\n".join(
        f"{w},{c}" for w, c in TINY_WORD_CLASSES.items()
    ) + "\n")

    return {
        "detectors": detectors,
        "graph": graph_file,
        "corpus": corpus_file,
        "word_classes": classes_file,
        "dir": tmp_path,
    }
