import pickle

from cnretrieval import (
    CooccurrenceModel,
    DetectorBank,
    Relation,
    WordClassMap,
    snapshot,
    text,
)

from conftest import TINY_EDGES, TINY_SCORES, TINY_VOCAB, stemmed

#: edges that all pass the default filters, so load stems both ends of each
SINGLE_WORD_EDGES = [r for r in TINY_EDGES if " " not in r.start + r.end and r.weight >= 1]
#: tags that are neither a vocabulary word nor a graph endpoint
CORPUS_ONLY_TAGS = ["umbrellas", "violin", "hiking"]


def test_load_never_stems_a_corpus_tag(tmp_path):
    path = tmp_path / "world.snap"
    corpus = CooccurrenceModel.build(stemmed([
        ("esp1", ["chef", "umbrellas"]), ("esp2", ["violin", "hiking", "dog"]),
    ]))
    snapshot.save(path, DetectorBank.build(TINY_VOCAB, TINY_SCORES),
                  SINGLE_WORD_EDGES, corpus)
    distinct = set(TINY_VOCAB) | {w for r in SINGLE_WORD_EDGES for w in (r.start, r.end)}
    assert not distinct & set(CORPUS_ONLY_TAGS) and \
        not distinct & {text.stem(t) for t in CORPUS_ONLY_TAGS}

    text.stem.cache_clear()
    _, graph, loaded, _ = snapshot.load(path)
    info = text.stem.cache_info()
    # each vocabulary word and graph endpoint is stemmed once; nothing else is
    assert info.misses == len(distinct)
    assert loaded.tag_sets == corpus.tag_sets
    assert graph.neighbors("chef") == {"person", "dish", "kitchen"}


def test_snapshot_with_source_checksums_loads(tmp_path):
    # older snapshots also carry the source files' checksums, which nothing reads
    path = tmp_path / "old.snap"
    payload = {
        "format_version": 1,
        "checksums": {"corpus": "0" * 64, "detectors": "1" * 64, "graph": "2" * 64},
        "vocab": list(TINY_VOCAB),
        "scores": TINY_SCORES,
        "relations": [tuple(r) for r in TINY_EDGES],
        "corpus": {"esp1": ["chef", "kitchen"]},
        "word_classes": {"chef": "noun"},
    }
    path.write_bytes(pickle.dumps(payload, protocol=4))
    bank, graph, corpus, word_classes = snapshot.load(path)
    assert bank.vocab == tuple(TINY_VOCAB)
    assert graph.neighbors("chef") == {"person", "dish", "kitchen"}
    assert corpus.co_count("chef", "kitchen") == 1
    assert word_classes == WordClassMap(entries={"chef": "noun"})


def test_relations_round_trip_as_plain_tuples(tmp_path):
    path = tmp_path / "world.snap"
    corpus = CooccurrenceModel.build([])
    snapshot.save(path, DetectorBank.build(TINY_VOCAB, TINY_SCORES), TINY_EDGES, corpus)
    stored = pickle.loads(path.read_bytes())["relations"]
    assert stored == sorted(tuple(r) for r in TINY_EDGES)
    assert all(type(r) is tuple for r in stored)
    assert [Relation(*r) for r in stored] == sorted(TINY_EDGES)
