import pickle

import pytest

from cnretrieval import (
    CooccurrenceModel,
    DetectorBank,
    KnowledgeGraph,
    ScoreConfig,
    Scorer,
    SnapshotError,
    cli,
    snapshot,
    text,
    tokenize,
)

from conftest import TINY_CORPUS, TINY_EDGES, TINY_SCORES, TINY_VOCAB, stemmed

#: tags that are neither a vocabulary word nor a graph endpoint
CORPUS_ONLY_TAGS = ["umbrellas", "violin", "hiking"]


@pytest.fixture
def saved(tmp_path):
    """A snapshot of the tiny world, and the tables it was written from."""
    path = tmp_path / "world.snap"
    bank = DetectorBank.build(TINY_VOCAB, TINY_SCORES)
    graph = KnowledgeGraph.project(TINY_EDGES, bank.stem_index)
    corpus = CooccurrenceModel.project(
        stemmed(TINY_CORPUS + [("esp6", ["chef", "umbrellas"]),
                               ("esp7", ["violin", "hiking", "dog"])]),
        bank.stem_index)
    snapshot.save(path, bank, graph, corpus, frozenset({"chef"}))
    return path, graph, corpus


def test_load_never_stems_a_corpus_tag(saved):
    path, graph, corpus = saved
    assert not set(TINY_VOCAB) & set(CORPUS_ONLY_TAGS)

    text.stem.cache_clear()
    bank, loaded_graph, loaded, _ = snapshot.load(path)
    # each vocabulary word is stemmed once; no graph endpoint or tag is
    assert text.stem.cache_info().misses == len(set(TINY_VOCAB))
    assert loaded == corpus
    assert loaded_graph == graph
    assert set(loaded_graph.neighbors("chef", 1.0)) == {"person", "dish", "kitchen"}


QUERY = "a chef eats bagels with umbrellas near the kitchen zebra dogs"


@pytest.mark.parametrize("relatedness", ["graph", "corpus-cooccurrence"])
@pytest.mark.parametrize("estimator", ["corpus", "constant_one", "graph_weight"])
def test_plan_stems_only_the_query_tokens(saved, relatedness, estimator):
    path = saved[0]
    scorer = Scorer(*snapshot.load(path), ScoreConfig(
        relatedness=relatedness, conditional_estimator=estimator, min_weight=0.5))
    text.stem.cache_clear()
    tokens = tokenize(QUERY)
    plan = scorer.plan(tokens)
    assert any(len(f.terms) > 1 for f in plan.factors)  # the knowledge tier ran
    assert text.stem.cache_info().misses == len(tokens)


def test_tables_round_trip_as_plain_containers(saved):
    path, graph, corpus = saved
    payload = pickle.loads(path.read_bytes())
    assert payload["format_version"] == snapshot.FORMAT_VERSION == 4
    assert payload["nouns"] == ["chef"]
    rows = payload["graph"]["rows"]
    assert rows == graph.rows
    assert all(type(row) is tuple and all(type(n) is tuple for n in row)
               for row in rows.values())
    assert set(payload["corpus"]) == {"n_images", "df", "co_counts"}
    assert payload["corpus"]["co_counts"] == corpus.co_counts
    # only what the vocabulary can reach is stored
    assert "umbrella" not in payload["corpus"]["co_counts"]["chef"]
    # a row for each stem with a neighbor that has a detector ("resort" -> hotel)
    assert set(rows) == {"chef", "tuxedo", "bagel", "resort"}


#: tables that unpickle but would make a query fail: (where, key, edit of the
#: saved table), where None is the payload itself; the tiny world has 7
#: corpus images, 3 of them tagged "chef"
BAD_TABLES = {
    "row-not-triples": ("graph", "rows", lambda rows: {**rows, "chef": 5}),
    "neighbor-without-detector": ("graph", "rows", lambda rows: {
        **rows, "chef": (("zebra", "zebra", 1.0),)}),
    "neighbor-not-a-word": ("graph", "rows", lambda rows: {
        **rows, "chef": ((5, "person", 2.5), ("kitchen", "kitchen", 2.0))}),
    "negative-weight": ("graph", "rows", lambda rows: {
        **rows, "chef": (("person", "person", -1.0),)}),
    "zero-normaliser": ("graph", "max_weight", lambda _: 0.0),
    "df-above-images": ("corpus", "df", lambda df: {**df, "chef": 8}),
    "co-count-above-df": ("corpus", "co_counts", lambda rows: {
        **rows, "chef": {**rows["chef"], "person": 4}}),
    "count-not-a-number": ("corpus", "co_counts", lambda rows: {
        **rows, "chef": {**rows["chef"], "person": None}}),
    "tag-to-unknown-stem": ("corpus", "co_counts", lambda rows: {
        **rows, "chef": {**rows["chef"], "zebra": 1}}),
    "nouns-a-string": (None, "nouns", lambda _: "chef"),
    "nouns-a-dict": (None, "nouns", lambda _: {"chef": "noun"}),
}


@pytest.mark.parametrize("case", list(BAD_TABLES))
def test_tables_a_query_cannot_use_exit_2(saved, capsys, case):
    path = saved[0]
    where, key, edit = BAD_TABLES[case]
    payload = pickle.loads(path.read_bytes())
    table = payload if where is None else payload[where]
    table[key] = edit(table[key])
    path.write_bytes(pickle.dumps(payload, protocol=4))
    assert cli.main(["classify", "chef", "--snapshot", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err


def test_length_beyond_the_file_is_a_snapshot_error(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_bytes(b"\x96" + (2**56).to_bytes(8, "little"))  # a 2**56-byte bytearray
    with pytest.raises(SnapshotError, match="MemoryError"):
        snapshot.load(path)


@pytest.mark.parametrize("checksums", [False, True])
def test_version_1_snapshot_asks_to_reingest(tmp_path, capsys, checksums):
    path = tmp_path / "old.snap"
    payload = {
        "format_version": 1,
        "vocab": list(TINY_VOCAB),
        "scores": TINY_SCORES,
        "relations": [tuple(r) for r in TINY_EDGES],
        "corpus": {"esp1": ["chef", "kitchen"]},
        "word_classes": {"chef": "noun"},
    }
    if checksums:
        payload["checksums"] = {"corpus": "0" * 64, "detectors": "1" * 64,
                                "graph": "2" * 64}
    assert_asks_to_reingest(path, payload, capsys)


def test_version_2_snapshot_asks_to_reingest(saved, capsys):
    path = saved[0]
    payload = pickle.loads(path.read_bytes())
    payload["format_version"] = 2
    assert_asks_to_reingest(path, payload, capsys)


def test_version_3_snapshot_asks_to_reingest(saved, capsys):
    path = saved[0]
    payload = pickle.loads(path.read_bytes())
    payload["format_version"] = 3
    del payload["nouns"]
    payload["word_classes"] = {"chef": "noun"}  # format 3 stored every class
    assert_asks_to_reingest(path, payload, capsys)


def assert_asks_to_reingest(path, payload, capsys):
    path.write_bytes(pickle.dumps(payload, protocol=4))
    assert cli.main(["classify", "chef", "--snapshot", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(path) in err and f"version {payload['format_version']}" in err \
        and "re-ingest" in err
