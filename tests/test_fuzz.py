"""Every input file either parses or raises the package's own error.

Each parser, and ``snapshot.load``, is fed random bytes, random text and
near-valid records; any other exception would reach the CLI as a traceback.
A snapshot that loads must also score a query without error, since load is
where a damaged table has to be refused.
"""

import copy
import json
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnretrieval import (
    CooccurrenceModel,
    DetectorBank,
    IngestError,
    KnowledgeGraph,
    ScoreConfig,
    Scorer,
    SnapshotError,
    load_queries,
    parse_nouns_csv,
    parse_relations_csv,
    parse_tags_jsonl,
    snapshot,
    tokenize,
)

from conftest import TINY_CORPUS, TINY_EDGES, TINY_SCORES, TINY_VOCAB, stemmed

KEYS = ["vocab", "image", "scores", "tags", "query_id", "text", "ground_truth",
        "dog", "cat"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(KEYS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=10,
)
json_lines = st.lists(json_values.map(json.dumps), max_size=5)
csv_fields = st.text(st.sampled_from('ab_ ,"\r\n\x00é0.-1einfa'), max_size=6)
csv_lines = st.lists(st.lists(csv_fields, max_size=5).map(",".join), max_size=5)
graph_lines = csv_lines.map(lambda rows: ["rel_type,start,end,weight", *rows])
text_files = (st.binary(max_size=60)
              | st.text(max_size=60).map(str.encode)
              | json_lines.map(lambda lines: "\n".join(lines).encode())
              | csv_lines.map(lambda rows: "\n".join(rows).encode())
              | graph_lines.map(lambda rows: "\n".join(rows).encode()))

PARSERS = {
    "detectors": DetectorBank.from_jsonl,
    "graph": parse_relations_csv,
    "corpus": parse_tags_jsonl,
    "word_classes": parse_nouns_csv,
    "queries": load_queries,
}


def valid_payload():
    bank = DetectorBank.build(TINY_VOCAB, TINY_SCORES)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "world.snap"
        snapshot.save(path, bank, KnowledgeGraph.project(TINY_EDGES, bank.stem_index),
                      CooccurrenceModel.project(stemmed(TINY_CORPUS), bank.stem_index),
                      frozenset({"chef"}))
        return pickle.loads(path.read_bytes())


VALID_PAYLOAD = valid_payload()


@st.composite
def payload_bytes(draw):
    """A valid payload with one entry, at any depth, dropped or replaced,
    pickled, and maybe cut short."""
    payload = copy.deepcopy(VALID_PAYLOAD)
    table = payload
    key = draw(st.sampled_from(sorted(payload)))
    while isinstance(table[key], (dict, list, tuple)) and table[key] \
            and draw(st.booleans()):
        if isinstance(table[key], tuple):
            table[key] = list(table[key])
        table = table[key]
        key = draw(st.sampled_from(sorted(table)) if isinstance(table, dict)
                   else st.integers(0, len(table) - 1))
    if draw(st.booleans()):
        del table[key]
    else:
        table[key] = draw(json_values)
    data = pickle.dumps(payload, protocol=4)
    return data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


def write(data: bytes) -> Path:
    with tempfile.NamedTemporaryFile(delete=False) as fh:
        fh.write(data)
    return Path(fh.name)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=60, deadline=None)
@given(data=text_files)
def test_parser_parses_or_raises_ingest_error(kind, data):
    path = write(data)
    try:
        PARSERS[kind](path)
    except IngestError:
        pass
    finally:
        path.unlink()


#: a query with a word in every tier of the tiny world
QUERY = tokenize("a chef in a tuxedo eats bagels with dogs at the hotel resort kitchen")


@settings(max_examples=200, deadline=None)
@given(data=payload_bytes() | st.binary(max_size=80))
def test_snapshot_load_parses_or_raises_snapshot_error(data):
    path = write(data)
    try:
        loaded = snapshot.load(path)
    except SnapshotError:
        return
    finally:
        path.unlink()
    # a snapshot that loads serves every relatedness source and estimator
    for relatedness in ("graph", "corpus-cooccurrence"):
        for estimator in ("corpus", "constant_one", "graph_weight"):
            for aggregator in ("min", "mean_geometric"):
                scorer = Scorer(*loaded, ScoreConfig(
                    relatedness=relatedness, conditional_estimator=estimator,
                    aggregator=aggregator, min_weight=0.0))
                plan = scorer.plan(QUERY)
                for factor in plan.factors:
                    sorted(factor.related)  # classify lists them
                for image in scorer.bank.images:
                    plan.log_score(image)
