"""Every input file either parses or raises the package's own error.

Each parser, and ``snapshot.load``, is fed random bytes, random text and
near-valid records; any other exception would reach the CLI as a traceback.
"""

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
    SnapshotError,
    WordClassMap,
    load_queries,
    parse_relations_csv,
    snapshot,
)

from conftest import TINY_EDGES, TINY_SCORES, TINY_VOCAB

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
    "corpus": CooccurrenceModel.from_jsonl,
    "word_classes": WordClassMap.from_csv,
    "queries": load_queries,
}


def valid_payload():
    return {
        "format_version": 1,
        "vocab": list(TINY_VOCAB),
        "scores": TINY_SCORES,
        "relations": [tuple(r) for r in TINY_EDGES],
        "corpus": {"esp1": ["chef", "kitchen"]},
        "word_classes": {"chef": "noun"},
    }


@st.composite
def payload_bytes(draw):
    """A valid payload with one entry dropped or replaced, pickled, and maybe cut short."""
    payload = valid_payload()
    key = draw(st.sampled_from(sorted(payload)))
    if draw(st.booleans()):
        del payload[key]
    else:
        payload[key] = draw(json_values)
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


@settings(max_examples=100, deadline=None)
@given(data=payload_bytes() | st.binary(max_size=80))
def test_snapshot_load_parses_or_raises_snapshot_error(data):
    path = write(data)
    try:
        snapshot.load(path)
    except SnapshotError:
        pass
    finally:
        path.unlink()
