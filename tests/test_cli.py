import json
import pickle

import pytest

from cnretrieval import cli, snapshot
from cnretrieval.errors import SnapshotError


def run(capsys, argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def snap(tiny_files, capsys):
    path = tiny_files["dir"] / "world.snap"
    code = cli.main([
        "ingest",
        "--detectors", str(tiny_files["detectors"]),
        "--graph", str(tiny_files["graph"]),
        "--corpus", str(tiny_files["corpus"]),
        "--word-classes", str(tiny_files["word_classes"]),
        "--snapshot", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.fixture
def snap_without_word_classes(tiny_files, capsys):
    path = tiny_files["dir"] / "no-classes.snap"
    code = cli.main([
        "ingest",
        "--detectors", str(tiny_files["detectors"]),
        "--graph", str(tiny_files["graph"]),
        "--corpus", str(tiny_files["corpus"]),
        "--snapshot", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    return path


def assert_one_line_error(err, fragment):
    assert err.startswith("cnretrieval: error:")
    assert err.count("\n") == 1
    assert fragment in err


class TestIngest:
    def test_reingest_is_byte_identical(self, tiny_files, snap, capsys):
        other = tiny_files["dir"] / "again.snap"
        code, _, _ = run(capsys, [
            "ingest", "--detectors", tiny_files["detectors"],
            "--graph", tiny_files["graph"], "--corpus", tiny_files["corpus"],
            "--word-classes", tiny_files["word_classes"], "--snapshot", other])
        assert code == 0
        assert other.read_bytes() == snap.read_bytes()

    def test_snapshot_round_trip(self, snap):
        bank, graph, corpus, nouns = snapshot.load(snap)
        assert "person" in bank.vocab
        assert set(graph.neighbors("chef", 1.0)) == {"person", "dish", "kitchen"}
        assert corpus.n_images == 5
        assert "chef" in nouns

    def test_corrupt_input_exits_2(self, tiny_files, capsys):
        bad = tiny_files["dir"] / "bad.jsonl"
        bad.write_text('{"vocab": ["dog"]}\n{oops\n')
        code, _, err = run(capsys, [
            "ingest", "--detectors", bad, "--graph", tiny_files["graph"],
            "--corpus", tiny_files["corpus"],
            "--snapshot", tiny_files["dir"] / "x.snap"])
        assert code == 2
        assert "2" in err  # line number surfaces in the message

    def test_tag_with_a_long_run_of_ys_is_ingested(self, tiny_files, capsys):
        corpus = tiny_files["dir"] / "ys.jsonl"
        corpus.write_text(json.dumps(
            {"image": "esp1", "tags": ["y" * 3000 + "ed", "y" * 3000 + "ing"]}) + "\n")
        code, _, err = run(capsys, [
            "ingest", "--detectors", tiny_files["detectors"],
            "--graph", tiny_files["graph"], "--corpus", corpus,
            "--snapshot", tiny_files["dir"] / "ys.snap"])
        assert (code, err) == (0, "")

    def test_newer_format_version_refused(self, snap):
        import pickle
        payload = pickle.loads(snap.read_bytes())
        payload["format_version"] = 99
        snap.write_bytes(pickle.dumps(payload))
        with pytest.raises(SnapshotError, match="99"):
            snapshot.load(snap)


class TestClassify:
    def test_chef_query(self, snap, capsys):
        code, out, _ = run(capsys, ["classify", "a man in a tuxedo",
                                    "--snapshot", snap, "--output", "json"])
        assert code == 0
        listing = {e["word"]: e for e in json.loads(out)}
        assert listing["man"]["class"] == "detectable"
        assert listing["tuxedo"]["class"] == "cn-detectable"
        assert listing["tuxedo"]["via"] == ["jacket"]

    def test_empty_query(self, snap, capsys):
        code, out, _ = run(capsys, ["classify", "", "--snapshot", snap,
                                    "--output", "json"])
        assert code == 0
        assert json.loads(out) == []

    def test_stopword_query(self, snap, capsys):
        code, out, _ = run(capsys, ["classify", "the of and",
                                    "--snapshot", snap, "--output", "json"])
        assert code == 0
        assert all(e["class"] == "undetected" for e in json.loads(out))

    @pytest.mark.parametrize("suffix", ["ing", "ed"])
    def test_long_run_of_ys_exits_0(self, snap, capsys, suffix):
        code, out, _ = run(capsys, ["classify", "y" * 3000 + suffix,
                                    "--snapshot", snap, "--output", "json"])
        assert code == 0
        assert [e["class"] for e in json.loads(out)] == ["undetected"]


class TestScore:
    def test_chef_query_ranks_kitchen_first(self, snap, capsys):
        code, out, _ = run(capsys, ["score", "a chef", "--snapshot", snap,
                                    "--top-k", "1", "--output", "json"])
        assert code == 0
        assert json.loads(out)[0]["image"] == "img_kitchen"

    def test_top_k_larger_than_universe(self, snap, capsys):
        code, out, _ = run(capsys, ["score", "a chef", "--snapshot", snap,
                                    "--top-k", "100", "--output", "json"])
        assert code == 0
        assert len(json.loads(out)) == 4

    def test_bad_top_k_exits_1(self, snap, capsys):
        code, _, err = run(capsys, ["score", "a chef", "--snapshot", snap,
                                    "--top-k", "0"])
        assert code == 1

    def test_bad_epsilon_exits_1(self, snap, capsys):
        code, _, err = run(capsys, ["score", "chef", "--snapshot", snap,
                                    "--epsilon", "5"])
        assert code == 1
        assert_one_line_error(err, "clamp_epsilon")

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_min_weight_exits_1(self, snap, value, capsys):
        code, _, err = run(capsys, ["classify", "chef", "--snapshot", snap,
                                    "--min-weight", value])
        assert code == 1
        assert_one_line_error(err, "min_weight")

    @pytest.mark.parametrize("command", ["score", "classify"])
    def test_noun_only_without_word_classes_exits_1(
            self, snap_without_word_classes, command, capsys):
        code, _, err = run(capsys, [command, "chef", "--snapshot",
                                    snap_without_word_classes, "--noun-only"])
        assert code == 1
        assert_one_line_error(err, "--word-classes")


class TestEval:
    @pytest.fixture
    def queries(self, tiny_files):
        path = tiny_files["dir"] / "queries.jsonl"
        path.write_text(
            json.dumps({"query_id": "q1", "text": "a chef",
                        "ground_truth": ["img_kitchen"]}) + "\n" +
            json.dumps({"query_id": "q2", "text": "dogs on grass",
                        "ground_truth": ["img_park"]}) + "\n")
        return path

    def test_multiple_scorers(self, snap, queries, capsys):
        code, out, _ = run(capsys, [
            "eval", "--snapshot", snap, "--queries", queries,
            "--scorers", "MIL,MILSTEM,CN_MAX,ESP_MEAN_G,CN_MAX_NN",
            "--output", "json"])
        assert code == 0
        reports = json.loads(out)
        assert set(reports) == {"MIL", "MILSTEM", "CN_MAX", "ESP_MEAN_G", "CN_MAX_NN"}
        assert reports["CN_MAX"]["per_query"][0]["rank"] == 1

    def test_matches_direct_evaluation(self, snap, queries, capsys):
        from cnretrieval import Scorer, ScoreConfig, compute_report, load_queries, tokenize
        code, out, _ = run(capsys, ["eval", "--snapshot", snap, "--queries", queries,
                                    "--scorers", "CN_MAX", "--output", "json"])
        assert code == 0
        via_cli = json.loads(out)["CN_MAX"]
        bank, graph, corpus, nouns = snapshot.load(snap)
        scorer = Scorer(bank, graph, corpus, nouns, ScoreConfig())
        direct = compute_report(
            load_queries(queries),
            lambda q, img: scorer.plan(tokenize(q.text)).log_score(img),
            bank.images)
        assert via_cli == direct.to_dict()

    def test_table_output(self, snap, queries, capsys):
        code, out, _ = run(capsys, ["eval", "--snapshot", snap,
                                    "--queries", queries, "--scorers", "MIL"])
        assert code == 0
        assert "r@1" in out and "MIL" in out

    def test_unknown_scorer_exits_1(self, snap, queries, capsys):
        code, _, err = run(capsys, ["eval", "--snapshot", snap,
                                    "--queries", queries, "--scorers", "BM25"])
        assert code == 1
        assert "BM25" in err

    def test_empty_scorer_list_exits_1(self, snap, queries, capsys):
        code, _, _ = run(capsys, ["eval", "--snapshot", snap,
                                  "--queries", queries, "--scorers", ","])
        assert code == 1

    def test_noun_only_scorer_without_word_classes_exits_1(
            self, snap_without_word_classes, queries, capsys):
        code, _, err = run(capsys, ["eval", "--snapshot", snap_without_word_classes,
                                    "--queries", queries, "--scorers", "MIL,CN_MAX_NN"])
        assert code == 1
        assert_one_line_error(err, "--word-classes")


NOT_UTF8 = b"caf\xe9\n"

#: case -> (which input file, its bytes, line the message names); None bytes
#: make the input a directory
BAD_INPUTS = {
    "score-not-a-number": ("detectors", b'{"vocab": ["dog"]}\n'
                           b'{"image": "i1", "scores": {"dog": "high"}}\n', None),
    "scores-not-an-object": ("detectors", b'{"vocab": ["dog"]}\n'
                             b'{"image": "i1", "scores": [1]}\n', 2),
    "vocab-not-a-list": ("detectors", b'{"vocab": 5}\n', 1),
    "corpus-line-not-an-object": ("corpus", b"5\n", 1),
    "empty-concept": ("graph", b"rel_type,start,end,weight\nRelatedTo,,cat,0.5\n", 2),
    "infinite-weight": ("graph", b"rel_type,start,end,weight\nRelatedTo,dog,cat,inf\n", 2),
    "nan-weight": ("graph", b"rel_type,start,end,weight\nRelatedTo,dog,cat,nan\n", 2),
    "detectors-not-utf8": ("detectors", NOT_UTF8, None),
    "graph-not-utf8": ("graph", b"rel_type,start,end,weight\nIsA," + NOT_UTF8, None),
    "corpus-not-utf8": ("corpus", NOT_UTF8, None),
    "word-classes-not-utf8": ("word_classes", NOT_UTF8, None),
    "queries-not-utf8": ("queries", NOT_UTF8, None),
    "config-not-utf8": ("config", NOT_UTF8, None),
    "config-huge-integer": ("config", b'{"min_weight": ' + b"1" * 5000 + b"}", None),
    "config-nan-min-weight": ("config", b'{"min_weight": NaN}', None),
    "queries-duplicate-id": ("queries", b'{"query_id": "q1", "text": "chef", '
                             b'"ground_truth": ["img_kitchen"]}\n'
                             b'{"query_id": "q1", "text": "dog grass", '
                             b'"ground_truth": ["img_park"]}\n', 2),
    "queries-null-text": ("queries", b'{"query_id": "q1", "text": null, '
                          b'"ground_truth": ["img_kitchen"]}\n', 1),
    "queries-ground-truth-not-a-list": ("queries", b'{"query_id": "q1", "text": "chef", '
                                        b'"ground_truth": "img_kitchen"}\n', 1),
    "detectors-deeply-nested": ("detectors", b"[" * 100000 + b"\n", 1),
    "snapshot-is-a-directory": ("snapshot", None, None),
    "snapshot-without-vocab": ("snapshot", pickle.dumps({"format_version": 2}), None),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_naming_the_file(case, snap, tiny_files, capsys):
    role, content, line = BAD_INPUTS[case]
    path = tiny_files["dir"] / f"bad-{role}"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if role == "snapshot":
        argv = ["classify", "chef", "--snapshot", path]
    elif role == "queries":
        argv = ["eval", "--snapshot", snap, "--queries", path, "--scorers", "MIL"]
    elif role == "config":
        argv = ["score", "chef", "--snapshot", snap, "--config", path]
    else:
        inputs = {key: tiny_files[key] for key in
                  ("detectors", "graph", "corpus", "word_classes")}
        inputs[role] = path
        argv = ["ingest", "--snapshot", tiny_files["dir"] / "out.snap"]
        argv += [a for key, p in inputs.items() for a in (f"--{key.replace('_', '-')}", p)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert_one_line_error(err, str(path) if line is None else f"{path}:{line}:")


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, snap, tiny_files, capsys):
        config = tiny_files["dir"] / "config.json"
        config.write_text(json.dumps({"aggregator": "min"}))
        # flag wins over file: both runs must reflect their aggregator
        code1, out1, _ = run(capsys, ["score", "a chef", "--snapshot", snap,
                                      "--config", config, "--output", "json"])
        code2, out2, _ = run(capsys, ["score", "a chef", "--snapshot", snap,
                                      "--config", config, "--aggregator", "max",
                                      "--output", "json"])
        assert code1 == 0 and code2 == 0
        min_score = json.loads(out1)[0]["score"]
        max_score = json.loads(out2)[0]["score"]
        assert max_score >= min_score

    def test_unknown_config_key_exits_2(self, snap, tiny_files, capsys):
        config = tiny_files["dir"] / "config.json"
        config.write_text(json.dumps({"aggregate": "min"}))
        code, _, err = run(capsys, ["score", "a chef", "--snapshot", snap,
                                    "--config", config])
        assert code == 2

    @pytest.mark.parametrize("content", [
        {"min_weight": "x"}, 5, {"stopword_filter": "false"}, {"noun_only": "false"},
        {"min_weight": True}])
    def test_bad_config_value_exits_2(self, snap, tiny_files, content, capsys):
        config = tiny_files["dir"] / "config.json"
        config.write_text(json.dumps(content))
        code, _, err = run(capsys, ["score", "chef", "--snapshot", snap,
                                    "--config", config])
        assert code == 2
        assert_one_line_error(err, str(config))
