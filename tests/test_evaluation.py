import json
import random
import statistics

import pytest

from cnretrieval import (
    EvaluationError,
    IngestError,
    QueryRecord,
    compute_report,
    format_table,
    load_queries,
    rank_images,
    rank_of_ground_truth,
)


def make_queries(n, gt_fn):
    return [QueryRecord(query_id=f"q{i}", text=f"query {i}",
                        ground_truth=frozenset(gt_fn(i))) for i in range(n)]


class TestRankImages:
    def test_descending_scores(self):
        ranking = rank_images(["A", "B"], {"A": 0.9, "B": 0.1}.__getitem__)
        assert [img for img, _ in ranking] == ["A", "B"]

    def test_tie_break_by_id(self):
        ranking = rank_images(["B", "A"], lambda _: 0.5)
        assert [img for img, _ in ranking] == ["A", "B"]

    def test_all_tied_is_id_order(self):
        ranking = rank_images(["C", "A", "B"], lambda _: 0.0)
        assert [img for img, _ in ranking] == ["A", "B", "C"]

    def test_deterministic_under_permutation(self):
        rng = random.Random(1)
        images = [f"img{i}" for i in range(30)]
        scores = {img: rng.random() for img in images}
        base = rank_images(images, scores.__getitem__)
        for _ in range(5):
            shuffled = images[:]
            rng.shuffle(shuffled)
            assert rank_images(shuffled, scores.__getitem__) == base


class TestRankOfGroundTruth:
    def test_simple(self):
        ranking = [("A", 0.9), ("B", 0.5), ("C", 0.1)]
        assert rank_of_ground_truth(ranking, {"B"}) == 2

    def test_min_over_set(self):
        ranking = [("A", 0.9), ("C", 0.5), ("B", 0.1)]
        assert rank_of_ground_truth(ranking, {"B", "C"}) == 2

    def test_top_ranked(self):
        ranking = [("A", 0.9), ("B", 0.5)]
        assert rank_of_ground_truth(ranking, {"A"}) == 1

    def test_missing_ground_truth(self):
        with pytest.raises(EvaluationError):
            rank_of_ground_truth([("A", 0.9)], {"Z"})


class TestComputeReport:
    def test_recall_counts(self):
        ranks = {"q0": 1, "q1": 3, "q2": 20}
        images = [f"i{n}" for n in range(1, 21)]
        queries = make_queries(3, lambda i: [f"i{ranks[f'q{i}']}"])
        # score = position of image by id, arranged so i<k> lands at rank k
        report = compute_report(
            queries, lambda q, img: -int(img[1:]), images)
        assert report.r_at[5] == pytest.approx(100 * 2 / 3)
        assert report.r_at[1] == pytest.approx(100 / 3)

    def test_median_and_mean_even_count(self):
        report = compute_report(
            make_queries(2, lambda i: ["i2" if i == 0 else "i4"]),
            lambda q, img: -int(img[1:]),
            [f"i{n}" for n in range(1, 6)],
        )
        assert [r for _, r in report.per_query] == [2, 4]
        assert report.median_rank == 3.0
        assert report.mean_rank == 3.0

    def test_empty_queries_rejected(self):
        with pytest.raises(EvaluationError):
            compute_report([], lambda q, i: 0.0, ["i1"])

    def test_r_at_nondecreasing(self):
        rng = random.Random(9)
        images = [f"i{n}" for n in range(50)]
        queries = make_queries(20, lambda i: [rng.choice(images)])
        report = compute_report(queries, lambda q, img: rng.random(), images,
                                ks=(1, 2, 5, 10, 20, 50))
        values = [report.r_at[k] for k in (1, 2, 5, 10, 20, 50)]
        assert values == sorted(values)

    def test_monotone_transform_leaves_report_unchanged(self):
        rng = random.Random(10)
        images = [f"i{n}" for n in range(40)]
        scores = {(q, img): rng.random() for q in range(10) for img in images}
        queries = make_queries(10, lambda i: [rng.choice(images)])
        base = compute_report(queries,
                              lambda q, img: scores[(int(q.query_id[1:]), img)],
                              images)
        import math
        warped = compute_report(
            queries,
            lambda q, img: math.exp(5 * scores[(int(q.query_id[1:]), img)]),
            images)
        assert base == warped


class TestQueryRecords:
    def test_load_queries(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(
            json.dumps({"query_id": "q1", "text": "a dog", "ground_truth": ["i1"],
                        "protocol": "sentence"}) + "\n" +
            json.dumps({"query_id": "q2", "text": "dog", "ground_truth": ["i1", "i2"],
                        "protocol": "single-word"}) + "\n")
        records = load_queries(path)
        assert len(records) == 2
        assert records[1].protocol == "single-word"
        assert records[1].ground_truth == {"i1", "i2"}

    def test_bad_protocol_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps({"query_id": "q", "text": "x",
                                    "ground_truth": ["i"], "protocol": "pairs"}) + "\n")
        with pytest.raises(IngestError, match="1"):
            load_queries(path)

    @pytest.mark.parametrize("field,value", [
        ("text", None), ("text", 5), ("ground_truth", "img_kitchen"),
        ("ground_truth", {"img_kitchen": 1})])
    def test_mistyped_field_rejected(self, tmp_path, field, value):
        record = {"query_id": "q", "text": "chef", "ground_truth": ["img_kitchen"]}
        path = tmp_path / "q.jsonl"
        path.write_text("\n" + json.dumps({**record, field: value}) + "\n")
        with pytest.raises(IngestError, match=f"{path}:2:.*{field}"):
            load_queries(path)

    def test_duplicate_query_id_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(
            json.dumps({"query_id": "q1", "text": "chef",
                        "ground_truth": ["img_kitchen"]}) + "\n" +
            json.dumps({"query_id": "q2", "text": "dog", "ground_truth": ["img_park"]})
            + "\n" +
            json.dumps({"query_id": "q1", "text": "dog grass",
                        "ground_truth": ["img_park"]}) + "\n")
        with pytest.raises(IngestError, match=f"{path}:3:.*duplicate query_id 'q1'"):
            load_queries(path)

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            QueryRecord(query_id="q", text="x", ground_truth=frozenset())


class TestFormatTable:
    def test_contains_metrics(self):
        report = compute_report(
            make_queries(2, lambda i: ["i1"]),
            lambda q, img: -int(img[1:]),
            ["i1", "i2", "i3"],
        )
        table = format_table({"MIL": report})
        assert "r@1" in table and "median rank" in table and "MIL" in table
        assert "100.0" in table
