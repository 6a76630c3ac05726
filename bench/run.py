"""Benchmark runner: drives the ``cnretrieval`` CLI one fresh process at a time.

    python3 bench/run.py --workload graph-100 --seed 3 --seconds 50 --trace 0
    python3 bench/run.py --all                  # every workload, metrics table
    python3 bench/run.py --write-reference      # reference bands for --seed

A run generates the workload's inputs from the seed. Then, in a closed loop
with one client and one child process at a time, it repeats a cycle of

1. ``ingest`` (every snapshot must be byte-identical to the first),
2. ``classify <detector word>`` (interpreter, imports, snapshot load, index
   build: the set-up cost),
3. ``eval --output json`` over the next batch of the query pool, so each
   query text is used once per run,

at least three times, and until about ``--seconds`` of child wall time have
passed. ``setup_s`` and ``ingest_s`` are the medians of the classify and
ingest wall times; ``query_ms`` is the median over cycles of (eval wall -
classify wall) / (queries x scorers ranked).

Every ingest, classify and ranked (query, scorer) pair is one operation; a
non-zero exit or an output that fails its check counts it as failed. With
``--trace 1`` the run instead pairs untraced and traced evals of the first
query (see ``tracer.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. In a directory
without the program's sources the runner exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = BENCH / "reference"

sys.path.insert(0, str(BENCH))
import world  # noqa: E402

DEFAULT_SEED = 1
MIN_CYCLES = 3
ORACLE_SAMPLES = 2  # (query, image) pairs per scorer checked against tests/oracle.py
CHILD_TIMEOUT_S = 60
RUN_BUDGET_S = 100  # start no child after this, so the run ends within 180 s
#: queries per eval process, sized so that one batch costs several seconds
BATCH = {"detector-5k": 14, "graph-100": 3, "tagcorpus-10": 3}

END_TO_END = {"setup_s": "s", "ingest_s": "s", "query_ms": "ms",
              "peak_rss_mb": "MiB", "snapshot_mb": "MiB"}
PER_LAYER = {
    "text.stem.calls": "count", "text.stem.distinct_share": "ratio",
    "text.self_s": "s", "setup.text.stem.calls": "count", "setup.text.self_s": "s",
    "detectors.calls": "count", "detectors.st_det.calls": "count",
    "detectors.self_s": "s", "setup.detectors.build_s": "s",
    "knowledge.neighbors.calls": "count", "knowledge.related_detectable.calls": "count",
    "knowledge.self_s": "s", "setup.knowledge.build_s": "s",
    "cooccur.co_occurring.calls": "count", "cooccur.cond_prob.calls": "count",
    "cooccur.self_s": "s",
    "setup.cooccur.build_s": "s",
    "scoring.partition.calls": "count", "scoring.pair_estimate.calls": "count",
    "scoring.self_s": "s",
    "evaluation.images_scored": "count", "evaluation.self_s": "s",
    "setup.snapshot.decode_s": "s", "ingest.snapshot.save_s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}
#: per-layer metrics read from one traced function; if a later change
#: deletes or renames it, the metric reads 0 and the run lists it as unmeasured
SOURCES = {
    "text.stem.calls": "text.stem", "text.stem.distinct_share": "text.stem",
    "setup.text.stem.calls": "text.stem",
    "detectors.calls": "detectors.DetectorBank.detector_score",
    "detectors.st_det.calls": "detectors.DetectorBank.st_det",
    "setup.detectors.build_s": "detectors.DetectorBank.build",
    "knowledge.neighbors.calls": "knowledge.KnowledgeGraph.neighbors",
    "knowledge.related_detectable.calls": "knowledge.RelatednessSource.related_detectable",
    "setup.knowledge.build_s": "knowledge.KnowledgeGraph.from_relations",
    "cooccur.co_occurring.calls": "cooccur.CooccurrenceModel.co_occurring",
    "cooccur.cond_prob.calls": "cooccur.CooccurrenceModel.cond_prob",
    "setup.cooccur.build_s": "cooccur.CooccurrenceModel.build",
    "scoring.partition.calls": "scoring.partition_query",
    "scoring.pair_estimate.calls": "scoring.pair_estimate",
    "evaluation.images_scored": "evaluation.compute_report",
    "setup.snapshot.decode_s": "snapshot.load",
    "ingest.snapshot.save_s": "snapshot.save",
}


class Child(NamedTuple):
    """Outcome of one CLI process."""

    code: int
    wall_s: float
    cpu_s: float  # user + system time
    rss_mb: float  # peak resident set size
    stdout: str


def run_cli(argv, log_dir: Path, trace_out: Path | None = None) -> Child:
    """Run one CLI process to completion; time it and read its rusage."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "cnretrieval.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_out), "--", *argv]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0,
                 out_path.read_text(encoding="utf-8", errors="replace"))


class Ops:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, ok: bool, message: str = "", count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.messages) < 20:
                self.messages.append(message)


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


class Workload:
    """Generated inputs of one (workload, seed) and their reference ranks."""

    def __init__(self, name: str, seed: int, scale=world.PAPER, tag="", stored=True):
        self.name, self.seed = name, seed
        self.dir = WORK / f"{tag}{name}-{seed}"
        self.manifest = world.write_workload(name, seed, self.dir, scale)
        self.queries = self.manifest["queries"]
        self.scorers = self.manifest["scorers"]
        self.snapshot = self.dir / "world.snap"
        self.snapshot.unlink(missing_ok=True)
        self.first_digest = None
        self.batch = BATCH[name] if scale == world.PAPER else 2
        self._reference = None
        self.expected = {}
        path = REFERENCE_DIR / f"{name}-seed{seed}.json"
        if stored and scale == world.PAPER and path.exists():
            saved = json.loads(path.read_text(encoding="utf-8"))
            if saved["sha256"] != self.manifest["sha256"]:
                raise SystemExit(f"{path} was written for other inputs; rewrite it "
                                 "with --write-reference")
            self.expected = saved["bands"]

    def ingest_argv(self):
        argv = ["ingest", "--detectors", str(self.dir / "detectors.jsonl"),
                "--graph", str(self.dir / "graph.csv"),
                "--corpus", str(self.dir / "corpus.jsonl")]
        if "word_classes.csv" in self.manifest["sha256"]:
            argv += ["--word-classes", str(self.dir / "word_classes.csv")]
        return argv + ["--snapshot", str(self.snapshot)]

    def bands(self, queries) -> dict:
        for q in queries:
            if q["query_id"] not in self.expected:
                self.expected[q["query_id"]] = {
                    s: self.reference().band(q, s) for s in self.scorers}
        return {q["query_id"]: self.expected[q["query_id"]] for q in queries}

    def reference(self):
        if self._reference is None:
            import reference
            self._reference = reference.ReferenceScorer(self.dir)
        return self._reference

    def batches(self):
        b = self.batch
        return [self.queries[i:i + b] for i in range(0, len(self.queries), b)]

    def probe_word(self) -> str:
        with open(self.dir / "detectors.jsonl", encoding="utf-8") as fh:
            vocab = json.loads(fh.readline())["vocab"]
        return vocab[self.seed % len(vocab)]


def ingest(wl: Workload, ops: Ops, trace_out=None) -> Child:
    child = run_cli(wl.ingest_argv(), wl.dir, trace_out)
    if child.code != 0 or not wl.snapshot.is_file():
        ops.add(False, f"ingest exited {child.code}")
        return child
    digest = world.sha256(wl.snapshot)
    wl.first_digest = wl.first_digest or digest
    ops.add(digest == wl.first_digest, "re-ingest is not byte-identical")
    return child


def classify(wl: Workload, ops: Ops) -> Child:
    word = wl.probe_word()
    child = run_cli(["classify", word, "--snapshot", str(wl.snapshot),
                     "--output", "json"], wl.dir)
    try:
        entries = json.loads(child.stdout) if child.code == 0 else []
        ok = [(e.get("word"), e.get("class")) for e in entries] == [(word, "detectable")]
    except (json.JSONDecodeError, AttributeError, TypeError):
        ok = False
    ops.add(ok, f"classify {word!r} exited {child.code}: {child.stdout[:200]!r}")
    return child


def evaluate(wl: Workload, batch, ops: Ops, trace_out=None) -> Child:
    import reference
    qpath = wl.dir / "batch.jsonl"
    qpath.write_text("".join(json.dumps(q) + "\n" for q in batch), encoding="utf-8")
    expected = wl.bands(batch)
    child = run_cli(["eval", "--snapshot", str(wl.snapshot), "--queries", str(qpath),
                     "--scorers", ",".join(wl.scorers), "--output", "json"],
                    wl.dir, trace_out)
    pairs = len(batch) * len(wl.scorers)
    try:
        output = json.loads(child.stdout) if child.code == 0 else None
    except json.JSONDecodeError:
        output = None
    if output is None:
        ops.add(False, f"eval exited {child.code}", count=pairs)
        return child
    failures = reference.check_eval(output, batch, wl.scorers, expected)
    ops.add(True, count=pairs - len(failures))
    for message in failures:
        ops.add(False, message)
    return child


def measure(wl: Workload, seconds: float, run_start: float) -> tuple[dict, Ops, dict]:
    """Untraced run: the end-to-end metrics.

    Each cycle runs one ingest, one classify and one eval of the next batch,
    so that the samples of every metric are spread over the whole run. Cycles
    repeat at least ``MIN_CYCLES`` times, and while another cycle would end
    less than half a cycle past ``seconds`` of child wall time.

    ``query_ms`` subtracts from each eval the classify of its own cycle, the
    set-up measured closest in time to it.
    """
    ops = Ops()
    cycles, spent = [], 0.0
    batches = iter(wl.batches())
    while len(cycles) < MIN_CYCLES or (
            spent + spent / len(cycles) / 2 < seconds
            and time.perf_counter() - run_start < RUN_BUDGET_S):
        batch = next(batches, None)
        if batch is None:
            break
        ingested = ingest(wl, ops)
        setup = classify(wl, ops)
        evaluated = evaluate(wl, batch, ops)
        spent += ingested.wall_s + setup.wall_s + evaluated.wall_s
        cycles.append({"ingest_s": ingested.wall_s, "setup_s": setup.wall_s,
                       "eval_s": evaluated.wall_s, "rss_mb": evaluated.rss_mb,
                       "pairs": len(batch) * len(wl.scorers),
                       "cpu_s": [ingested.cpu_s, setup.cpu_s, evaluated.cpu_s]})
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in cycles),
        "ingest_s": statistics.median(c["ingest_s"] for c in cycles),
        "query_ms": statistics.median((c["eval_s"] - c["setup_s"]) / c["pairs"] * 1e3
                                      for c in cycles),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in cycles),
        "snapshot_mb": wl.snapshot.stat().st_size / 2**20 if wl.snapshot.exists() else 0.0,
    }
    return metrics, ops, {"cycles": cycles}


def _calls(stats, name):
    return stats.get(name, [0])[0]


def _self(stats, prefix):
    return sum(rec[2] for name, rec in stats.items() if name.startswith(prefix))


def _total(stats, name):
    return stats.get(name, [0, 0.0])[1]


def layer_metrics(eval_trace: dict, ingest_trace: dict, ranked: int) -> dict:
    """Per-layer metrics from one traced eval and one traced ingest."""
    q = eval_trace["stats"].get("query", {})
    s = eval_trace["stats"].get("setup", {})
    ing = ingest_trace["stats"].get("ingest", {})
    stem_calls = _calls(q, "text.stem")
    distinct = eval_trace["distinct"].get("query", {}).get("text.stem", 0)
    return {
        "text.stem.calls": stem_calls / ranked,
        "text.stem.distinct_share": distinct / stem_calls if stem_calls else 0.0,
        "text.self_s": _self(q, "text.") / ranked,
        "setup.text.stem.calls": _calls(s, "text.stem"),
        "setup.text.self_s": _self(s, "text."),
        "detectors.calls": _calls(q, "detectors.DetectorBank.detector_score") / ranked,
        "detectors.st_det.calls": _calls(q, "detectors.DetectorBank.st_det") / ranked,
        "detectors.self_s": _self(q, "detectors.") / ranked,
        "setup.detectors.build_s": _total(s, "detectors.DetectorBank.build"),
        "knowledge.neighbors.calls": _calls(q, "knowledge.KnowledgeGraph.neighbors") / ranked,
        "knowledge.related_detectable.calls":
            _calls(q, "knowledge.RelatednessSource.related_detectable") / ranked,
        "knowledge.self_s": _self(q, "knowledge.") / ranked,
        "setup.knowledge.build_s": _total(s, "knowledge.KnowledgeGraph.from_relations"),
        "cooccur.co_occurring.calls":
            _calls(q, "cooccur.CooccurrenceModel.co_occurring") / ranked,
        "cooccur.cond_prob.calls": _calls(q, "cooccur.CooccurrenceModel.cond_prob") / ranked,
        "cooccur.self_s": _self(q, "cooccur.") / ranked,
        "setup.cooccur.build_s": _total(s, "cooccur.CooccurrenceModel.build"),
        "scoring.partition.calls": _calls(q, "scoring.partition_query") / ranked,
        "scoring.pair_estimate.calls": _calls(q, "scoring.pair_estimate") / ranked,
        "scoring.self_s": _self(q, "scoring.") / ranked,
        "evaluation.images_scored": _calls(q, "evaluation.score_fn") / ranked,
        "evaluation.self_s": _self(q, "evaluation.") / ranked,
        "setup.snapshot.decode_s": _self(s, "snapshot.load"),
        "ingest.snapshot.save_s": _self(ing, "snapshot.save"),
        "cli.self_s": _self(q, "cli.") / ranked,
    }


def measure_traced(wl: Workload, seconds: float, run_start: float):
    """Traced run: per-layer metrics from the first query, repeated for ``seconds``."""
    ops = Ops()
    ingest_trace_path = wl.dir / "ingest.trace.json"
    ingest(wl, ops, ingest_trace_path)
    ingest_trace = json.loads(ingest_trace_path.read_text(encoding="utf-8"))
    batch = wl.queries[:1]
    ranked = len(batch) * len(wl.scorers)
    eval_trace_path = wl.dir / "eval.trace.json"
    rounds, spent = [], 0.0
    while not rounds or (spent < seconds
                         and time.perf_counter() - run_start < RUN_BUDGET_S):
        plain = evaluate(wl, batch, ops)
        traced = evaluate(wl, batch, ops, eval_trace_path)
        spent += plain.wall_s + traced.wall_s
        trace = json.loads(eval_trace_path.read_text(encoding="utf-8"))
        layers = layer_metrics(trace, ingest_trace, ranked)
        layers["trace.overhead_share"] = traced.wall_s / plain.wall_s - 1.0
        rounds.append(layers)
    # counts repeat exactly; times and the overhead are medians over rounds
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    absent = set(trace["absent"]) | set(ingest_trace["absent"])
    detail = {"rounds": len(rounds), "absent": sorted(absent),
              "unmeasured": [m for m, fn in SOURCES.items() if fn in absent],
              "replaced": trace["replaced"]}
    return metrics, ops, detail


def run(name, seed, seconds, trace, scale=world.PAPER, tag="") -> dict:
    run_start = time.perf_counter()
    wl = Workload(name, seed, scale, tag)
    if trace:
        metrics, ops, detail = measure_traced(wl, seconds, run_start)
        units = PER_LAYER
    else:
        metrics, ops, detail = measure(wl, seconds, run_start)
        units = END_TO_END
    info = {"workload": name, "seed": seed, "trace": trace,
            "params": wl.manifest["scale"], "images": wl.manifest["images"],
            "scorers": wl.scorers, "sha256": wl.manifest["sha256"],
            "machine": machine(), "detail": detail, "failures": ops.messages,
            "run_s": time.perf_counter() - run_start}
    shutil.rmtree(wl.dir, ignore_errors=True)  # several MiB of inputs per seed
    return {"info": info, "result": {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }}


def write_reference(names, seed):
    import reference
    for name in names:
        wl = Workload(name, seed, stored=False)
        bands = wl.bands(wl.queries)
        checked = reference.cross_check(wl.dir, wl.queries, wl.scorers,
                                        random.Random(seed), ORACLE_SAMPLES)
        underflows = sum(wl.reference().underflows(q, s)
                         for q in wl.queries for s in wl.scorers)
        path = REFERENCE_DIR / f"{name}-seed{seed}.json"
        REFERENCE_DIR.mkdir(exist_ok=True)
        rows = ",\n".join(f"  {json.dumps(q)}: {json.dumps(b, sort_keys=True)}"
                          for q, b in bands.items())
        path.write_text(f'{{"workload": {json.dumps(name)}, "seed": {seed},\n'
                        f' "sha256": {json.dumps(wl.manifest["sha256"], sort_keys=True)},\n'
                        f' "bands": {{\n{rows}\n}}}}\n', encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: {len(bands)} queries, "
              f"{checked} oracle pairs agree, {underflows} (query, scorer) pairs "
              "take the geometric-mean underflow path", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(world.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="write reference bands for --seed (all workloads "
                             "unless --workload), cross-checked against the oracle")
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "cnretrieval" / "cli.py").is_file():
        print(f"error: no cnretrieval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = [args.workload] if args.workload else sorted(world.WORKLOADS)
    if args.write_reference:
        write_reference(names, args.seed)
        return 0
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    scale, tag = (world.TINY, "tiny-") if args.scale == "tiny" else (world.PAPER, "")
    outcomes = {}
    for name in names:
        outcome = run(name, args.seed, args.seconds, args.trace, scale, tag)
        outcomes[name] = outcome
        print(json.dumps(outcome["info"]), flush=True)
    if args.all:
        for name, outcome in outcomes.items():
            result = outcome["result"]
            unmeasured = outcome["info"]["detail"].get("unmeasured", ())
            for metric, entry in result["metrics"].items():
                value = "absent" if metric in unmeasured else f"{entry['value']:.6g}"
                print(f"{name:14s} {metric:36s} {value:>14s} {entry['unit']}")
            print(f"{name:14s} {'fail_share':36s} "
                  f"{result['failed'] / result['attempted']:14.6g} ratio")
        print(json.dumps({n: o["result"] for n, o in outcomes.items()}))
    else:
        print(json.dumps(outcomes[args.workload]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
