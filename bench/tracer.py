"""Traced-run launcher: run the ``cnretrieval`` CLI with per-function accounting.

    python3 bench/tracer.py TRACE.json -- eval --snapshot s --queries q --scorers MIL

Every function named in ``TRACED`` is wrapped from the outside, and every
binding of it in the ``cnretrieval.*`` namespaces is replaced, so calls made
through ``cli.compute_report`` count as well as those through
``evaluation.compute_report``. A function a later change deletes is listed
as absent instead of failing the run. Then ``cli.main(argv)`` runs.

Each wrapped call measures its duration; a function's self time is that
duration minus the time spent in wrapped functions it called. Coarse
functions also leave a span (name, start, end, parent) in memory; hot ones
only add to counters. Counts and times are kept per phase: ``setup`` while
``snapshot.load`` runs, ``ingest`` while ``snapshot.save`` runs, ``query``
otherwise. Everything is written to TRACE.json when the CLI returns.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

#: layer -> [(qualified name, hot)]; hot functions run per image or per word
TRACED = {
    "text": [("stem", True), ("stem_set", False), ("tokenize", False),
             ("WordClassMap.from_csv", False)],
    "detectors": [("DetectorBank.build", False), ("DetectorBank.from_jsonl", False),
                  ("DetectorBank.detector_score", True), ("DetectorBank.st_det", True),
                  ("DetectorBank.stem_max_estimate", True)],
    "knowledge": [("KnowledgeGraph.from_relations", False), ("parse_relations_csv", False),
                  ("KnowledgeGraph.neighbors", True), ("KnowledgeGraph.cn_det", True),
                  ("KnowledgeGraph.edge_weight", True), ("esp_related", True),
                  ("RelatednessSource.related", True),
                  ("RelatednessSource.related_detectable", True)],
    "cooccur": [("CooccurrenceModel.build", False), ("CooccurrenceModel.from_jsonl", False),
                ("CooccurrenceModel.co_occurring", True), ("CooccurrenceModel.cond_prob", True),
                ("CooccurrenceModel.cond_prob_neg", True), ("CooccurrenceModel.co_count", True),
                ("CooccurrenceModel.doc_freq", True)],
    "scoring": [("partition_query", True), ("pair_estimate", True),
                ("aggregate_estimate", True), ("log_product", True),
                ("mil_log_score", True), ("milstem_log_score", True), ("cn_log_score", True),
                ("Scorer.partition", True), ("Scorer.mil_log", True),
                ("Scorer.milstem_log", True), ("Scorer.cn_log", True)],
    "evaluation": [("compute_report", False), ("rank_images", False),
                   ("rank_of_ground_truth", False), ("load_queries", False),
                   ("format_table", False)],
    "snapshot": [("load", False), ("save", False), ("file_checksum", False)],
    "cli": [("main", False), ("cmd_ingest", False), ("cmd_classify", False),
            ("cmd_score", False), ("cmd_eval", False), ("resolve_config", False),
            ("build_parser", False)],
}

#: functions that switch the phase for everything they call
PHASES = {"snapshot.load": "setup", "snapshot.save": "ingest"}
#: functions whose distinct first arguments are counted
DISTINCT = {"text.stem"}
#: coarse functions whose per-image callback is traced as a hot function of
#: its own: parameter name, position, traced name. Counting the callback's
#: calls counts images scored whatever scoring functions sit behind it.
CALLBACKS = {"evaluation.compute_report": ("score_fn", 1, "evaluation.score_fn")}


class Tracer:
    """Per-phase call counts, total and self times, and spans of wrapped calls."""

    def __init__(self):
        self.phase = "query"
        self.stats: dict[str, dict[str, list]] = {}  # phase -> name -> [calls, total, self]
        self.distinct: dict[str, dict[str, set]] = {}
        self.spans: list = []
        self.stack = [[0.0, -1]]  # frames: [time in wrapped callees, enclosing span]
        self.absent: list[str] = []
        self.replaced: dict[str, int] = {}

    def _record(self, name, elapsed, inner):
        rec = self.stats.setdefault(self.phase, {}).get(name)
        if rec is None:
            rec = self.stats[self.phase][name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - inner

    def wrap(self, name, fn, hot):
        stack, clock, record = self.stack, time.perf_counter, self._record
        phase = PHASES.get(name)
        distinct = name in DISTINCT
        callback = CALLBACKS.get(name)

        if hot:
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    record(name, elapsed, frame[0])
                    if distinct and args:
                        self.distinct.setdefault(self.phase, {}).setdefault(
                            name, set()).add(args[0])
        else:
            def wrapper(*args, **kwargs):
                if callback:
                    args, kwargs = self._wrap_callback(callback, args, kwargs)
                span = len(self.spans)
                self.spans.append(None)
                frame = [0.0, span]
                parent = stack[-1][1]
                stack.append(frame)
                outer = self.phase
                if phase:
                    self.phase = phase
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    stack[-1][0] += end - start
                    record(name, end - start, frame[0])
                    self.spans[span] = (name, self.phase, start, end, parent)
                    self.phase = outer
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_callback(self, callback, args, kwargs):
        param, position, name = callback
        if param in kwargs:
            kwargs = dict(kwargs, **{param: self.wrap(name, kwargs[param], True)})
        elif len(args) > position and callable(args[position]):
            args = (*args[:position], self.wrap(name, args[position], True),
                    *args[position + 1:])
        return args, kwargs

    def install(self, package="cnretrieval"):
        """Wrap every traced function and rebind it wherever it is bound."""
        modules = {}
        for layer in TRACED:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                modules[layer] = None
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == package or n.startswith(package + "."))]
        for layer, entries in TRACED.items():
            for qualname, hot in entries:
                name = f"{layer}.{qualname}"
                owner = modules[layer]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                raw = getattr(owner, "__dict__", {}).get(attr)
                if raw is None:
                    self.absent.append(name)
                    continue
                if path:  # method on a class
                    if isinstance(raw, (classmethod, staticmethod)):
                        setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__, hot)))
                    else:
                        setattr(owner, attr, self.wrap(name, raw, hot))
                    self.replaced[name] = 1
                    continue
                wrapper = self.wrap(name, raw, hot)
                count = 0
                for module in namespaces:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapper)
                            count += 1
                self.replaced[name] = count

    def report(self) -> dict:
        return {
            "absent": self.absent,
            "replaced": self.replaced,
            "stats": self.stats,
            "distinct": {phase: {name: len(values) for name, values in names.items()}
                         for phase, names in self.distinct.items()},
            "spans": self.spans,
        }


def main(argv) -> int:
    out, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE.json -- <cnretrieval arguments>")
    tracer = Tracer()
    tracer.install()
    from cnretrieval import cli
    try:
        code = cli.main(cli_argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
