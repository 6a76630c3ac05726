"""Command-line surface: ingest, classify, score, eval.

Exit codes: 0 success, 1 usage error, 2 data/parse error. Config precedence
is CLI flags over config file over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields as dataclass_fields

from . import evaluation, knowledge, scoring, snapshot, text
from .cooccur import CooccurrenceModel, parse_tags_jsonl
from .detectors import DetectorBank
from .errors import EvaluationError, IngestError, SnapshotError, open_text
from .evaluation import EvalReport, compute_report, format_table, load_queries
from .scoring import ScoreConfig, Scorer
from .text import WordClassMap, tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_ESP = {"relatedness": scoring.CORPUS_COOCCURRENCE}
_CN = {"relatedness": scoring.GRAPH}

#: scorer name -> (tiers kept, config overrides)
SCORERS = {
    "MIL": (scoring.DETECTOR, {}),
    "MILSTEM": (scoring.STEM, {}),
    "ESP_MIN": (scoring.KNOWLEDGE, {**_ESP, "aggregator": scoring.MIN}),
    "ESP_MEAN_G": (scoring.KNOWLEDGE, {**_ESP, "aggregator": scoring.MEAN_GEOMETRIC}),
    "ESP_MEAN_A": (scoring.KNOWLEDGE, {**_ESP, "aggregator": scoring.MEAN_ARITHMETIC}),
    "ESP_MAX": (scoring.KNOWLEDGE, {**_ESP, "aggregator": scoring.MAX}),
    "CN_MIN": (scoring.KNOWLEDGE, {**_CN, "aggregator": scoring.MIN}),
    "CN_MEAN_G": (scoring.KNOWLEDGE, {**_CN, "aggregator": scoring.MEAN_GEOMETRIC}),
    "CN_MEAN_A": (scoring.KNOWLEDGE, {**_CN, "aggregator": scoring.MEAN_ARITHMETIC}),
    "CN_MAX": (scoring.KNOWLEDGE, {**_CN, "aggregator": scoring.MAX}),
    "CN_MAX_NN": (scoring.KNOWLEDGE, {**_CN, "aggregator": scoring.MAX,
                                      "noun_only": True}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cnretrieval",
                     description="Knowledge-augmented image retrieval scoring")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--aggregator", choices=scoring.AGGREGATORS)
        p.add_argument("--relatedness",
                       choices=[scoring.GRAPH, scoring.CORPUS_COOCCURRENCE])
        p.add_argument("--estimator", choices=scoring.ESTIMATORS,
                       dest="conditional_estimator")
        p.add_argument("--min-weight", type=float, dest="min_weight")
        p.add_argument("--noun-only", action=argparse.BooleanOptionalAction,
                       default=None, dest="noun_only")
        p.add_argument("--stopwords", action=argparse.BooleanOptionalAction,
                       default=None, dest="stopword_filter")
        p.add_argument("--epsilon", type=float, dest="clamp_epsilon")
        p.add_argument("--output", choices=["json", "table"], default="table")

    p_ingest = sub.add_parser("ingest", help="parse sources into a binary snapshot")
    p_ingest.add_argument("--detectors", required=True)
    p_ingest.add_argument("--graph", required=True)
    p_ingest.add_argument("--corpus", required=True)
    p_ingest.add_argument("--word-classes", dest="word_classes")
    p_ingest.add_argument("--snapshot", required=True)

    p_classify = sub.add_parser("classify", help="show the tier of each query word")
    p_classify.add_argument("query")
    p_classify.add_argument("--snapshot", required=True)
    add_config_flags(p_classify)

    p_score = sub.add_parser("score", help="rank images for one query")
    p_score.add_argument("query")
    p_score.add_argument("--snapshot", required=True)
    p_score.add_argument("--top-k", type=int, default=10, dest="top_k")
    add_config_flags(p_score)

    p_eval = sub.add_parser("eval", help="batch evaluation over a query file")
    p_eval.add_argument("--snapshot", required=True)
    p_eval.add_argument("--queries", required=True)
    p_eval.add_argument("--scorers", required=True,
                        help="comma-separated list, e.g. MIL,MILSTEM,CN_MAX")
    add_config_flags(p_eval)

    return parser


def resolve_config(args) -> ScoreConfig:
    values = {}
    if getattr(args, "config", None):
        with open_text(args.config) as fh:
            try:
                file_values = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise IngestError(f"invalid JSON: {exc}", path=args.config) from None
        if not isinstance(file_values, dict):
            raise IngestError("expected a JSON object", path=args.config)
        known = {f.name for f in dataclass_fields(ScoreConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise IngestError(f"unknown config keys: {sorted(unknown)}",
                              path=args.config)
        try:
            ScoreConfig(**file_values)
        except (TypeError, ValueError) as exc:
            raise IngestError(f"bad config value: {exc}", path=args.config) from None
        values.update(file_values)
    for field in dataclass_fields(ScoreConfig):
        flag_value = getattr(args, field.name, None)
        if flag_value is not None:
            values[field.name] = flag_value
    try:
        return ScoreConfig(**values)
    except ValueError as exc:
        raise UsageError(f"bad option value: {exc}") from None


def _load_scorer(args) -> Scorer:
    config = resolve_config(args)
    bank, graph, corpus, word_classes = snapshot.load(args.snapshot)
    return Scorer(bank, graph, corpus, word_classes, config)


def _check_word_classes(scorer: Scorer, tiers: int = scoring.KNOWLEDGE) -> None:
    if tiers >= scoring.KNOWLEDGE and scorer.config.noun_only \
            and scorer.word_classes is None:
        raise UsageError("noun-only scoring needs a snapshot ingested with "
                         "--word-classes")


def cmd_ingest(args) -> int:
    bank = DetectorBank.from_jsonl(args.detectors)
    graph = knowledge.KnowledgeGraph.project(knowledge.parse_relations_csv(args.graph),
                                             bank.stem_index)
    corpus = CooccurrenceModel.project(parse_tags_jsonl(args.corpus).values(),
                                       bank.stem_index)
    word_classes = WordClassMap.from_csv(args.word_classes) if args.word_classes else None
    snapshot.save(args.snapshot, bank, graph, corpus, word_classes)
    print(f"snapshot written to {args.snapshot}")
    return EXIT_OK


_TIER_CLASSES = {scoring.DETECTOR: "detectable", scoring.STEM: "stem-detectable",
                 scoring.KNOWLEDGE: "cn-detectable"}


def cmd_classify(args) -> int:
    scorer = _load_scorer(args)
    _check_word_classes(scorer)
    tokens = tokenize(args.query)
    factors = {f.word: f for f in scorer.plan(tokens).factors}
    listing = []
    for token in tokens:
        factor = factors.get(token.surface)
        entry = {"word": token.surface,
                 "class": _TIER_CLASSES[factor.tier] if factor else "undetected"}
        if factor and factor.related:
            entry["via"] = sorted(factor.related)
        listing.append(entry)
    if args.output == "json":
        print(json.dumps(listing, indent=2))
    else:
        for entry in listing:
            via = f"  via {', '.join(entry['via'])}" if "via" in entry else ""
            print(f"{entry['word']}: {entry['class']}{via}")
    return EXIT_OK


def cmd_score(args) -> int:
    if args.top_k < 1:
        raise UsageError("--top-k must be at least 1")
    scorer = _load_scorer(args)
    _check_word_classes(scorer)
    plan = scorer.plan(tokenize(args.query))
    ranking = evaluation.rank_images(scorer.bank.images, plan.log_score)
    top = [(image, math.exp(log_score)) for image, log_score in ranking[: args.top_k]]
    if args.output == "json":
        print(json.dumps([{"image": i, "score": s} for i, s in top], indent=2))
    else:
        for i, (image, score) in enumerate(top, start=1):
            print(f"{i:4d}  {image}  {score:.6g}")
    return EXIT_OK


def cmd_eval(args) -> int:
    names = [n for n in (s.strip() for s in args.scorers.split(",")) if n]
    if not names:
        raise UsageError("empty scorer list")
    unknown = [n for n in names if n not in SCORERS]
    if unknown:
        raise UsageError(f"unknown scorers: {', '.join(unknown)}")
    scorer = _load_scorer(args)
    variants = {}
    for name in names:
        tiers, overrides = SCORERS[name]
        variant = scorer.with_config(**overrides)
        _check_word_classes(variant, tiers)
        variants[name] = tiers, variant
    queries = load_queries(args.queries)
    token_cache = {q.query_id: tokenize(q.text) for q in queries}
    reports: dict[str, EvalReport] = {}
    for name, (tiers, variant) in variants.items():
        plans = {qid: variant.plan(tokens, tiers) for qid, tokens in token_cache.items()}
        reports[name] = compute_report(
            queries,
            lambda query, image, plans=plans: plans[query.query_id].log_score(image),
            scorer.bank.images,
        )
    if args.output == "json":
        print(json.dumps({n: r.to_dict() for n, r in reports.items()}, indent=2))
    else:
        print(format_table(reports))
    return EXIT_OK


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ingest": cmd_ingest,
        "classify": cmd_classify,
        "score": cmd_score,
        "eval": cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"cnretrieval: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestError, SnapshotError, EvaluationError, OSError) as exc:
        print(f"cnretrieval: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
