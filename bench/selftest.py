"""Self-test of the benchmark on a tiny world; runs in well under a minute.

    python3 bench/selftest.py

Checks that:

1. the traced-run launcher replaces every binding of every traced function
   in the ``cnretrieval.*`` namespaces (and lists absent ones);
2. the reference scorer agrees with ``tests/oracle.py``, and the output
   check passes the program's real ranks but counts a deliberately wrong
   rank as a failure;
3. every end-to-end and per-layer metric in ``BENCHMARK.json`` prints with
   its unit, with no failed operation, and the traced run counts every
   image scored;
4. the runner exits non-zero, printing no result, in a directory that holds
   only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import world  # noqa: E402

SEED = 5


def check_bindings():
    import cnretrieval.cli  # noqa: F401  (imports every module the CLI binds)
    spaces = [m for n, m in sorted(sys.modules.items())
              if n == "cnretrieval" or n.startswith("cnretrieval.")]
    bindings, methods = [], []
    for layer, entries in tracer.TRACED.items():
        module = sys.modules[f"cnretrieval.{layer}"]
        for qualname, _ in entries:
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                if attr in getattr(cls, "__dict__", {}):
                    methods.append((cls, attr))
                continue
            fn = vars(module).get(attr)
            bindings += [(m, k, fn) for m in spaces
                         for k, v in vars(m).items() if fn is not None and v is fn]
    t = tracer.Tracer()
    t.install()
    stale = [f"{m.__name__}.{k}" for m, k, fn in bindings
             if getattr(getattr(m, k), "__wrapped__", None) is not fn]
    stale += [f"{cls.__name__}.{attr}" for cls, attr in methods
              if not hasattr(getattr(cls.__dict__[attr], "__func__",
                                     cls.__dict__[attr]), "__wrapped__")]
    if stale:
        raise AssertionError(f"bindings left unwrapped: {stale}")
    print(f"bindings: {len(bindings)} function bindings and {len(methods)} methods "
          f"wrapped; absent: {t.absent or 'none'}")


def check_outputs():
    wl = run.Workload("graph-100", SEED, world.TINY, "selftest-")
    checked = reference.cross_check(wl.dir, wl.queries, wl.scorers, random.Random(SEED), 4)
    ops = run.Ops()
    run.ingest(wl, ops)
    batch = wl.queries[:3]
    child = run.evaluate(wl, batch, ops)
    if ops.failed:
        raise AssertionError(f"program failed the output check: {ops.messages}")
    output = json.loads(child.stdout)
    expected = wl.bands(batch)
    scorer, entry = wl.scorers[0], output[wl.scorers[0]]["per_query"][1]
    entry["rank"] = expected[entry["query_id"]][scorer][1] + 1
    failures = reference.check_eval(output, batch, wl.scorers, expected)
    if len(failures) != 1:
        raise AssertionError(f"a wrong rank gave {len(failures)} failures: {failures}")
    print(f"outputs: {checked} oracle pairs agree; wrong rank caught: {failures[0]}")


def check_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in sorted(world.WORKLOADS):
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                 str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, check=True, cwd=ROOT)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted or not result["correct"] or result["failed"]:
                raise AssertionError(f"{name} trace={trace}: {result}")
            scored = result["metrics"].get("evaluation.images_scored", {}).get("value")
            if trace and scored != world.TINY.images:
                raise AssertionError(f"{name}: {scored} images scored per ranked query, "
                                     f"expected {world.TINY.images}")
    print("metrics: every end-to-end and per-layer metric prints with its unit")


def check_bare_directory():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "graph-100",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        raise AssertionError(f"bare directory run exited {out.returncode}: {out.stdout}")
    print(f"bare directory: exit {out.returncode}, no result printed")


def main() -> int:
    check_outputs()
    check_metrics()
    check_bare_directory()
    check_bindings()  # last: it rebinds the package in this process
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
