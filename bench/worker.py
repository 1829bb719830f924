"""One workload in a fresh process, so that ru_maxrss covers only this workload.

Usage: python3 worker.py SPEC.json T0

T0 is the parent's ``time.time()`` just before it started this process;
set-up time runs from there to the first operation. The spec (written by
run.py) names the generated files, the mode and where to write the result:

- ``setup``: import sosec (and load the index for retrieve_query), report
  the set-up time, exit;
- ``timed``: repeat operations for about ``seconds`` (retrieve_query:
  whole passes over the query set, at least ``min_passes`` of them);
- ``once``: one pass over the workload's fixed input (used by traced runs
  and their untraced companion).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _enough(spec: dict, started: float, done: int) -> bool:
    """True once one op ran and, when timed, stopping now ends nearer `seconds` than one more average op would."""
    if spec["mode"] == "once" or not done:
        return bool(done)
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done / 2 >= spec["seconds"]


def _cli_pass(main, argvs: list[list[str]], after_first=None) -> dict:
    """Run CLI invocations back to back as one operation; time them together."""
    ok = True
    start = time.perf_counter()
    try:
        for n, argv in enumerate(argvs):
            ok = main(argv) == 0 and ok
            if n == 0 and after_first is not None:
                after_first()
    except Exception:  # one failed pass is one failed operation, not a dead run
        traceback.print_exc()
        ok = False
    elapsed = time.perf_counter() - start
    rss_mb = _max_rss_mb()
    # Drop the pass's cyclic garbage now, as the end of a CLI process would,
    # so that the next pass does not pay for collecting it.
    gc.collect()
    return {"s": elapsed, "ok": ok, "rss_mb": rss_mb}


def run_kb_build(spec, mods, tracer, result):
    cli = mods["cli"]
    argvs = [
        ["build-kb", "--posts", spec["posts"], "--comments", spec["comments"],
         "--keywords", spec["keywords"], "--out", spec["kb_out"], "--format", "json"],
        ["index", "--kb", spec["kb_out"], "--out", spec["index_out"], "--format", "json"],
    ]
    passes = result["passes"] = []

    def after_build_kb():
        result.setdefault("kb_rss_mb", _max_rss_mb())

    started = time.perf_counter()
    while not _enough(spec, started, len(passes)):
        if tracer:
            tracer.request(f"pass{len(passes)}")
        one = _cli_pass(cli.main, argvs, after_build_kb)
        one["digest"] = _sha256(spec["kb_out"]) if Path(spec["kb_out"]).is_file() else None
        passes.append(one)


def run_eval_arms(spec, mods, tracer, result):
    cli = mods["cli"]
    argv = ["eval", "--dataset", spec["dataset"], "--arm", ",".join(spec["arms"]),
            "--provider", "mock", "--workers", str(spec["workers"]), "--index", spec["index"],
            "--adapters", spec["adapters"], "--cwe-map", spec["cwe_map"],
            "--supported-cwes", spec["supported_cwes"], "--out", spec["report"], "--format", "json"]
    if tracer:
        for line in Path(spec["dataset"]).read_text(encoding="utf-8").splitlines():
            sample = json.loads(line)
            tracer.note_code(sample["code"], sample["sample_id"])
    passes = result["passes"] = []
    started = time.perf_counter()
    while not _enough(spec, started, len(passes)):
        one = _cli_pass(cli.main, [argv])
        one["digest"] = _sha256(spec["report"]) if Path(spec["report"]).is_file() else None
        passes.append(one)


def run_retrieve_query(spec, mods, tracer, result, index):
    retrieval = mods["retrieval"]
    queries = [json.loads(line) for line in Path(spec["queries"]).read_text(encoding="utf-8").splitlines()]
    latencies, failed_runs = [], []
    rankings: dict[str, list] = {}
    # Timed runs stop only between whole passes over the query set, after at
    # least `min_passes` of them, so that every query has the same number of
    # samples; run.py keeps each query's fastest sample.
    passes = 1 if spec["mode"] == "once" else spec["min_passes"]
    started = time.perf_counter()
    done = 0
    while done < passes * len(queries) or done % len(queries) or not _enough(spec, started, done):
        query = queries[done % len(queries)]
        key = str(query["query_no"])
        if tracer:
            tracer.request(query["query_no"])
        t = time.perf_counter()
        try:
            hits = retrieval.retrieve(index, query["code"], k=spec["k"])
            ranking = [[hit.entry.answer_id, hit.score] for hit in hits]
        except Exception:
            traceback.print_exc()
            ranking = None
        latencies.append(time.perf_counter() - t)
        if key not in rankings:
            rankings[key] = ranking
        elif ranking != rankings[key]:  # the same query must rank the same way every time
            failed_runs.append(done)
        if ranking is None:
            failed_runs.append(done)
        done += 1
    result.update(latencies=latencies, rankings=rankings, failed_runs=sorted(set(failed_runs)),
                  query_order=[q["query_no"] for q in queries])


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t0 = float(sys.argv[2])
    sys.path.insert(0, spec["src"])
    import sosec.cli  # noqa: F401  (set-up cost: the package import)

    if not Path(sosec.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"imported sosec from {sosec.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    mods = {name: sys.modules[f"sosec.{name}"] for name in ("cli", "retrieval")}
    result: dict = {}
    index = None
    if spec["workload"] == "retrieve_query":
        index = mods["retrieval"].load_index(spec["index"])
    result["setup_s"] = time.time() - t0

    if spec["mode"] != "setup":
        if spec["workload"] == "kb_build":
            run_kb_build(spec, mods, tracer, result)
        elif spec["workload"] == "retrieve_query":
            run_retrieve_query(spec, mods, tracer, result, index)
        else:
            run_eval_arms(spec, mods, tracer, result)
    # A pass is one run of the pipeline's CLI, and its high-water mark is what
    # a user's process reaches. Later passes in the same process can add a
    # few MB of allocator arenas at random, so they do not count.
    passes = result.get("passes")
    result["peak_rss_mb"] = passes[0]["rss_mb"] if passes else _max_rss_mb()

    if tracer is not None:
        from tracer import layer_metrics

        op_s = result["latencies"] if "latencies" in result else [p["s"] for p in result["passes"]]
        result["layer"], result["absent"] = layer_metrics(
            tracer, spec["layer_names"], sum(op_s), spec.get("answer_rows", 0))
        tracer.dump(Path(spec["trace_out"]))
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
