"""Offline benchmark of the sosec pipeline: three workloads, checked outputs.

    python3 bench/run.py --workload kb_build --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --smoke

Each run generates its inputs from --seed (untimed), builds what the
workload needs with the code under test (untimed), then runs the workload
in fresh processes started from bench/worker.py, so that peak RSS covers
only the workload. With --trace 0 it prints the end-to-end metrics listed
in BENCHMARK.json; with --trace 1 it runs the workload's fixed input once
untraced and once traced and prints the per-layer metrics. Outputs are
checked against the generation plan or an independent oracle; a wrong
output counts as a failed operation. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--smoke runs tiny inputs for a quick end-to-end check of the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("kb_build", "retrieve_query", "eval_arms")
# Every child is stopped by this many seconds after its workload started,
# so that a run ends within its 180-second limit even when the program hangs.
DEADLINE_S = 170
_started = time.monotonic()

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import gen  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot produce a result (a crashed worker or index build)."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _env(work: Path) -> dict:
    """The program's environment: the checkout's source, temp files in the run directory."""
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))


def _start_index_build(kb: Path, out: Path) -> subprocess.Popen:
    """Build an index with the code under test, in the background."""
    return subprocess.Popen([sys.executable, "-m", "sosec", "index", "--kb", str(kb), "--out", str(out)],
                            stdout=subprocess.DEVNULL, env=_env(kb.parent), cwd=kb.parent)


def _wait(proc: subprocess.Popen, what: str) -> None:
    try:
        code = proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - _started)))
    except BaseException as exc:  # timed out, or this process is being stopped
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{what} timed out") from None
        raise
    if code != 0:
        raise BenchError(f"{what} exited with {code}")


def _worker(spec: dict, work: Path, tag: str, mode: str, trace: bool = False) -> dict:
    spec = dict(spec, mode=mode, trace=trace, out=str(work / f"{tag}.json"))
    spec_path = work / f"{tag}-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.time()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path), repr(t0)],
                            stdout=subprocess.DEVNULL, env=_env(work), cwd=work)
    _wait(proc, f"{spec['workload']} worker ({mode})")
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


# ------------------------------------------------------------ preparation


def prepare_kb_build(seed, inputs, work, spec):
    plan = gen.make_dump(seed, inputs, work)
    shutil.copy(gen.DATA_DIR / "keywords.txt", work / "keywords.txt")
    spec.update(posts=str(work / "posts.xml"), comments=str(work / "comments.xml"),
                keywords=str(work / "keywords.txt"), kb_out=str(work / "kb.jsonl"),
                index_out=str(work / "kb.idx"), answer_rows=plan["answer_rows"])
    return plan, None


def prepare_retrieve_query(seed, inputs, work, spec):
    plan = gen.make_retrieval_inputs(seed, inputs, work)
    build = _start_index_build(work / "kb.jsonl", work / "kb.idx")
    try:
        queries = {}
        for line in (work / "queries.jsonl").read_text(encoding="utf-8").splitlines():
            query = json.loads(line)
            if query["query_no"] in plan["checked_queries"]:
                queries[query["query_no"]] = query["code"]
        oracle = checks.Bm25Oracle(work / "kb.jsonl", queries)
    finally:
        _wait(build, "index build")
    spec.update(index=str(work / "kb.idx"), queries=str(work / "queries.jsonl"), k=plan["k"])
    return plan, oracle


def prepare_eval_arms(seed, inputs, work, spec):
    plan = gen.make_eval_inputs(seed, inputs, work)
    build = _start_index_build(work / "index_kb.jsonl", work / "index.idx")
    try:
        adapters = {}
        for name, stub, fmt, codes, langs in (
            ("bandit", "stub_bandit.py", "bandit_json", [0, 1], ["python"]),
            ("codeql", "stub_codeql.py", "sarif", [0], ["python", "c"]),
        ):
            shutil.copy(BENCH / "stubs" / stub, work / stub)
            # -S: the stubs need only the standard library, and skipping
            # site set-up keeps each analyzer process start short and steady.
            adapters[name] = {"command": [sys.executable, "-S", str(work / stub), "{file}"], "format": fmt,
                              "timeout": 60, "ok_returncodes": codes, "languages": langs}
        (work / "adapters.json").write_text(json.dumps({"adapters": adapters}, indent=2), encoding="utf-8")
        for name in ("cwe_map.json", "supported_cwes.txt"):
            shutil.copy(gen.DATA_DIR / name, work / name)
    finally:
        _wait(build, "index build")
    spec.update(dataset=str(work / "dataset.jsonl"), index=str(work / "index.idx"),
                adapters=str(work / "adapters.json"), cwe_map=str(work / "cwe_map.json"),
                supported_cwes=str(work / "supported_cwes.txt"), report=str(work / "report.json"),
                arms=plan["arms"], workers=inputs["workers"])
    return plan, None


PREPARE = {"kb_build": prepare_kb_build, "retrieve_query": prepare_retrieve_query,
           "eval_arms": prepare_eval_arms}


# ----------------------------------------------------------------- checks


def _check_passes(results, output: Path, problems: list[str], ops_per_pass: int):
    """(attempted, failed) over CLI passes; a pass fails unless its output is the checked one."""
    good = _sha256(output) if output.is_file() and not problems else None
    attempted = failed = 0
    for result in results:
        for one in result["passes"]:
            attempted += ops_per_pass
            if not one["ok"] or one["digest"] != good:
                failed += ops_per_pass
    return attempted, failed


def verify(name, spec, plan, oracle, results) -> dict:
    """Check the outputs; return attempted/failed ops, digests and problems."""
    if name == "kb_build":
        kb = Path(spec["kb_out"])
        problems = checks.check_kb(kb, plan) if kb.is_file() else ["no kb.jsonl written"]
        attempted, failed = _check_passes(results, kb, problems, plan["answer_rows"])
        digests = {"kb.jsonl": _sha256(kb) if kb.is_file() else None}
    elif name == "eval_arms":
        report = Path(spec["report"])
        problems = (checks.check_report(json.loads(report.read_text(encoding="utf-8")), plan)
                    if report.is_file() else ["no report.json written"])
        attempted, failed = _check_passes(results, report, problems, len(plan["samples"]))
        digests = {"report.json": _sha256(report) if report.is_file() else None}
    else:
        problems, attempted, failed = [], 0, 0
        for result in results:
            bad = checks.check_rankings(result["rankings"], oracle, plan)
            problems += [f"query {q}: {reason}" for q, reason in sorted(bad.items())]
            order, failed_runs = result["query_order"], set(result["failed_runs"])
            for n in range(len(result["latencies"])):
                attempted += 1
                failed += order[n % len(order)] in bad or n in failed_runs
        rankings = json.dumps(sorted((int(q), r) for q, r in results[-1]["rankings"].items()))
        digests = {"rankings": hashlib.sha256(rankings.encode()).hexdigest()}
    return {"attempted": attempted, "failed": failed, "digests": digests, "problems": problems}


# ---------------------------------------------------------------- metrics


def _op_seconds(result: dict) -> list[float]:
    return result["latencies"] if "latencies" in result else [p["s"] for p in result["passes"]]


def _fastest_per_query(result: dict) -> list[float]:
    """Each query's fastest time over the run's whole passes over the query set.

    On a shared machine this loop can run at half speed for tens of seconds
    at a time; passes that far apart rarely both fall in such a stretch, so
    the fastest of them reads the program more than the neighbours.
    """
    latencies, count = result["latencies"], len(result["query_order"])
    return [min(latencies[n::count]) for n in range(count)]


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(name, plan, setups: list[float], main: dict) -> tuple[dict, str]:
    op_s = _fastest_per_query(main) if name == "retrieve_query" else _op_seconds(main)
    units = {"kb_build": plan.get("answer_rows"), "retrieve_query": 1,
             "eval_arms": len(plan.get("samples", []))}[name]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": units * len(op_s) / sum(op_s),
        "latency_p50_ms": 1000.0 * statistics.median(op_s),
        "latency_p95_ms": 1000.0 * _percentile(op_s, 0.95),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    if name == "retrieve_query":
        passes = len(main["latencies"]) // len(op_s)
        note = f"fastest of {passes} passes for each of {len(op_s)} queries, {len(setups)} set-ups"
    else:
        note = f"{len(op_s)} pass latencies, {len(setups)} set-ups"
    return values, note


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool, bench_spec: dict) -> dict:
    global _started
    _started = time.monotonic()
    plan_all = gen.load_plan()
    inputs = dict(plan_all["workloads"][name]["inputs"])
    if smoke:
        inputs.update(plan_all["workloads"][name]["smoke"])
    work = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = {"workload": name, "src": str(SRC), "seconds": seconds,
                "min_passes": plan_all["workloads"][name].get("min_passes", 1)}
        plan, oracle = PREPARE[name](seed, inputs, work, spec)
        if not trace:
            repeats = 1 if smoke else plan_all["setup_repeats"][name]
            setups = [_worker(spec, work, f"setup{n}", "setup")["setup_s"] for n in range(repeats - 1)]
            main = _worker(spec, work, "main", "timed")
            setups.append(main["setup_s"])
            results = [main]
            values, note = end_to_end(name, plan, setups, main)
            units = {m["name"]: m["unit"] for m in bench_spec["end_to_end"]}
        else:
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            names = [m["name"] for m in bench_spec["per_layer"]]
            spec.update(layer_names=names, trace_out=str(out_dir / f"trace-{name}.jsonl"))
            plain = _worker(spec, work, "untraced", "once")
            traced = _worker(spec, work, "traced", "once", trace=True)
            results = [plain, traced]
            values = dict(traced["layer"])
            index = Path(spec.get("index_out") or spec["index"])
            values["retrieval.index_file_mb"] = index.stat().st_size / 2**20
            values["kb.peak_rss_mb"] = plain.get("kb_rss_mb", 0.0)
            # Medians, so that a slow moment on a shared machine during one of
            # the two passes does not read as tracing cost.
            values["trace.overhead_ratio"] = (statistics.median(_op_seconds(traced))
                                              / statistics.median(_op_seconds(plain)))
            missing = set(names) - set(values)
            if missing:
                raise BenchError(f"per-layer metrics not produced: {sorted(missing)}")
            note = f"spans written to {spec['trace_out']}; absent: {traced['absent'] or 'none'}"
            units = {m["name"]: m["unit"] for m in bench_spec["per_layer"]}
        checked = verify(name, spec, plan, oracle, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {name}  seed {seed}  {'traced fixed pass' if trace else f'{seconds} s'}  ({note})")
    for metric, unit in units.items():
        print(f"  {metric:34s} {values[metric]:.6g} {unit}")
    rate = checked["failed"] / checked["attempted"] if checked["attempted"] else 1.0
    print(f"  {'error_rate':34s} {rate:.6g} ratio ({checked['failed']} failed of {checked['attempted']} ops)")
    for what, digest in checked["digests"].items():
        print(f"  digest {what}: sha256:{digest}")
    for problem in checked["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": checked["failed"] == 0 and not checked["problems"],
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one-second runs")
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so that _wait stops the running child
    # and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "sosec" / "__init__.py").is_file():
        print(f"bench: no sosec package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = 1 if args.smoke else (args.seconds or bench_spec["run_seconds"])
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, seconds, bool(args.trace), args.smoke, bench_spec)
                   for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
