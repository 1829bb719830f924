"""Tests of the benchmark itself: its output checks reject wrong outputs, its
generators are deterministic, and every metric BENCHMARK.json names is emitted.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from sosec import cli, retrieval  # noqa: E402
from sosec.kb import load_kb_jsonl  # noqa: E402

PLAN = gen.load_plan()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke_inputs(workload: str) -> dict:
    return dict(PLAN["workloads"][workload]["inputs"], **PLAN["workloads"][workload]["smoke"])


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("make, workload", [
    (gen.make_dump, "kb_build"),
    (gen.make_retrieval_inputs, "retrieve_query"),
    (gen.make_eval_inputs, "eval_arms"),
])
def test_generators_are_deterministic_per_seed(tmp_path, make, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    plans = [make(seed, smoke_inputs(workload), d) for seed, d in zip((7, 7, 8), dirs)]
    assert plans[0] == plans[1]
    assert digest_dir(dirs[0]) == digest_dir(dirs[1])
    assert digest_dir(dirs[0]) != digest_dir(dirs[2])


def test_kb_check_accepts_build_kb_output_and_rejects_wrong_ids_or_content(tmp_path):
    plan = gen.make_dump(3, smoke_inputs("kb_build"), tmp_path)
    kb = tmp_path / "kb.jsonl"
    assert quiet_cli(["build-kb", "--posts", str(tmp_path / "posts.xml"),
                      "--comments", str(tmp_path / "comments.xml"),
                      "--keywords", str(gen.DATA_DIR / "keywords.txt"), "--out", str(kb)]) == 0
    assert checks.check_kb(kb, plan) == []

    lines = kb.read_text(encoding="utf-8").splitlines(keepends=True)
    entries = [json.loads(line) for line in lines]
    two_blocks = next(n for n, e in enumerate(entries) if len(e["code_blocks"]) >= 2)
    commented = next(n for n, e in enumerate(entries) if e["comments"])

    def perturbed(n, change):
        entry = json.loads(lines[n])
        change(entry)
        return "".join(lines[:n] + [json.dumps(entry, ensure_ascii=False) + "\n"] + lines[n + 1:])

    bad_kbs = [
        "".join(lines[1:]),                                                      # an answer missing
        perturbed(0, lambda e: e.update(tags=[])),                               # tags dropped
        perturbed(commented, lambda e: e["comments"][0].update(score=99)),       # a comment score
        perturbed(commented, lambda e: e.update(comments=[c["text"] for c in e["comments"]])),
        perturbed(two_blocks, lambda e: e.update(code_blocks=e["code_blocks"][:1])),  # first block only
        perturbed(0, lambda e: e.update(answer_excerpt=e["answer_excerpt"][:-1])),
        "".join(line.replace('", "', '","') for line in lines),                  # same content, other bytes
    ]
    for bad in bad_kbs:
        kb.write_text(bad, encoding="utf-8")
        assert checks.check_kb(kb, plan)


def test_ranking_check_accepts_retrieve_and_rejects_perturbed_rankings(tmp_path):
    plan = gen.make_retrieval_inputs(3, smoke_inputs("retrieve_query"), tmp_path)
    kb = tmp_path / "kb.jsonl"
    index = retrieval.build_index(load_kb_jsonl(kb))
    queries = {q["query_no"]: q["code"] for q in map(json.loads, (tmp_path / "queries.jsonl").open())}
    rankings = {str(n): [[h.entry.answer_id, h.score] for h in retrieval.retrieve(index, code, k=plan["k"])]
                for n, code in queries.items()}
    oracle = checks.Bm25Oracle(kb, {n: queries[n] for n in plan["checked_queries"]})
    assert checks.check_rankings(rankings, oracle, plan) == {}

    query = str(next(n for n in plan["checked_queries"]
                     if len(rankings[str(n)]) >= 2 and rankings[str(n)][0][1] > rankings[str(n)][1][1]))
    good = rankings[query]
    perturbed = [
        [good[1], good[0]] + good[2:],                          # two hits swapped
        [[good[0][0], good[0][1] * (1 + 1e-6)]] + good[1:],     # one score off
        good[:-1],                                              # a hit missing
        [[good[0][0] + 1, good[0][1]]] + good[1:],              # another answer
    ]
    for bad in perturbed:
        assert int(query) in checks.check_rankings(dict(rankings, **{query: bad}), oracle, plan)


def test_report_check_accepts_eval_and_rejects_a_perturbed_report(tmp_path):
    spec = {"workload": "eval_arms"}
    plan, _ = run.prepare_eval_arms(3, smoke_inputs("eval_arms"), tmp_path, spec)
    argv = ["eval", "--dataset", spec["dataset"], "--arm", ",".join(spec["arms"]), "--provider", "mock",
            "--index", spec["index"], "--adapters", spec["adapters"], "--cwe-map", spec["cwe_map"],
            "--supported-cwes", spec["supported_cwes"], "--out", spec["report"]]
    assert quiet_cli(argv) == 0
    report = json.loads(Path(spec["report"]).read_text(encoding="utf-8"))
    assert checks.check_report(report, plan) == []

    for arm, key, value in (("sosecure", "fix_rate", 0.0), ("prompt_only", "no_change_rate", 99.9),
                            ("cwe_label", "samples", 1)):
        bad = json.loads(json.dumps(report))
        bad["per_arm"][arm][key] = value
        assert checks.check_report(bad, plan)
    bad = json.loads(json.dumps(report))
    bad["per_cwe"].popitem()
    assert checks.check_report(bad, plan)


def test_layer_map_matches_benchmark_json():
    assert list(PLAN["layer_map"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(trace, key):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
                           "--trace", str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    want = {f"{w}.{m['name']}": m["unit"] for w in run.WORKLOADS for m in BENCHMARK[key]}
    assert {name: v["unit"] for name, v in final["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in final["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kb_build", "--seed", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
