"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

from conftest import bm25_brute_force, make_entry, stub_adapter_specs
from sosec.analysis import Finding, parse_bandit_json, parse_sarif
from sosec.cli import main
from sosec.config import default_data_path
from sosec.evaluation import Trial, compute_metrics
from sosec.kb import (
    KeywordSet,
    build_knowledge_base,
    is_security_relevant,
    load_kb_jsonl,
    parse_dump_rows,
    passes_quality_gate,
    write_kb_jsonl,
)
from sosec.retrieval import build_index, retrieve, save_index


def _outcome(sample_id, arm, before, after, unchanged):
    return Trial(
        sample_id=sample_id,
        arm=arm,
        before_cwes=set(before),
        after_cwes=set(after),
        unchanged=unchanged,
    )


def _arm_outcomes(arm, vuln_samples, fixed, extra_samples=0, unchanged_count=0):
    """vuln_samples one-CWE outcomes (first `fixed` fixed), plus CWE-free ones."""
    outcomes = []
    for i in range(vuln_samples):
        outcomes.append(
            _outcome(
                f"{arm}-{i:04d}",
                arm,
                ["CWE-78"],
                [] if i < fixed else ["CWE-78"],
                unchanged=i < unchanged_count,
            )
        )
    for j in range(extra_samples):
        outcomes.append(
            _outcome(
                f"{arm}-x{j:04d}",
                arm,
                [],
                [],
                unchanged=(vuln_samples + j) < unchanged_count,
            )
        )
    return outcomes


def test_metric_table_reproduction():
    started = time.perf_counter()

    # three-dataset security outcomes: fix rates, deltas, zero introduction
    table_main = {
        "sallm": (53, {"prompt_only": (26, "49.1"), "cwe_label": (31, "58.5"), "sosecure": (38, "71.7")}, "22.6"),
        "llmseceval": (23, {"prompt_only": (13, "56.5"), "cwe_label": (16, "69.6"), "sosecure": (21, "91.3")}, "34.8"),
        "lmsys": (240, {"prompt_only": (90, "37.5"), "cwe_label": (110, "45.8"), "sosecure": (232, "96.7")}, "59.2"),
    }
    for dataset, (denominator, arms, delta) in table_main.items():
        outcomes = []
        for arm, (fixed, _) in arms.items():
            outcomes += _arm_outcomes(arm, denominator, fixed)
        report = compute_metrics(outcomes, baseline_arm="prompt_only")
        for arm, (_, expected) in arms.items():
            assert f"{report.per_arm[arm].fix_rate:.1f}" == expected, (dataset, arm)
            assert report.per_arm[arm].intro_rate == 0.0
        assert f"{report.per_arm['sosecure'].delta_fix_vs_baseline:.1f}" == delta

    # ablation arms on the 240-sample set, including the exact-quarter cell
    ablation = {"prompt_only": (90, "37.5"), "cwe_label": (110, "45.8"),
                "revision_only": (99, "41.2"), "sosecure": (232, "96.7")}
    outcomes = []
    for arm, (fixed, _) in ablation.items():
        outcomes += _arm_outcomes(arm, 240, fixed)
    report = compute_metrics(outcomes)
    for arm, (_, expected) in ablation.items():
        assert f"{report.per_arm[arm].fix_rate:.1f}" == expected
        assert report.per_arm[arm].intro_rate == 0.0

    # C-code cells: fix rates over 30 flagged CWEs, no-change over 40 samples
    c_table = {"prompt_only": (16, "53.3", 32, "80.0"),
               "cwe_label": (18, "60.0", 31, "77.5"),
               "sosecure": (22, "73.3", 29, "72.5")}
    outcomes = []
    for arm, (fixed, _, unchanged, _) in c_table.items():
        outcomes += _arm_outcomes(arm, 30, fixed, extra_samples=10, unchanged_count=unchanged)
    report = compute_metrics(outcomes)
    for arm, (_, fix_expected, _, nc_expected) in c_table.items():
        metrics = report.per_arm[arm]
        assert metrics.samples == 40 and metrics.vulns_before == 30
        assert f"{metrics.fix_rate:.1f}" == fix_expected
        assert f"{metrics.no_change_rate:.1f}" == nc_expected
        assert metrics.intro_rate == 0.0

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS: metric-table reproduction ({elapsed:.2f}s)")


def test_bm25_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240601)
    vocab = [f"w{i}" for i in range(60)]

    for corpus_no in range(200):
        num_docs = rng.randint(1, 50)
        docs = []
        for _ in range(num_docs):
            if docs and rng.random() < 0.15:
                docs.append(list(docs[rng.randrange(len(docs))]))  # force score ties
            else:
                docs.append([rng.choice(vocab) for _ in range(rng.randint(1, 30))])
        answer_ids = rng.sample(range(10_000, 99_999), num_docs)
        entries = [make_entry(aid, [" ".join(doc)]) for aid, doc in zip(answer_ids, docs)]
        index = build_index(entries)

        query_tokens = [rng.choice(vocab + ["oov1", "oov2"]) for _ in range(rng.randint(1, 8))]
        query = " ".join(query_tokens)

        oracle_scores = bm25_brute_force(docs, query_tokens, k1=1.2, b=0.75)
        expected = sorted(
            ((aid, score) for aid, score in zip(answer_ids, oracle_scores) if score > 0),
            key=lambda item: (-item[1], item[0]),
        )
        got = [(h.entry.answer_id, h.score) for h in retrieve(index, query, k=num_docs)]
        assert [aid for aid, _ in got] == [aid for aid, _ in expected], f"corpus {corpus_no}"
        for (_, got_score), (_, want_score) in zip(got, expected):
            assert abs(got_score - want_score) <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE PASS: BM25 oracle equivalence on 200 corpora ({elapsed:.2f}s)")


PLANTED_CODE = (
    "@app.route('/execute')\n"
    "def execute():\n"
    "    cmd = request.args.get('cmd')\n"
    "    subprocess.call(cmd, shell=True)\n"
    "    return 'done'\n"
)

GENERATED_SNIPPET = (
    "from flask import Flask, request\n"
    "import subprocess\n\n"
    "app = Flask(__name__)\n\n"
    "@app.route('/run')\n"
    "def run_command():\n"
    "    cmd = request.args.get('cmd')\n"
    "    result = subprocess.call(cmd, shell=True)\n"
    "    return str(result)\n"
)


def _innocuous_entries(count: int, rng: random.Random):
    templates = [
        "def helper_{i}(values):\n    return sorted(values)[{i} % len(values)]\n",
        "totals_{i} = sum(row[{i} % 3] for row in table)\n",
        "with open('data_{i}.csv') as fh:\n    rows = fh.readlines()\n",
        "mapping_{i} = {{key: len(key) for key in names}}\n",
        "pattern_{i} = re.compile(r'[a-z]+{i}')\n",
        "stamp_{i} = datetime.now().isoformat()\n",
        "squares_{i} = [value * value for value in numbers]\n",
        "joined_{i} = ', '.join(str(item) for item in items)\n",
    ]
    entries = []
    for i in range(count):
        code = rng.choice(templates).format(i=i)
        entries.append(
            make_entry(
                1000 + i,
                [code],
                excerpt=f"General-purpose snippet number {i}.",
                comments=[("works for me", 1)],
            )
        )
    return entries


def test_planted_context_retrieval():
    started = time.perf_counter()
    rng = random.Random(7)
    entries = _innocuous_entries(99, rng)
    planted = make_entry(
        4242,
        [PLANTED_CODE],
        excerpt="Passing the raw string through the shell is the risky part.",
        comments=[
            ("shell=True lets attacker-controlled input reach the shell: command injection", 6),
            ("pass an argument list instead of a string", 2),
        ],
    )
    entries.insert(57, planted)
    assert len(entries) == 100

    index = build_index(entries)
    hits = retrieve(index, GENERATED_SNIPPET)  # default k
    assert len(hits) == 5
    assert hits[0].entry.answer_id == 4242
    assert hits[0].rank == 1

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE PASS: planted-context retrieval at rank 1 ({elapsed:.2f}s)")


def test_end_to_end_offline_pipeline(tmp_path, fixtures_dir, capsys):
    started = time.perf_counter()

    adapters_file = tmp_path / "adapters.json"
    adapters_file.write_text(json.dumps({"adapters": stub_adapter_specs()}), encoding="utf-8")

    rng = random.Random(11)
    entries = _innocuous_entries(20, rng)
    entries.append(
        make_entry(
            4242,
            [PLANTED_CODE],
            excerpt="Building a shell string from request input invites command injection.",
            comments=[("use an argument list, not shell=True", 5)],
        )
    )
    index_path = tmp_path / "kb.idx"
    save_index(build_index(entries), index_path)

    report_path = tmp_path / "report.json"
    rc = main(
        [
            "eval",
            "--dataset", str(fixtures_dir / "dataset_10.jsonl"),
            "--arm", "sosecure,prompt_only",
            "--index", str(index_path),
            "--provider", "mock",
            "--adapters", str(adapters_file),
            "--out", str(report_path),
            "--format", "json",
        ]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert printed == report

    sosecure = report["per_arm"]["sosecure"]
    assert sosecure["fix_rate"] == 100.0
    assert sosecure["intro_rate"] == 0.0
    prompt_only = report["per_arm"]["prompt_only"]
    assert prompt_only["fix_rate"] == 0.0
    assert prompt_only["no_change_rate"] == 100.0
    assert report["counts"] == {"samples": 10, "vulns_before": 10}

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE PASS: end-to-end offline pipeline via `sosec eval` ({elapsed:.2f}s)")


EXPECTED_KB_IDS = [101, 102, 105, 107, 109, 112, 114]


def _build_fixture_kb(fixtures_dir, keywords):
    with open(fixtures_dir / "posts_20.xml", "rb") as posts_fh, open(
        fixtures_dir / "comments_20.xml", "rb"
    ) as comments_fh:
        return build_knowledge_base(posts_fh, comments_fh, keywords)


def test_kb_construction_gates(fixtures_dir, tmp_path):
    started = time.perf_counter()
    base_keywords = KeywordSet.from_file(default_data_path("keywords.txt"))

    entries = _build_fixture_kb(fixtures_dir, base_keywords)
    assert [e.answer_id for e in entries] == EXPECTED_KB_IDS

    # every emitted entry re-checks against all three gates post hoc
    kb_path = tmp_path / "kb.jsonl"
    write_kb_jsonl(entries, kb_path)
    for entry in load_kb_jsonl(kb_path):
        assert is_security_relevant(entry.answer_excerpt, [t for t, _ in entry.comments], base_keywords)
        assert passes_quality_gate(entry.answer_score, [s for _, s in entry.comments])
        assert entry.code_blocks

    # enlarging the keyword set never shrinks the output
    rng = random.Random(23)
    extra_pool = [
        "comprehension", "sorted", "manual loop", "markup", "replacement",
        "bleach", "memcpy", "orphan", "zzqx", "quux", "parameterize",
        "trust boundary", "hexdigest", "argument vector", "builtin",
    ]
    base_ids = set(EXPECTED_KB_IDS)
    for _ in range(50):
        additions = rng.sample(extra_pool, rng.randint(1, len(extra_pool)))
        superset = KeywordSet.from_iterable(set(base_keywords.keywords) | set(additions))
        super_ids = {e.answer_id for e in _build_fixture_kb(fixtures_dir, superset)}
        assert super_ids >= base_ids

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE PASS: KB construction gates and keyword monotonicity ({elapsed:.2f}s)")


def test_parser_bit_exactness(fixtures_dir):
    started = time.perf_counter()

    sarif_text = (fixtures_dir / "codeql_sample.sarif").read_text(encoding="utf-8")
    assert parse_sarif(sarif_text, "codeql") == [
        Finding("codeql", "py/command-line-injection", "high",
                   "This command line depends on a user-provided value.", "app.py", 7),
        Finding("codeql", "py/weak-cryptographic-algorithm", "medium",
                   "Use of a broken or weak cryptographic algorithm.", "crypto.py", 12),
        Finding("codeql", "experimental/custom-rule", "low",
                   "Experimental heuristic tripped.", "app.py", 1),
    ]

    bandit_text = (fixtures_dir / "bandit_sample.json").read_text(encoding="utf-8")
    assert parse_bandit_json(bandit_text, "bandit") == [
        Finding("bandit", "B602", "high",
                   "subprocess call with shell=True identified, security issue.", "app.py", 7),
        Finding("bandit", "B999", "low",
                   "A custom plugin rule fired.", "app.py", 3),
    ]

    posts_tally = Counter()
    with open(fixtures_dir / "posts_20.xml", "rb") as fh:
        posts = list(parse_dump_rows(fh, "posts", tally=posts_tally))
    assert len(posts) == 19 and posts_tally["skipped"] == 1

    comments_tally = Counter()
    with open(fixtures_dir / "comments_20.xml", "rb") as fh:
        comments = list(parse_dump_rows(fh, "comments", tally=comments_tally))
    assert len(comments) == 7 and comments_tally["skipped"] == 1

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    print(f"\nACCEPTANCE PASS: parser bit-exactness and skip tallies ({elapsed:.2f}s)")
