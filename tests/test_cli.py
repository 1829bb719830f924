from __future__ import annotations

import json
import sys

from conftest import stub_adapter_specs
from sosec import __version__
from sosec.analysis import Finding
from sosec.cli import main
from sosec.config import default_data_path
from sosec.kb import KnowledgeEntry
from sosec.retrieval import RetrievalHit
from sosec.revision import RevisionRecord, build_revision_prompt, prompt_hash

SHELL_CODE = "import subprocess\n\ndef run(cmd):\n    return subprocess.call(cmd, shell=True)\n"


def test_version_exits_zero(capsys):
    assert main(["version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_retrieve_without_required_flags_is_usage_error(capsys):
    assert main(["retrieve"]) == 1
    err = capsys.readouterr().err
    assert "--index" in err


def test_revise_with_missing_transcript_is_runtime_error(tmp_path, capsys, fixtures_dir):
    # a valid index so the failure is exactly the transcript miss
    kb_index = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, kb_index, capsys)
    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    rc = main(
        [
            "revise",
            "--index", str(kb_index),
            "--code", str(code),
            "--provider", "recorded",
            "--transcript", str(tmp_path / "missing.jsonl"),
        ]
    )
    assert rc == 2
    assert "transcript" in capsys.readouterr().err.lower()


def test_recorded_without_transcript_flag_is_usage_error(tmp_path, capsys, fixtures_dir):
    kb_index = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, kb_index, capsys)
    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    rc = main(
        ["revise", "--index", str(kb_index), "--code", str(code), "--provider", "recorded"]
    )
    assert rc == 1


def _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys):
    kb_path = tmp_path / "kb.jsonl"
    rc = main(
        [
            "build-kb",
            "--posts", str(fixtures_dir / "posts_20.xml"),
            "--comments", str(fixtures_dir / "comments_20.xml"),
            "--out", str(kb_path),
        ]
    )
    assert rc == 0
    rc = main(["index", "--kb", str(kb_path), "--out", str(index_path)])
    assert rc == 0
    capsys.readouterr()  # drop the build logs


def test_pipeline_build_kb_index_retrieve_revise(tmp_path, fixtures_dir, capsys):
    index_path = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys)

    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")

    assert main(["retrieve", "--index", str(index_path), "--code", str(code), "-k", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload, "expected at least one hit"
    hits = [
        RetrievalHit(entry=KnowledgeEntry.from_dict(h["entry"]), score=h["score"], rank=h["rank"])
        for h in payload
    ]
    assert hits[0].entry.answer_id == 101
    assert hits[0].rank == 1
    assert [h["url"] for h in payload] == [h.entry.url for h in hits]

    # retrieve defaults to human-readable text; revise defaults to JSON
    assert main(["retrieve", "--index", str(index_path), "--code", str(code)]) == 0
    text_out = capsys.readouterr().out
    assert text_out.lstrip().startswith("1.")
    assert "https://stackoverflow.com/a/101" in text_out

    assert main(["revise", "--index", str(index_path), "--code", str(code)]) == 0
    record = RevisionRecord(**json.loads(capsys.readouterr().out))
    assert record.changed is True
    assert "shell=True" not in record.revised_code
    assert record.retrieved_answer_ids[0] == 101


def test_analyze_json_round_trips_findings(tmp_path, stub_adapters_file, capsys):
    source = tmp_path / "app.py"
    source.write_text(SHELL_CODE, encoding="utf-8")
    rc = main(
        [
            "analyze",
            "--file", str(source),
            "--adapter", "bandit",
            "--adapters", str(stub_adapters_file),
            "--format", "json",
        ]
    )
    assert rc == 0
    findings = [Finding(**f) for f in json.loads(capsys.readouterr().out)]
    assert [f.rule_id for f in findings] == ["B602"]
    assert findings[0].cwe == "CWE-78"


def test_analyze_unknown_adapter_is_runtime_error(tmp_path, stub_adapters_file, capsys):
    source = tmp_path / "app.py"
    source.write_text("x = 1\n", encoding="utf-8")
    rc = main(
        [
            "analyze",
            "--file", str(source),
            "--adapter", "clippy",
            "--adapters", str(stub_adapters_file),
        ]
    )
    assert rc == 2
    assert "clippy" in capsys.readouterr().err


def test_config_file_sets_k_and_flags_override(tmp_path, fixtures_dir, capsys):
    index_path = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys)
    code = tmp_path / "query.py"
    # tokens shared with several knowledge-base entries
    code.write_text("subprocess.call(cmd, shell=True); sorted(items); pickle.loads(blob)\n", "utf-8")

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 2}), encoding="utf-8")

    assert main(["retrieve", "--index", str(index_path), "--code", str(code), "--format", "json"]) == 0
    unlimited = len(json.loads(capsys.readouterr().out))
    assert unlimited > 2

    assert main(["retrieve", "--index", str(index_path), "--code", str(code), "--config", str(config), "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2

    assert main(["retrieve", "--index", str(index_path), "--code", str(code), "--config", str(config), "-k", "1", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1


def test_invalid_config_file_is_runtime_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 0}), encoding="utf-8")
    assert main(["version", "--config", str(config)]) == 2
    assert "k" in capsys.readouterr().err


def test_eval_with_missing_dataset_is_runtime_error(tmp_path, capsys):
    rc = main(["eval", "--dataset", str(tmp_path / "none.jsonl"), "--arm", "prompt_only"])
    assert rc == 2


def test_eval_with_empty_arm_list_is_usage_error(tmp_path, fixtures_dir, capsys):
    rc = main(["eval", "--dataset", str(fixtures_dir / "dataset_10.jsonl"), "--arm", ","])
    assert rc == 1


_SHLEX_SCANNER = """import json, sys
code = open(sys.argv[-1], encoding="utf-8").read()
results = [{"ruleId": "py/shlex-use", "level": "warning", "message": {"text": "shlex"},
            "locations": [{"physicalLocation": {"artifactLocation": {"uri": sys.argv[-1]},
                                                "region": {"startLine": 1}}}]}] if "shlex" in code else []
json.dump({"version": "2.1.0", "runs": [{"results": results}]}, sys.stdout)
"""


def _first_samples(fixtures_dir, tmp_path, n):
    dataset = tmp_path / "dataset.jsonl"
    lines = (fixtures_dir / "dataset_10.jsonl").read_text(encoding="utf-8").splitlines()[:n]
    dataset.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return dataset


def test_eval_analyzes_after_with_the_filter_adapters_only(tmp_path, fixtures_dir, capsys):
    # a third adapter that flags only revised code must not count as an introduced CWE
    scanner = tmp_path / "shlex_scanner.py"
    scanner.write_text(_SHLEX_SCANNER, encoding="utf-8")
    specs = stub_adapter_specs()
    specs["shlex"] = {"command": [sys.executable, str(scanner), "{file}"], "format": "sarif"}
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps({"adapters": specs}), encoding="utf-8")
    cwe_map = json.loads(default_data_path("cwe_map.json").read_text(encoding="utf-8"))
    cwe_map["shlex"] = {"py/shlex-use": "CWE-89"}
    cwe_map_path = tmp_path / "cwe_map.json"
    cwe_map_path.write_text(json.dumps(cwe_map), encoding="utf-8")

    rc = main(
        [
            "eval",
            "--dataset", str(_first_samples(fixtures_dir, tmp_path, 3)),
            "--arm", "revision_only",
            "--adapters", str(adapters),
            "--cwe-map", str(cwe_map_path),
            "--format", "json",
        ]
    )
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)["per_arm"]["revision_only"]
    assert metrics["fix_rate"] == 100.0
    assert metrics["intro_rate"] == 0.0


def test_eval_transcript_miss_costs_one_sample_in_every_arm(tmp_path, fixtures_dir, stub_adapters_file, capsys):
    dataset = _first_samples(fixtures_dir, tmp_path, 4)
    records = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
    transcript = tmp_path / "transcript.jsonl"
    with open(transcript, "w", encoding="utf-8") as fh:
        for record in records:
            if record["sample_id"] == "s003":
                continue  # no response recorded for this sample's prompt
            prompt = build_revision_prompt(record["code"], [], budget=8000).text
            fh.write(json.dumps({"prompt_hash": prompt_hash(prompt),
                                 "response": f"```python\n{record['code']}```"}) + "\n")

    argv = [
        "eval",
        "--dataset", str(dataset),
        "--arm", "prompt_only,revision_only",
        "--provider", "recorded",
        "--transcript", str(transcript),
        "--adapters", str(stub_adapters_file),
        "--format", "json",
    ]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert {arm: m["samples"] for arm, m in report["per_arm"].items()} == {
        "prompt_only": 3, "revision_only": 3,
    }
    assert report["counts"] == {"samples": 3, "vulns_before": 3}
    assert "'provider_errors': 1" in report["footnotes"][0]

    # when no sample survives, the error names why
    transcript.write_text("", encoding="utf-8")
    assert main(argv) == 2
    assert "'provider_errors': 4" in capsys.readouterr().err
