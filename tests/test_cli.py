from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import FIXTURE_KB_SHA256, logged_adapter_specs, raise_in_body_parser_on, stub_adapter_specs
import sosec
from sosec import __version__
from sosec.analysis import Finding
from sosec.cli import main
from sosec.config import default_data_path, load_config
from sosec.evaluation import load_samples
from sosec.kb import KeywordSet, KnowledgeEntry
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
    assert rc == 2
    assert capsys.readouterr().err == (
        "sosec: error: provider.transcript_path is required when provider.kind is 'recorded'\n"
    )


def test_config_file_mock_kind_revises_as_the_provider_flag_does(tmp_path, capsys, fixtures_dir):
    kb_index = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, kb_index, capsys)
    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"kind": "mock"}}), encoding="utf-8")
    argv = ["revise", "--index", str(kb_index), "--code", str(code)]
    assert main(argv + ["--provider", "mock"]) == 0
    from_flag = capsys.readouterr().out
    assert main(argv + ["--config", str(config)]) == 0
    assert capsys.readouterr().out == from_flag
    assert json.loads(from_flag)["changed"] is True


_EVERY_COMMAND = [
    ["version"],
    ["build-kb", "--posts", "Posts.xml", "--comments", "Comments.xml", "--out", "kb.jsonl"],
    ["index", "--kb", "kb.jsonl", "--out", "kb.idx"],
    ["retrieve", "--index", "kb.idx", "--code", "snippet.py"],
    ["revise", "--index", "kb.idx", "--code", "snippet.py"],
    ["analyze", "--file", "snippet.py", "--adapter", "bandit"],
    ["eval", "--dataset", "data.jsonl", "--arm", "prompt_only"],
]


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "kind, message",
    [
        ("recorded", "provider.transcript_path is required when provider.kind is 'recorded'"),
        ("live", "provider.endpoint is required when provider.kind is 'live'"),
        ("deterministic_mock", "provider.kind must be one of mock, recorded, live, got 'deterministic_mock'"),
        ("carrier_pigeon", "provider.kind must be one of mock, recorded, live, got 'carrier_pigeon'"),
    ],
)
def test_a_bad_provider_kind_is_refused_alike_from_a_flag_or_a_file(tmp_path, capsys, argv, kind, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"kind": kind}}), encoding="utf-8")
    assert main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"sosec: error: {message}\n"
    if argv[0] in ("revise", "eval"):
        assert main(argv + ["--provider", kind]) == 2
        assert capsys.readouterr().err == err


def test_config_file_provider_applies_without_provider_flag(tmp_path, capsys, fixtures_dir):
    kb_index = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, kb_index, capsys)
    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    missing = tmp_path / "missing.jsonl"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"provider": {"kind": "recorded", "transcript_path": str(missing)}}),
        encoding="utf-8",
    )
    rc = main(["revise", "--index", str(kb_index), "--code", str(code), "--config", str(config)])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


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


def test_build_kb_fixture_bytes_are_golden(tmp_path, fixtures_dir, capsys):
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
    assert hashlib.sha256(kb_path.read_bytes()).hexdigest() == FIXTURE_KB_SHA256


# The sha256 of the index that `build-kb` then `index` write from the fixture dumps.
FIXTURE_INDEX_SHA256 = "dc02cf0ea97250c9c1e649612d24b363d89d89fad1aed31e4cc0ad77871b7a2b"


def test_index_fixture_bytes_are_golden(tmp_path, fixtures_dir, capsys):
    index_path = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys)
    assert hashlib.sha256(index_path.read_bytes()).hexdigest() == FIXTURE_INDEX_SHA256


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_retrieve_into_a_closed_pipe_exits_1_with_nothing_on_stderr(tmp_path, fixtures_dir, capsys, unbuffered):
    # Buffered, the output first meets the closed pipe in the final flush;
    # unbuffered, in the print itself.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    index_path = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys)
    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    src = str(Path(sosec.__file__).parent.parent)
    argv = ["retrieve", "--index", str(index_path), "--code", str(code), "--format", "json"]
    script = f"import sys; sys.path.insert(0, {src!r}); from sosec.cli import main; sys.exit(main({argv!r}))"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-c", script], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


def test_build_kb_reports_unparseable_bodies(tmp_path, fixtures_dir, capsys, monkeypatch):
    raise_in_body_parser_on(monkeypatch, "Sorting is built in")  # answer 103, upvoted
    rc = main(
        [
            "build-kb",
            "--posts", str(fixtures_dir / "posts_20.xml"),
            "--comments", str(fixtures_dir / "comments_20.xml"),
            "--out", str(tmp_path / "kb.jsonl"),
            "--format", "json",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["unparseable_bodies"] == 1
    assert summary["entries"] == 7


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
    assert record.context_answer_ids[0] == 101


def test_revise_json_keeps_record_key_order(tmp_path, fixtures_dir, capsys):
    index_path = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys)
    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    assert main(["revise", "--index", str(index_path), "--code", str(code)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "sample_id", "original_code", "context_answer_ids", "prompt_text",
        "raw_response", "revised_code", "changed", "parse_ok",
    ]


def test_revise_names_only_the_answers_its_prompt_shows(tmp_path, fixtures_dir, capsys):
    index_path = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys)
    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    argv = ["revise", "--index", str(index_path), "--code", str(code), "--budget", "1200"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["context_answer_ids"] == [101]  # of the hits 101, 102 and 114
    assert "https://stackoverflow.com/a/101" in record["prompt_text"]
    assert "https://stackoverflow.com/a/102" not in record["prompt_text"]
    assert main(argv + ["--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("changed=True parse_ok=True context_answers=[101]\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_revise_reply_that_cannot_be_printed_is_runtime_error(tmp_path, fixtures_dir, capsys, fmt):
    index_path = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys)
    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    assert main(["revise", "--index", str(index_path), "--code", str(code)]) == 0
    prompt = json.loads(capsys.readouterr().out)["prompt_text"]
    transcript = tmp_path / "transcript.jsonl"
    reply = "```python\nx = '\ud800'\n```"  # a lone surrogate
    transcript.write_text(json.dumps({"prompt_hash": prompt_hash(prompt), "response": reply}) + "\n", encoding="utf-8")
    argv = ["revise", "--index", str(index_path), "--code", str(code), "--format", fmt,
            "--provider", "recorded", "--transcript", str(transcript)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("sosec: error: output cannot be encoded")


def test_index_refuses_a_kb_line_with_a_lone_surrogate(tmp_path, capsys):
    kb_path = tmp_path / "kb.jsonl"
    good = KnowledgeEntry(1, 0, 1, "ok", ["x = 1"], [], [], "https://stackoverflow.com/a/1")
    bad = json.loads(good.to_jsonl()) | {"answer_id": 2, "answer_excerpt": "x \ud800"}
    kb_path.write_text(good.to_jsonl() + json.dumps(bad) + "\n", encoding="utf-8")
    assert main(["index", "--kb", str(kb_path), "--out", str(tmp_path / "kb.idx")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad knowledge-base record on line 2" in err


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


def test_analyze_json_keeps_finding_key_order(tmp_path, stub_adapters_file, capsys):
    source = tmp_path / "app.py"
    source.write_text(SHELL_CODE, encoding="utf-8")
    rc = main(
        [
            "analyze",
            "--file", str(source),
            "--adapter", "codeql",
            "--adapters", str(stub_adapters_file),
            "--format", "json",
        ]
    )
    assert rc == 0
    findings = json.loads(capsys.readouterr().out)
    assert findings
    for finding in findings:
        assert list(finding) == ["tool", "rule_id", "cwe", "severity", "message", "file", "line"]


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


def test_analyze_a_file_the_tool_cannot_read_is_runtime_error(tmp_path, stub_adapters_file, capsys):
    source = tmp_path / "app.py"
    source.write_text("def f(x:\n    subprocess.call(x, shell=True)\n", encoding="utf-8")
    rc = main(["analyze", "--file", str(source), "--adapter", "bandit", "--adapters", str(stub_adapters_file)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"adapter bandit could not analyze {source}" in err


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


def test_flag_replaces_an_out_of_range_config_value(tmp_path, fixtures_dir, capsys):
    # the merged config is checked, so a flag that wins over a bad file value is enough
    index_path = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys)
    code = tmp_path / "query.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 0}), encoding="utf-8")
    argv = ["retrieve", "--index", str(index_path), "--code", str(code), "--config", str(config), "--format", "json"]
    assert main(argv + ["-k", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1


@pytest.mark.parametrize(
    "key, value",
    [("kind", 5), ("mock_behavior", None), ("endpoint", 9), ("model_name", ["m"]), ("transcript_path", 1),
     ("temperature", "0"), ("retry_base_delay", True), ("min_request_interval", -1.0),
     ("max_retries", 2.0), ("max_retries", -1), ("max_in_flight", "4"), ("max_in_flight", False),
     ("max_in_flight", 0)],
)
def test_config_file_with_bad_provider_value_is_runtime_error(tmp_path, fixtures_dir, capsys, monkeypatch,
                                                              key, value):
    index_path = tmp_path / "kb.idx"
    _build_index_fixture(tmp_path, fixtures_dir, index_path, capsys)
    code = tmp_path / "snippet.py"
    code.write_text(SHELL_CODE, encoding="utf-8")
    provider = {"kind": "live", "endpoint": "http://localhost:9/v1", key: value}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": provider}), encoding="utf-8")
    monkeypatch.setenv("SOSEC_API_KEY", "x")

    def no_request(*args, **kwargs):
        raise AssertionError("a request was made")

    monkeypatch.setattr("requests.Session.request", no_request)
    assert main(["revise", "--config", str(config), "--index", str(index_path), "--code", str(code)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sosec: error:")
    assert f"provider.{key} must be" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"k": ', "cannot read config file"),
        ("[3]", "must hold a JSON object"),
        (json.dumps({"provider": {"colour": "red"}}), "bad provider section"),
        (json.dumps({"provider": ["mock"]}), "bad provider section"),
    ],
    ids=["not-json", "not-an-object", "unknown-provider-key", "provider-not-an-object"],
)
def test_malformed_config_file_is_runtime_error(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    assert main(["version", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sosec: error:") and f"config file {config}" in err and message in err


def test_invalid_config_file_is_runtime_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 0}), encoding="utf-8")
    assert main(["version", "--config", str(config)]) == 2
    assert "k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, kind",
    [("k", "5", "an integer"), ("workers", 2.5, "an integer"), ("budget", True, "an integer"),
     ("adapters_path", 5, "a string")],
)
def test_config_file_with_wrong_value_type_is_runtime_error(tmp_path, capsys, key, value, kind):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    assert main(["version", "--config", str(config)]) == 2
    assert f"{key} must be {kind}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["retrieve", "--index", "kb.idx", "--code", "snippet.py", "-k", "0"], "k must be >= 1, got 0"),
        (["eval", "--dataset", "data.jsonl", "--arm", "prompt_only", "--workers", "0"],
         "workers must be >= 1, got 0"),
    ],
)
def test_flags_pass_the_config_checks(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_config_file_with_removed_path_key_is_runtime_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kb_path": "kb.jsonl"}), encoding="utf-8")
    assert main(["version", "--config", str(config)]) == 2
    assert "unknown key 'kb_path'" in capsys.readouterr().err


def test_config_file_key_naming_a_method_is_runtime_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"validate": 1}), encoding="utf-8")
    assert main(["version", "--config", str(config)]) == 2
    assert "unknown key 'validate'" in capsys.readouterr().err


def test_eval_with_missing_dataset_is_runtime_error(tmp_path, capsys):
    rc = main(["eval", "--dataset", str(tmp_path / "none.jsonl"), "--arm", "prompt_only"])
    assert rc == 2


def test_eval_with_repeated_sample_id_is_runtime_error(tmp_path, fixtures_dir, capsys):
    lines = (fixtures_dir / "dataset_10.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    lines[2] = json.dumps({**json.loads(lines[2]), "sample_id": json.loads(lines[0])["sample_id"]})
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert main(["eval", "--dataset", str(dataset), "--arm", "prompt_only"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sosec: error:")
    assert "line 3: sample_id 's001' repeats line 1" in err


_ADAPTER_ENTRY = {"command": [sys.executable, "-c", "pass", "{file}"], "format": "sarif"}


@pytest.mark.parametrize(
    "config, message",
    [
        ([1], "defines no adapters"),
        ({"bandit": _ADAPTER_ENTRY}, "defines no adapters"),  # no bare-object form
        ({"adapters": {"bandit": "nope"}}, "adapter bandit: entry must be a JSON object"),
        ({"adapters": {"bandit": {**_ADAPTER_ENTRY, "timeout": "soon"}}},
         "adapter bandit: timeout must be a positive number, got 'soon'"),
        ({"adapters": {"bandit": {**_ADAPTER_ENTRY, "ok_returncodes": 0}}},
         "adapter bandit: ok_returncodes must be a list of integers, got 0"),
        ({"adapters": {"bandit": {**_ADAPTER_ENTRY, "command": "echo {file}"}}},
         "adapter bandit: command must be a list of strings"),
        ({"adapters": {"bandit": {**_ADAPTER_ENTRY, "languages": "python"}}},
         "adapter bandit: languages must be a list of strings or null"),
        ({"adapters": {"bandit": {**_ADAPTER_ENTRY, "timout": 0.001}}}, "adapter bandit: unknown key 'timout'"),
        ({"adapters": {"bandit": {**_ADAPTER_ENTRY, "languages": []}}},
         "adapter bandit: languages must be a list of strings or null (not an empty list), got []"),
        ({"adapters": {"bandit": {**_ADAPTER_ENTRY, "command": [sys.executable, "-c", "pass"]}}},
         "adapter bandit: command has no {file} placeholder"),
        ({"adapters": {"bandit": {"command": _ADAPTER_ENTRY["command"]}}}, "adapter bandit: missing key 'format'"),
        ({"adapters": {"bandit": {**_ADAPTER_ENTRY, "format": ["sarif"]}}},
         "adapter bandit: format must be a string, got ['sarif']"),
        ({"adapters": {"bandit": {**_ADAPTER_ENTRY, "languages": ["pyhton"]}}},
         "adapter bandit: unknown language 'pyhton'"),
        ('{"adapters": ', "cannot read adapters config"),  # written as it is, not as JSON
    ],
    ids=["list", "bare-object", "entry", "timeout", "ok_returncodes", "command", "languages",
         "unknown-key", "empty-languages", "no-file-placeholder", "missing-format", "format-not-a-string",
         "unknown-language", "not-json"],
)
def test_malformed_adapters_config_is_runtime_error(tmp_path, capsys, config, message):
    adapters = tmp_path / "adapters.json"
    adapters.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    source = tmp_path / "app.py"
    source.write_text(SHELL_CODE, encoding="utf-8")
    assert main(["analyze", "--file", str(source), "--adapter", "bandit", "--adapters", str(adapters)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sosec: error:") and message in err


@pytest.mark.parametrize("flag", ["--dataset", "--keywords", "--supported-cwes"])
def test_non_utf8_input_file_is_runtime_error(tmp_path, fixtures_dir, capsys, flag):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("CWE-78 caf\u00e9\n".encode("latin-1"))
    eval_argv = ["eval", "--arm", "prompt_only"]
    argv = {
        "--dataset": eval_argv,
        "--keywords": ["build-kb", "--posts", str(fixtures_dir / "posts_20.xml"),
                       "--comments", str(fixtures_dir / "comments_20.xml"), "--out", str(tmp_path / "kb.jsonl")],
        "--supported-cwes": eval_argv + ["--dataset", str(fixtures_dir / "dataset_10.jsonl")],
    }[flag]
    assert main(argv + [flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sosec: error:") and "can't decode" in err
    assert f"{bad} is not UTF-8 text" in err


@pytest.mark.parametrize(
    "source, load",
    [
        (default_data_path("keywords.txt"), KeywordSet.from_file),
        (Path(__file__).parent / "fixtures" / "dataset_10.jsonl", load_samples),
        (None, load_config),
    ],
    ids=["keywords", "dataset", "config"],
)
def test_a_text_input_with_a_byte_order_mark_loads_the_same(tmp_path, source, load):
    data = source.read_bytes() if source else json.dumps({"k": 3, "provider": {"kind": "mock"}}).encode("utf-8")
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(data)
    marked.write_bytes(b"\xef\xbb\xbf" + data)
    assert load(marked) == load(plain)


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
    # a third adapter, for C only, that flags only revised code must not
    # count as an introduced CWE in a Python sample
    scanner = tmp_path / "shlex_scanner.py"
    scanner.write_text(_SHLEX_SCANNER, encoding="utf-8")
    specs = stub_adapter_specs()
    specs["shlex"] = {"command": [sys.executable, str(scanner), "{file}"], "format": "sarif", "languages": ["c"]}
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
            prompt, _ = build_revision_prompt(record["code"], [], budget=8000)
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


def test_eval_live_reply_without_text_costs_one_sample(tmp_path, fixtures_dir, stub_adapters_file, capsys,
                                                      monkeypatch):
    dataset = _first_samples(fixtures_dir, tmp_path, 4)
    refused = json.loads(dataset.read_text(encoding="utf-8").splitlines()[2])["code"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"kind": "live", "endpoint": "http://localhost:9/v1"}}),
                      encoding="utf-8")
    monkeypatch.setenv("SOSEC_API_KEY", "x")

    def post(session, url, json=None, headers=None, timeout=None):
        # an OpenAI-style refusal carries null content
        content = None if refused in json["messages"][0]["content"] else "no change needed"
        payload = {"choices": [{"message": {"content": content}}]}
        return SimpleNamespace(status_code=200, json=lambda: payload)

    monkeypatch.setattr("requests.Session.post", post)
    argv = ["eval", "--dataset", str(dataset), "--arm", "prompt_only,revision_only", "--config", str(config),
            "--adapters", str(stub_adapters_file), "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert {arm: m["samples"] for arm, m in report["per_arm"].items()} == {"prompt_only": 3, "revision_only": 3}
    assert "'provider_errors': 1" in report["footnotes"][0]


def test_eval_with_repeated_arm_is_rejected(fixtures_dir, stub_adapters_file, capsys):
    rc = main([
        "eval", "--dataset", str(fixtures_dir / "dataset_10.jsonl"),
        "--arm", "revision_only,revision_only", "--adapters", str(stub_adapters_file),
    ])
    assert rc == 2
    assert "revision_only" in capsys.readouterr().err


def test_eval_rejects_unknown_arm_before_any_analyzer_runs(tmp_path, fixtures_dir, capsys):
    log = tmp_path / "calls.log"
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps({"adapters": logged_adapter_specs(log)}), encoding="utf-8")
    rc = main([
        "eval", "--dataset", str(fixtures_dir / "dataset_10.jsonl"),
        "--arm", "bogus", "--adapters", str(adapters),
    ])
    assert rc == 2
    assert "unknown arm 'bogus'" in capsys.readouterr().err
    assert not log.exists()


def test_eval_rejects_baseline_arm_not_run_before_any_analyzer_runs(tmp_path, fixtures_dir, capsys):
    log = tmp_path / "calls.log"
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps({"adapters": logged_adapter_specs(log)}), encoding="utf-8")
    rc = main([
        "eval", "--dataset", str(fixtures_dir / "dataset_10.jsonl"),
        "--arm", "revision_only", "--baseline-arm", "prompt_only", "--adapters", str(adapters),
    ])
    assert rc == 2
    assert "--baseline-arm 'prompt_only'" in capsys.readouterr().err
    assert not log.exists()


def test_eval_rejects_missing_cwe_label_before_any_analyzer_runs(tmp_path, fixtures_dir, capsys):
    dataset = _first_samples(fixtures_dir, tmp_path, 3)
    records = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
    del records[1]["labeled_cwe"]
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    log = tmp_path / "calls.log"
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps({"adapters": logged_adapter_specs(log)}), encoding="utf-8")
    rc = main([
        "eval", "--dataset", str(dataset), "--arm", "cwe_label", "--adapters", str(adapters),
    ])
    assert rc == 2
    assert "missing on: s002" in capsys.readouterr().err
    assert not log.exists()


def test_eval_with_a_missing_analyzer_binary_exits_2_naming_it(tmp_path, fixtures_dir, capsys):
    specs = stub_adapter_specs()
    specs["bandit"]["command"] = ["no-such-analyzer-xyz", "{file}"]
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps({"adapters": specs}), encoding="utf-8")
    rc = main([
        "eval", "--dataset", str(fixtures_dir / "dataset_10.jsonl"), "--arm", "prompt_only", "--adapters", str(adapters),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert "analyzer binary not found on PATH: no-such-analyzer-xyz" in captured.err
    assert captured.out == ""


# an --out that is an input would be overwritten with the output
_BAD_OUTS = ["no/such/dir/out", ".", "input"]
_BAD_OUT_IDS = ["missing-directory", "a-directory", "an-input"]


def _refusal(out, tmp_path, input_flag: str) -> str:
    if out == tmp_path / "input":
        return f"--out {out} is the file that {input_flag} {out} names"
    return str(out)


@pytest.mark.parametrize("out", _BAD_OUTS, ids=_BAD_OUT_IDS)
def test_eval_refuses_an_out_path_it_cannot_write_before_any_analyzer_runs(tmp_path, fixtures_dir, capsys, out):
    out = tmp_path / out
    dataset = tmp_path / "input"
    dataset.write_bytes((fixtures_dir / "dataset_10.jsonl").read_bytes())
    log = tmp_path / "calls.log"
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps({"adapters": logged_adapter_specs(log)}), encoding="utf-8")
    rc = main([
        "eval", "--dataset", str(dataset), "--arm", "prompt_only,revision_only",
        "--adapters", str(adapters), "--out", str(out),
    ])
    assert rc == 2
    assert _refusal(out, tmp_path, "--dataset") in capsys.readouterr().err
    assert not log.exists()
    assert dataset.read_bytes() == (fixtures_dir / "dataset_10.jsonl").read_bytes()


@pytest.mark.parametrize("out", _BAD_OUTS, ids=_BAD_OUT_IDS)
def test_build_kb_refuses_an_out_path_it_cannot_write_before_any_dump_is_read(
    tmp_path, fixtures_dir, capsys, monkeypatch, out
):
    out = tmp_path / out
    comments = tmp_path / "input"
    comments.write_bytes((fixtures_dir / "comments_20.xml").read_bytes())
    calls = []
    monkeypatch.setattr("sosec.cli.build_knowledge_base", lambda *args, **kwargs: calls.append(args))
    rc = main([
        "build-kb", "--posts", str(fixtures_dir / "posts_20.xml"), "--comments", str(comments),
        "--out", str(out),
    ])
    assert rc == 2
    assert _refusal(out, tmp_path, "--comments") in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("out", _BAD_OUTS, ids=_BAD_OUT_IDS)
def test_index_refuses_an_out_path_it_cannot_write_before_the_kb_is_read(tmp_path, capsys, monkeypatch, out):
    out = tmp_path / out
    kb_path = tmp_path / "input"
    kb_path.write_text(KnowledgeEntry(1, 0, 1, "ok", ["x = 1"], [], [], "https://stackoverflow.com/a/1").to_jsonl())
    kb_bytes = kb_path.read_bytes()
    calls = []
    monkeypatch.setattr("sosec.cli.load_kb_jsonl", lambda path: calls.append(path))
    rc = main(["index", "--kb", str(kb_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert _refusal(out, tmp_path, "--kb") in err and ".tmp" not in err
    assert calls == []
    assert list(tmp_path.iterdir()) == [kb_path]
    assert kb_path.read_bytes() == kb_bytes


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # build-kb imports it only when it starts worker processes; loaded with
    # the CLI, it would slow the start of every command.
    src = str(Path(sosec.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import sosec.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
