"""The rules every JSONL input shares: UTF-8 with an optional byte-order mark, blank
lines skipped, and a malformed line refused by its file and line number. And the
one every JSON reader shares: a document nested too deep is malformed."""

from __future__ import annotations

import json
import re

import pytest

from sosec.analysis import CweMap, load_adapters, parse_bandit_json, parse_sarif
from sosec.config import load_config
from sosec.errors import AdapterError, ConfigError
from sosec.evaluation import load_samples
from sosec.kb import load_kb_jsonl
from sosec.revision import RecordedTranscriptProvider, prompt_hash

from conftest import DEEP_JSON, make_entry


def _transcript_responses(provider) -> list[str]:
    return [provider.complete(prompt) for prompt in ("a", "b")]


# input -> (its loader, what the loaded file holds, its two good records, the message for a bad line 5)
JSONL_INPUTS = {
    "kb": (
        load_kb_jsonl,
        lambda entries: [entry.answer_id for entry in entries],
        [make_entry(1, ["x = 1"]).to_jsonl().strip(), make_entry(2, ["y = 2"]).to_jsonl().strip()],
        [1, 2],
        "bad knowledge-base record on line 5",
    ),
    "dataset": (
        load_samples,
        lambda samples: [sample.sample_id for sample in samples],
        [json.dumps({"sample_id": "a", "code": "x = 1\n"}), json.dumps({"sample_id": "b", "code": "y = 2\n"})],
        ["a", "b"],
        "invalid dataset lines: line 5: ",
    ),
    "transcript": (
        RecordedTranscriptProvider,
        _transcript_responses,
        [json.dumps({"prompt_hash": prompt_hash(p), "response": r}) for p, r in (("a", "ra"), ("b", "rb"))],
        ["ra", "rb"],
        "bad transcript record on line 5",
    ),
}


@pytest.mark.parametrize("kind", JSONL_INPUTS)
def test_jsonl_input_takes_a_bom_skips_blank_lines_and_names_a_bad_line(tmp_path, kind):
    load, held, (first, second), expected, message = JSONL_INPUTS[kind]
    path = tmp_path / "input.jsonl"
    text = f"\ufeff{first}\n\n \t \n{second}\n"
    path.write_text(text, encoding="utf-8")
    assert held(load(path)) == expected
    path.write_text(text + "{not json\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load(path)


# reader -> (what it is called with for a file that holds DEEP_JSON, its error, the start of its message)
DEEP_READERS = {
    "config": (load_config, ConfigError, "cannot read config file {path}: maximum recursion depth"),
    "adapters": (load_adapters, ConfigError, "cannot read adapters config {path}: maximum recursion depth"),
    "cwe-map": (CweMap.from_file, ConfigError, "cannot read CWE map {path}: maximum recursion depth"),
    "kb": (load_kb_jsonl, ConfigError, "{path}: bad knowledge-base record on line 1: maximum recursion depth"),
    "dataset": (load_samples, ConfigError, "invalid dataset lines: line 1: maximum recursion depth"),
    "transcript": (RecordedTranscriptProvider, ConfigError, "{path}: bad transcript record on line 1: maximum"),
    "sarif": (lambda path: parse_sarif(path.read_text(), "codeql"), AdapterError, "not a SARIF log: maximum"),
    "bandit": (lambda path: parse_bandit_json(path.read_text(), "bandit"), AdapterError, "not a JSON report: maximum"),
}


@pytest.mark.parametrize("kind", DEEP_READERS)
def test_a_document_nested_too_deep_is_refused_as_malformed(tmp_path, kind):
    read, error, message = DEEP_READERS[kind]
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON + "\n", encoding="utf-8")
    with pytest.raises(error) as caught:
        read(path)
    assert message.format(path=path) in str(caught.value)
