"""The rules every JSONL input shares: UTF-8 with an optional byte-order mark, blank
lines skipped, and a malformed line refused by its file and line number."""

from __future__ import annotations

import json
import re

import pytest

from sosec.errors import ConfigError
from sosec.evaluation import load_samples
from sosec.kb import load_kb_jsonl
from sosec.revision import RecordedTranscriptProvider, prompt_hash

from conftest import make_entry


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
