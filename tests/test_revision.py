from __future__ import annotations

import json
import random
import string

import pytest

from conftest import make_entry
from sosec.errors import ConfigError, PromptBudgetError, ProviderError, TransientProviderError
from sosec.retrieval import RetrievalHit
from sosec.revision import (
    ANSWER_EXCERPT_CAP,
    COMMENT_CAP,
    MAX_COMMENTS_PER_ENTRY,
    DeterministicMockProvider,
    ProviderConfig,
    RecordedTranscriptProvider,
    build_revision_prompt,
    extract_revised_code,
    is_unchanged,
    make_provider,
    prompt_hash,
    revise,
)

CODE = "import subprocess\n\ndef run(cmd):\n    return subprocess.call(cmd, shell=True)\n"


def _hit(rank: int, answer_id: int, excerpt: str = "risky pattern", comments=None) -> RetrievalHit:
    entry = make_entry(
        answer_id,
        ["subprocess.call(cmd, shell=True)"],
        excerpt=excerpt,
        comments=comments or [("avoid the shell here", 3)],
        score=4,
    )
    return RetrievalHit(entry=entry, score=10.0 - rank, rank=rank)


def _hits(n: int) -> list[RetrievalHit]:
    return [_hit(rank, 1000 + rank) for rank in range(1, n + 1)]


def test_prompt_contains_all_sections_in_rank_order():
    prompt = build_revision_prompt(CODE, _hits(5), budget=8000)
    assert len(prompt.context_sections) == 5
    text = prompt.text
    positions = [text.index(f"https://stackoverflow.com/a/{1000 + r}") for r in range(1, 6)]
    assert positions == sorted(positions)
    assert text.index(prompt.system_instruction[:40]) < positions[0]
    assert text.rstrip().endswith(prompt.output_contract)
    assert CODE.strip() in text


def test_prompt_drops_lowest_ranked_sections_first():
    full = build_revision_prompt(CODE, _hits(5), budget=100_000)
    tight_budget = len(full.text) - 1
    trimmed = build_revision_prompt(CODE, _hits(5), budget=tight_budget)
    assert len(trimmed.context_sections) == 4
    assert "1004" in trimmed.text and "1005" not in trimmed.text
    assert len(trimmed.text) <= tight_budget


def test_prompt_with_no_hits_states_missing_context():
    prompt = build_revision_prompt(CODE, [], budget=8000)
    assert any("No community context" in s for s in prompt.context_sections)


def test_prompt_budget_too_small_for_mandatory_sections():
    with pytest.raises(PromptBudgetError):
        build_revision_prompt(CODE, _hits(2), budget=120)


def test_prompt_determinism():
    first = build_revision_prompt(CODE, _hits(3), budget=4000).text
    second = build_revision_prompt(CODE, _hits(3), budget=4000).text
    assert first == second


def test_prompt_truncation_caps():
    long_hit = _hit(
        1,
        77,
        excerpt="x" * (ANSWER_EXCERPT_CAP + 500),
        comments=[("c" * (COMMENT_CAP + 100), i) for i in range(MAX_COMMENTS_PER_ENTRY + 3)],
    )
    prompt = build_revision_prompt(CODE, [long_hit], budget=100_000)
    section = prompt.context_sections[0]
    assert "x" * ANSWER_EXCERPT_CAP in section
    assert "x" * (ANSWER_EXCERPT_CAP + 1) not in section
    assert section.count("- comment") == MAX_COMMENTS_PER_ENTRY
    assert "c" * (COMMENT_CAP + 1) not in section


def test_prompt_budget_invariant_over_random_hit_sets():
    rng = random.Random(99)
    floor = len(build_revision_prompt(CODE, [], budget=10**9).text)
    for _ in range(50):
        hits = [
            _hit(
                rank,
                2000 + rank,
                excerpt="e" * rng.randint(0, 3000),
                comments=[("c" * rng.randint(0, 800), 1) for _ in range(rng.randint(0, 8))],
            )
            for rank in range(1, rng.randint(1, 7))
        ]
        budget = rng.randint(floor + 10, 12_000)
        prompt = build_revision_prompt(CODE, hits, budget=budget)
        assert len(prompt.text) <= budget


def test_label_note_is_rendered_into_the_prompt():
    prompt = build_revision_prompt(CODE, [], budget=8000, note="The code may contain CWE-78.")
    assert "CWE-78" in prompt.text


def test_extract_single_fenced_block():
    assert extract_revised_code("reasoning...\n```python\nx=1\n```") == "x=1"


def test_extract_last_of_two_fenced_blocks():
    raw = "```python\nfirst\n```\nmore words\n```\nsecond\n```"
    assert extract_revised_code(raw) == "second"


def test_extract_without_fence_fails():
    assert extract_revised_code("prose with no fence") is None


def test_extract_empty_fence_fails():
    assert extract_revised_code("```python\n\n```") is None


def test_extract_handles_crlf():
    assert extract_revised_code("```python\r\nx=1\r\n```") == "x=1"


@pytest.mark.parametrize(
    "original,revised,expected",
    [
        ("x = 1\n", "x = 1\n", True),
        ("x = 1\r\ny = 2\r\n", "x = 1\ny = 2\n", True),
        ("x = 1  \n\n\n", "x = 1\n", True),
        ("x = 1\n", "x = 2\n", False),
    ],
)
def test_is_unchanged(original, revised, expected):
    assert is_unchanged(original, revised) is expected


def test_mock_provider_rewrites_shell_true():
    record = revise(DeterministicMockProvider(), CODE, _hits(2), sample_id="s1")
    assert record.changed is True
    assert record.parse_ok is True
    assert "shell=True" not in record.revised_code
    assert "shlex.split(cmd)" in record.revised_code
    assert record.revised_code.startswith("import shlex")
    assert record.retrieved_answer_ids == [1001, 1002]


def test_echo_mock_keeps_code_unchanged():
    record = revise(DeterministicMockProvider(behavior="echo"), CODE, _hits(1))
    assert record.changed is False
    assert record.parse_ok is True
    assert is_unchanged(record.original_code, record.revised_code)


def test_unknown_mock_behavior_rejected():
    with pytest.raises(ConfigError):
        DeterministicMockProvider(behavior="nonsense")


def test_revise_with_no_hits_still_produces_a_record():
    record = revise(DeterministicMockProvider(behavior="echo"), CODE, [])
    assert record.retrieved_answer_ids == []
    assert record.parse_ok is True
    assert "No community context" in record.prompt_text


class _StaticProvider:
    max_retries = 0

    def __init__(self, response: str):
        self.response = response

    def complete(self, prompt: str) -> str:
        return self.response


def test_parse_failure_keeps_original_code():
    record = revise(_StaticProvider("I decline to answer with a fence."), CODE, [])
    assert record.parse_ok is False
    assert record.revised_code == CODE
    assert record.changed is False


def test_never_emits_code_not_extracted_from_a_fence():
    rng = random.Random(5)
    alphabet = string.printable
    for _ in range(200):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
        record = revise(_StaticProvider(raw), CODE, [])
        if record.parse_ok:
            assert record.revised_code == extract_revised_code(raw)
        else:
            assert record.revised_code == CODE
            assert record.changed is False


class _FlakyProvider:
    max_retries = 3
    retry_base_delay = 0.25

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientProviderError("connection reset")
        return "```python\nok = 1\n```"


def test_transient_failures_retry_with_backoff():
    delays = []
    provider = _FlakyProvider(failures=2)
    record = revise(provider, CODE, [], sleep=delays.append)
    assert record.revised_code == "ok = 1"
    assert provider.calls == 3
    assert delays == [0.25, 0.5]


def test_retries_exhausted_raises_with_sample_id():
    provider = _FlakyProvider(failures=10)
    with pytest.raises(ProviderError) as exc_info:
        revise(provider, CODE, [], sample_id="s042", sleep=lambda _: None)
    assert "s042" in str(exc_info.value)


@pytest.mark.parametrize("reply", [None, 5])
def test_a_reply_that_is_not_text_is_a_provider_error(reply):
    with pytest.raises(ProviderError, match=f"reply for sample s7 is {type(reply).__name__}, not text"):
        revise(_StaticProvider(reply), CODE, [], sample_id="s7")


@pytest.mark.parametrize("record", [{"prompt_hash": 5, "response": "ok"}, {"prompt_hash": "0" * 64, "response": None},
                                    {"prompt_hash": "0" * 64, "response": 5}])
def test_transcript_record_that_is_not_text_is_refused_by_line(tmp_path, record):
    transcript = tmp_path / "transcript.jsonl"
    good = {"prompt_hash": "1" * 64, "response": "```\nx\n```"}
    transcript.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad transcript record on line 2: 'prompt_hash' and 'response' must be"):
        RecordedTranscriptProvider(transcript)


def test_transcript_provider_round_trip(tmp_path):
    prompt = build_revision_prompt(CODE, [], budget=8000).text
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(
        json.dumps({"prompt_hash": prompt_hash(prompt), "response": "```python\nsafe = 1\n```"})
        + "\n",
        encoding="utf-8",
    )
    config = ProviderConfig(kind="recorded_transcript", transcript_path=str(transcript))
    record = revise(make_provider(config), CODE, [])
    assert record.revised_code == "safe = 1"
    assert record.changed is True


def test_transcript_miss_names_the_prompt_hash(tmp_path):
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(
        json.dumps({"prompt_hash": "0" * 64, "response": "```\nx\n```"}) + "\n", encoding="utf-8"
    )
    provider = RecordedTranscriptProvider(transcript)
    prompt = build_revision_prompt(CODE, [], budget=8000).text
    with pytest.raises(ProviderError) as exc_info:
        revise(provider, CODE, [])
    assert prompt_hash(prompt) in str(exc_info.value)


def test_missing_transcript_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        RecordedTranscriptProvider(tmp_path / "missing.jsonl")


def test_live_provider_requires_endpoint_and_key(monkeypatch):
    monkeypatch.delenv("SOSEC_API_KEY", raising=False)
    with pytest.raises(ConfigError):
        make_provider(ProviderConfig(kind="live_http", endpoint=None))
    with pytest.raises(ConfigError):
        make_provider(ProviderConfig(kind="live_http", endpoint="https://api.example/v1/chat"))


def test_unknown_provider_kind_rejected():
    with pytest.raises(ConfigError):
        make_provider(ProviderConfig(kind="carrier_pigeon"))


class _FakeResponse:
    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = json.dumps(self._payload)

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


def test_live_provider_happy_path_and_transient_5xx(monkeypatch):
    from sosec.revision import LiveHttpProvider

    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    config = ProviderConfig(kind="live_http", endpoint="https://api.example/v1/chat", model_name="m1")
    ok = _FakeResponse(200, {"choices": [{"message": {"content": "```\nx = 1\n```"}}]})
    provider = LiveHttpProvider(config, session=_FakeSession([ok]))
    assert provider.complete("prompt") == "```\nx = 1\n```"

    provider = LiveHttpProvider(config, session=_FakeSession([_FakeResponse(503)]))
    with pytest.raises(TransientProviderError):
        provider.complete("prompt")

    provider = LiveHttpProvider(config, session=_FakeSession([_FakeResponse(400)]))
    with pytest.raises(ProviderError):
        provider.complete("prompt")


def test_live_provider_retries_with_its_configured_delay(monkeypatch):
    from sosec.revision import LiveHttpProvider

    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    config = ProviderConfig(
        kind="live_http", endpoint="https://api.example/v1/chat", retry_base_delay=0.1
    )
    ok = _FakeResponse(200, {"choices": [{"message": {"content": "```\nx = 1\n```"}}]})
    provider = LiveHttpProvider(config, session=_FakeSession([_FakeResponse(503), ok]))
    delays = []
    record = revise(provider, CODE, [], sleep=delays.append)
    assert record.revised_code == "x = 1"
    assert delays == [0.1]


def test_live_provider_bounds_concurrent_requests(monkeypatch):
    import threading
    import time as time_module

    from sosec.revision import LiveHttpProvider

    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    config = ProviderConfig(kind="live_http", endpoint="https://api.example/v1/chat", max_in_flight=2)

    state = {"in_flight": 0, "peak": 0}
    gate = threading.Lock()

    class _SlowSession:
        def post(self, url, json=None, headers=None, timeout=None):
            with gate:
                state["in_flight"] += 1
                state["peak"] = max(state["peak"], state["in_flight"])
            time_module.sleep(0.02)
            with gate:
                state["in_flight"] -= 1
            return _FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

    provider = LiveHttpProvider(config, session=_SlowSession())
    threads = [threading.Thread(target=provider.complete, args=("p",)) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state["peak"] <= 2


def test_live_provider_paces_requests(monkeypatch):
    import time as time_module

    from sosec.revision import LiveHttpProvider

    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    config = ProviderConfig(
        kind="live_http", endpoint="https://api.example/v1/chat", min_request_interval=0.05
    )
    ok = lambda: _FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})
    provider = LiveHttpProvider(config, session=_FakeSession([ok(), ok(), ok()]))
    started = time_module.monotonic()
    for _ in range(3):
        provider.complete("p")
    assert time_module.monotonic() - started >= 0.10


def test_live_provider_rejects_bad_max_in_flight(monkeypatch):
    from sosec.revision import LiveHttpProvider

    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    config = ProviderConfig(kind="live_http", endpoint="https://api.example/v1", max_in_flight=0)
    with pytest.raises(ConfigError):
        LiveHttpProvider(config)


def test_live_provider_checks_its_config_as_the_cli_does(monkeypatch):
    from sosec.revision import LiveHttpProvider

    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    config = ProviderConfig(kind="live_http", endpoint="https://api.example/v1", max_retries=-1)
    with pytest.raises(ConfigError, match=r"provider.max_retries must be >= 0, got -1"):
        LiveHttpProvider(config, session=_FakeSession([]))


def test_record_invariant_parse_failure_implies_unchanged():
    record = revise(_StaticProvider("nothing fenced"), CODE, [])
    assert not record.parse_ok
    assert record.revised_code == record.original_code
    assert record.changed is False
