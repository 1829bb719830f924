from __future__ import annotations

import json
import random
import string
import threading

import pytest

from conftest import DEEP_JSON, make_entry
from sosec.errors import ConfigError, PromptBudgetError, ProviderError
from sosec.kb import KnowledgeEntry
from sosec.retrieval import RetrievalHit
from sosec.revision import (
    ANSWER_EXCERPT_CAP,
    COMMENT_CAP,
    MAX_COMMENTS_PER_ENTRY,
    PROMPT_TEMPLATE,
    DeterministicMockProvider,
    LiveHttpProvider,
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
    text, shown = build_revision_prompt(CODE, _hits(5), budget=8000)
    assert [h.rank for h in shown] == [1, 2, 3, 4, 5]
    positions = [text.index(f"https://stackoverflow.com/a/{1000 + r}") for r in range(1, 6)]
    assert positions == sorted(positions)
    assert text.index(PROMPT_TEMPLATE["system_instruction"][:40]) < positions[0]
    assert text.rstrip().endswith(PROMPT_TEMPLATE["output_contract"])
    assert CODE.strip() in text


def test_prompt_drops_lowest_ranked_sections_first():
    full, _ = build_revision_prompt(CODE, _hits(5), budget=100_000)
    tight_budget = len(full) - 1
    trimmed, shown = build_revision_prompt(CODE, _hits(5), budget=tight_budget)
    assert [h.rank for h in shown] == [1, 2, 3, 4]
    assert "1004" in trimmed and "1005" not in trimmed
    assert len(trimmed) <= tight_budget


def test_prompt_with_no_hits_states_missing_context():
    text, shown = build_revision_prompt(CODE, [], budget=8000)
    assert "No community context" in text
    assert shown == []


def test_prompt_with_no_section_that_fits_is_the_no_hit_prompt():
    bare, _ = build_revision_prompt(CODE, [], budget=10**9)
    one_section, _ = build_revision_prompt(CODE, _hits(1), budget=10**9)
    assert len(one_section) > len(bare)
    for budget in (len(bare), len(one_section) - 1):
        text, shown = build_revision_prompt(CODE, _hits(3), budget=budget)
        assert text == build_revision_prompt(CODE, [], budget=budget)[0]
        assert "No community context" in text and PROMPT_TEMPLATE["context_intro"] not in text
        assert shown == []


def test_prompt_budget_too_small_for_mandatory_sections():
    with pytest.raises(PromptBudgetError):
        build_revision_prompt(CODE, _hits(2), budget=120)


def test_prompt_determinism():
    first = build_revision_prompt(CODE, _hits(3), budget=4000)
    second = build_revision_prompt(CODE, _hits(3), budget=4000)
    assert first == second


def test_prompt_truncation_caps():
    long_hit = _hit(
        1,
        77,
        excerpt="x" * (ANSWER_EXCERPT_CAP + 500),
        comments=[("c" * (COMMENT_CAP + 100), i) for i in range(MAX_COMMENTS_PER_ENTRY + 3)],
    )
    section, shown = build_revision_prompt(CODE, [long_hit], budget=100_000)
    assert shown == [long_hit]
    assert "x" * ANSWER_EXCERPT_CAP in section
    assert "x" * (ANSWER_EXCERPT_CAP + 1) not in section
    assert section.count("- comment") == MAX_COMMENTS_PER_ENTRY
    assert "c" * (COMMENT_CAP + 1) not in section


def test_prompt_budget_invariant_over_random_hit_sets():
    rng = random.Random(99)
    floor = len(build_revision_prompt(CODE, [], budget=10**9)[0])
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
        text, shown = build_revision_prompt(CODE, hits, budget=budget)
        assert len(text) <= budget
        assert shown == hits[: len(shown)]
        assert [h for h in hits if f"[{h.rank}] {h.entry.url} " in text] == shown


def test_label_note_is_rendered_into_the_prompt():
    text, shown = build_revision_prompt(CODE, [], budget=8000, labeled_cwe="CWE-78")
    assert "may contain CWE-78 (OS Command Injection)." in text
    assert shown == []
    # a label outside the name table is given without a name
    assert "may contain CWE-1333." in build_revision_prompt(CODE, [], budget=8000, labeled_cwe="CWE-1333")[0]


# Transcripts are keyed by the sha256 of the prompt, so these bytes are a
# compatibility contract: a recorded transcript stops matching when they change.
GOLDEN_HITS = [
    RetrievalHit(
        entry=KnowledgeEntry(
            answer_id=4001,
            question_id=41,
            answer_score=12,
            answer_excerpt="Pass an argument list and leave shell=False; shlex.split turns a command string into one.",
            code_blocks=["subprocess.call(shlex.split(cmd))"],
            comments=[("shell=True hands the string to /bin/sh", 7), ("quote user input with shlex.quote", 3)],
            tags=["python", "subprocess"],
            url="https://stackoverflow.com/a/4001",
        ),
        score=9.5,
        rank=1,
    ),
    RetrievalHit(
        entry=KnowledgeEntry(
            answer_id=4002,
            question_id=42,
            answer_score=5,
            answer_excerpt="check=True raises CalledProcessError when the command fails.",
            code_blocks=["subprocess.run(args, check=True)"],
            comments=[("also set a timeout", 2)],
            tags=["python"],
            url="https://stackoverflow.com/a/4002",
        ),
        score=6.25,
        rank=2,
    ),
    RetrievalHit(
        entry=KnowledgeEntry(
            answer_id=4003,
            question_id=43,
            answer_score=1,
            answer_excerpt="os.system runs its argument through the shell, too.",
            code_blocks=["os.system(cmd)"],
            comments=[],
            tags=[],
            url="https://stackoverflow.com/a/4003",
        ),
        score=2.0,
        rank=3,
    ),
]


@pytest.mark.parametrize(
    "hits,budget,shown_ranks,sha256",
    [
        ([], 8000, [], "7ce237188ba9577301108a2a433f9dcd69d7547730ab8f6228e06679fc30addc"),
        (GOLDEN_HITS, 8000, [1, 2, 3], "aaacff56f97753de5b1914068d99d1408da668c3ff4607a951c44b9b2bc0748a"),
        (GOLDEN_HITS, 1300, [1, 2], "d6144cee24f085d952874ae9cae4806c0a2a168d799620616b983757645bd66a"),
    ],
    ids=["revision_only", "sosecure", "sosecure-third-hit-dropped"],
)
def test_prompt_bytes_are_golden(hits, budget, shown_ranks, sha256):
    text, shown = build_revision_prompt(CODE, hits, budget=budget)
    assert [h.rank for h in shown] == shown_ranks
    assert prompt_hash(text) == sha256


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


def test_extract_reads_a_longer_fence_whole():
    raw = "Revised:\n````python\n\"\"\"Usage:\n```\nrun()\n```\n\"\"\"\nx = 1\n````\n"
    assert extract_revised_code(raw) == '"""Usage:\n```\nrun()\n```\n"""\nx = 1'


# A docstring that holds a fenced Markdown example: three backticks on a line of the code.
FENCED_DOCSTRING_CODE = (
    'import subprocess\n\ndef run(cmd):\n    """Run a command.\n\n    ```example\n    run("ls")\n    ```\n    """\n'
    "    subprocess.call(cmd, shell=True)\n"
)


def test_code_with_a_fence_line_is_revised_whole():
    record = revise(DeterministicMockProvider(), FENCED_DOCSTRING_CODE, [])
    fixed = FENCED_DOCSTRING_CODE.replace("subprocess.call(cmd, shell=True)", "subprocess.call(shlex.split(cmd))")
    assert record.revised_code == "import shlex\n" + fixed
    assert record.changed and record.parse_ok
    # the prompt fences the code with one backtick more than its longest run
    assert f"\n````\n{FENCED_DOCSTRING_CODE}\n````\n" in record.prompt_text


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
    assert record.context_answer_ids == [1001, 1002]


def test_record_names_only_the_answers_the_prompt_shows():
    one_section, _ = build_revision_prompt(CODE, _hits(1), budget=10**9)
    record = revise(DeterministicMockProvider(), CODE, _hits(5), budget=len(one_section))
    assert record.context_answer_ids == [1001]
    assert "https://stackoverflow.com/a/1001" in record.prompt_text
    assert "https://stackoverflow.com/a/1002" not in record.prompt_text


def test_echo_mock_keeps_code_unchanged():
    record = revise(DeterministicMockProvider(behavior="echo"), CODE, _hits(1))
    assert record.changed is False
    assert record.parse_ok is True
    assert is_unchanged(record.original_code, record.revised_code)


def test_unknown_mock_behavior_rejected():
    with pytest.raises(ConfigError, match="provider.mock_behavior must be one of fix_shell_true, echo, got 'nonsense'"):
        make_provider(ProviderConfig(kind="mock", mock_behavior="nonsense"))


def test_revise_with_no_hits_still_produces_a_record():
    record = revise(DeterministicMockProvider(behavior="echo"), CODE, [])
    assert record.context_answer_ids == []
    assert record.parse_ok is True
    assert "No community context" in record.prompt_text


class _StaticProvider:
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


class _FakeResponse:
    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = json.dumps(self._payload)

    def json(self):
        return json.loads(self.text)


def _reply(content: str) -> _FakeResponse:
    return _FakeResponse(200, {"choices": [{"message": {"content": content}}]})


class _FakeSession:
    """Answers each post with the next of `responses`, raising it if it is an exception."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def _live(monkeypatch, responses, **config) -> tuple[LiveHttpProvider, _FakeSession]:
    """A live provider on a fake session, whose backoff waits are appended to its `delays`."""
    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    session = _FakeSession(responses)
    provider = LiveHttpProvider(ProviderConfig(kind="live", endpoint="https://api.example/v1/chat", **config), session)
    provider.delays = []
    provider.sleep = provider.delays.append
    return provider, session


def test_transient_failures_retry_with_backoff(monkeypatch):
    import requests

    responses = [_FakeResponse(503), requests.ConnectionError("reset"), _reply("```\nok = 1\n```")]
    provider, session = _live(monkeypatch, responses, retry_base_delay=0.25)
    record = revise(provider, CODE, [])
    assert record.revised_code == "ok = 1"
    assert len(session.requests) == 3
    assert provider.delays == [0.25, 0.5]


def test_retries_exhausted_raises_with_sample_id(monkeypatch):
    provider, _ = _live(monkeypatch, [_FakeResponse(503)] * 3)
    with pytest.raises(ProviderError, match="sample s042: gave up after 3 attempts, the last with HTTP 503"):
        revise(provider, CODE, [], sample_id="s042")
    assert provider.delays == [0.5, 1.0]


@pytest.mark.parametrize(
    "payload",
    [{"id": "x"}, {"choices": []}, {"choices": [{"message": {}}]}, {"choices": [{"message": None}]}],
    ids=["no-choices", "empty-choices", "no-content", "message-null"],
)
def test_live_provider_refuses_a_reply_without_content(monkeypatch, payload):
    provider, session = _live(monkeypatch, [_FakeResponse(200, payload)])
    with pytest.raises(ProviderError, match="sample s1: malformed completion response"):
        revise(provider, CODE, [], sample_id="s1")
    assert len(session.requests) == 1
    assert provider.delays == []


def test_live_provider_posts_a_client_error_once(monkeypatch):
    provider, session = _live(monkeypatch, [_FakeResponse(400, {"error": "bad request"})])
    with pytest.raises(ProviderError, match="sample s1: HTTP 400"):
        revise(provider, CODE, [], sample_id="s1")
    assert len(session.requests) == 1
    assert provider.delays == []


def test_live_provider_refuses_a_reply_nested_too_deep(monkeypatch):
    reply = _FakeResponse(200)
    reply.text = DEEP_JSON
    provider, session = _live(monkeypatch, [reply])
    with pytest.raises(ProviderError, match="sample s1: malformed completion response: maximum recursion depth"):
        revise(provider, CODE, [], sample_id="s1")
    assert len(session.requests) == 1


def test_live_provider_backs_off_outside_its_in_flight_slot(monkeypatch):
    provider, session = _live(monkeypatch, [_FakeResponse(503), _reply("other"), _reply("first")], max_in_flight=1)
    others = []

    def sleep(delay):
        # with the one slot still held, the other request would wait out the timeout
        other = threading.Thread(target=lambda: others.append(provider.complete("other prompt")))
        other.start()
        other.join(timeout=5)
        assert others == ["other"]

    provider.sleep = sleep
    assert provider.complete("first prompt") == "first"
    assert [r["json"]["messages"][0]["content"] for r in session.requests] == [
        "first prompt", "other prompt", "first prompt"]


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


def _write_transcript(path, records) -> None:
    """One JSON line per (prompt, response), keyed as the recorded provider looks prompts up."""
    lines = [json.dumps({"prompt_hash": prompt_hash(p), "response": r}, ensure_ascii=False) for p, r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
def test_transcript_response_may_hold_a_unicode_line_separator(tmp_path, char):
    transcript = tmp_path / "transcript.jsonl"
    response = f"```\nx = '{char}'\n```"
    _write_transcript(transcript, [("a", response), ("b", "```\ny\n```")])
    assert char in transcript.read_text(encoding="utf-8")
    provider = RecordedTranscriptProvider(transcript)
    assert (provider.complete("a"), provider.complete("b")) == (response, "```\ny\n```")


def test_transcript_that_gives_a_prompt_two_responses_is_refused(tmp_path):
    transcript = tmp_path / "transcript.jsonl"
    records = [("a", "```\nx\n```"), ("b", "```\ny\n```"), ("a", "```\nx\n```")]
    _write_transcript(transcript, records)
    assert RecordedTranscriptProvider(transcript).complete("a") == "```\nx\n```"
    _write_transcript(transcript, records + [("a", "```\nz\n```")])
    with pytest.raises(ConfigError, match=f"lines 1 and 4 give prompt hash {prompt_hash('a')} different responses"):
        RecordedTranscriptProvider(transcript)


def test_transcript_provider_round_trip(tmp_path):
    prompt, _ = build_revision_prompt(CODE, [], budget=8000)
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(
        json.dumps({"prompt_hash": prompt_hash(prompt), "response": "```python\nsafe = 1\n```"})
        + "\n",
        encoding="utf-8",
    )
    config = ProviderConfig(kind="recorded", transcript_path=str(transcript))
    record = revise(make_provider(config), CODE, [])
    assert record.revised_code == "safe = 1"
    assert record.changed is True


def test_transcript_miss_names_the_prompt_hash(tmp_path):
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(
        json.dumps({"prompt_hash": "0" * 64, "response": "```\nx\n```"}) + "\n", encoding="utf-8"
    )
    provider = RecordedTranscriptProvider(transcript)
    prompt, _ = build_revision_prompt(CODE, [], budget=8000)
    with pytest.raises(ProviderError) as exc_info:
        revise(provider, CODE, [])
    assert prompt_hash(prompt) in str(exc_info.value)


def test_missing_transcript_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        RecordedTranscriptProvider(tmp_path / "missing.jsonl")


def test_live_provider_requires_endpoint_and_key(monkeypatch):
    monkeypatch.delenv("SOSEC_API_KEY", raising=False)
    with pytest.raises(ConfigError, match="provider.endpoint is required when provider.kind is 'live'"):
        make_provider(ProviderConfig(kind="live", endpoint=None))
    with pytest.raises(ConfigError, match="SOSEC_API_KEY"):
        make_provider(ProviderConfig(kind="live", endpoint="https://api.example/v1/chat"))


def test_unknown_provider_kind_rejected():
    for kind in ("carrier_pigeon", "deterministic_mock", "recorded_transcript", "live_http"):
        with pytest.raises(ConfigError, match=f"provider.kind must be one of mock, recorded, live, got '{kind}'"):
            make_provider(ProviderConfig(kind=kind))


def test_live_provider_happy_path_and_transient_5xx(monkeypatch):
    provider, session = _live(monkeypatch, [_reply("```\nx = 1\n```"), _FakeResponse(502), _reply("y")],
                              model_name="m1")
    assert provider.complete("prompt") == "```\nx = 1\n```"
    assert session.requests[0]["json"]["model"] == "m1"
    assert session.requests[0]["headers"] == {"Authorization": "Bearer test-key"}
    assert provider.complete("prompt") == "y"
    assert provider.delays == [0.5]


def test_live_provider_retries_with_its_configured_delay(monkeypatch):
    import requests

    responses = [_FakeResponse(429), requests.Timeout("slow"), _reply("```\nx = 1\n```")]
    provider, session = _live(monkeypatch, responses, retry_base_delay=0.1)
    record = revise(provider, CODE, [])
    assert record.revised_code == "x = 1"
    assert provider.delays == [0.1, 0.2]
    assert len(session.requests) == 3


def test_live_provider_bounds_concurrent_requests(monkeypatch):
    import time as time_module

    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    config = ProviderConfig(kind="live", endpoint="https://api.example/v1/chat", max_in_flight=2)

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
            return _reply("ok")

    provider = LiveHttpProvider(config, session=_SlowSession())
    threads = [threading.Thread(target=provider.complete, args=("p",)) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state["peak"] <= 2


def test_live_provider_paces_requests(monkeypatch):
    import time as time_module

    provider, _ = _live(monkeypatch, [_reply("ok") for _ in range(3)], min_request_interval=0.05)
    started = time_module.monotonic()
    for _ in range(3):
        provider.complete("p")
    assert time_module.monotonic() - started >= 0.10


def test_live_provider_rejects_bad_max_in_flight(monkeypatch):
    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    with pytest.raises(ConfigError, match=r"provider.max_in_flight must be >= 1, got 0"):
        make_provider(ProviderConfig(kind="live", endpoint="https://api.example/v1", max_in_flight=0))


def test_live_provider_checks_its_config_as_the_cli_does(monkeypatch):
    monkeypatch.setenv("SOSEC_API_KEY", "test-key")
    with pytest.raises(ConfigError, match=r"provider.max_retries must be >= 0, got -1"):
        make_provider(ProviderConfig(kind="live", endpoint="https://api.example/v1", max_retries=-1))


def test_record_invariant_parse_failure_implies_unchanged():
    record = revise(_StaticProvider("nothing fenced"), CODE, [])
    assert not record.parse_ok
    assert record.revised_code == record.original_code
    assert record.changed is False
