"""Revision prompting and pluggable completion providers.

The prompt presents retrieved discussions as advisory context and asks the
model for exactly one fenced code block; the model is free to return the
code unchanged. Providers cover live HTTP endpoints, recorded transcripts
(for offline reproducible runs), and deterministic mocks (for tests).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import (
    ConfigError,
    PromptBudgetError,
    ProviderError,
    TranscriptMissError,
    TransientProviderError,
    open_text,
)
from .retrieval import RetrievalHit

if TYPE_CHECKING:
    import requests

DEFAULT_CHAR_BUDGET = 8000
ANSWER_EXCERPT_CAP = 1500
COMMENT_CAP = 500
MAX_COMMENTS_PER_ENTRY = 5

API_KEY_ENV = "SOSEC_API_KEY"

PROVIDER_LIVE = "live_http"
PROVIDER_RECORDED = "recorded_transcript"
PROVIDER_MOCK = "deterministic_mock"

MOCK_FIX_SHELL = "fix_shell_true"
MOCK_ECHO = "echo"


def _load_template() -> dict:
    text = resources.files("sosec").joinpath("data/prompt_template.json").read_text("utf-8")
    return json.loads(text)


_TEMPLATE = _load_template()


@dataclass
class RevisionPrompt:
    system_instruction: str
    context_sections: list[str]
    code_section: str
    output_contract: str

    @property
    def text(self) -> str:
        parts = [self.system_instruction, *self.context_sections, self.code_section, self.output_contract]
        return "\n\n".join(parts)


@dataclass
class ProviderConfig:
    kind: str
    endpoint: str | None = None
    model_name: str | None = None
    temperature: float = 0.0
    max_retries: int = 2
    transcript_path: str | None = None
    mock_behavior: str = MOCK_FIX_SHELL
    retry_base_delay: float = 0.5
    max_in_flight: int = 4
    min_request_interval: float = 0.0


@dataclass
class RevisionRecord:
    sample_id: str
    original_code: str
    retrieved_answer_ids: list[int]
    prompt_text: str
    raw_response: str
    revised_code: str
    changed: bool
    parse_ok: bool

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "original_code": self.original_code,
            "retrieved_answer_ids": list(self.retrieved_answer_ids),
            "prompt_text": self.prompt_text,
            "raw_response": self.raw_response,
            "revised_code": self.revised_code,
            "changed": self.changed,
            "parse_ok": self.parse_ok,
        }


def _truncate(text: str, cap: int) -> str:
    return text if len(text) <= cap else text[:cap]


def render_hit_section(hit: RetrievalHit) -> str:
    """One context section: answer header, excerpt, top comments."""
    entry = hit.entry
    lines = [
        f"[{hit.rank}] {entry.url} (answer score {entry.answer_score})",
        _truncate(entry.answer_excerpt, ANSWER_EXCERPT_CAP),
    ]
    for text, score in entry.comments[:MAX_COMMENTS_PER_ENTRY]:
        lines.append(f"- comment (score {score}): {_truncate(text, COMMENT_CAP)}")
    return "\n".join(lines)


def build_revision_prompt(
    code: str,
    hits: Sequence[RetrievalHit],
    budget: int = DEFAULT_CHAR_BUDGET,
    note: str | None = None,
) -> RevisionPrompt:
    """Assemble the revision prompt within a character budget.

    Context sections appear in retrieval-rank order; when the budget is
    tight, the lowest-ranked sections are dropped first. The system
    instruction, code block, and output contract are mandatory.
    """
    system = _TEMPLATE["system_instruction"]
    if note:
        system = f"{system}\n\n{note}"
    code_section = f"{_TEMPLATE['code_intro']}\n```\n{code}\n```"
    contract = _TEMPLATE["output_contract"]

    sections = [render_hit_section(h) for h in hits]
    if sections:
        sections[0] = f"{_TEMPLATE['context_intro']}\n{sections[0]}"
    else:
        sections = [_TEMPLATE["no_context_section"]]

    prompt = RevisionPrompt(
        system_instruction=system,
        context_sections=sections,
        code_section=code_section,
        output_contract=contract,
    )
    while len(prompt.text) > budget and prompt.context_sections:
        prompt.context_sections.pop()
    if len(prompt.text) > budget:
        raise PromptBudgetError(
            f"budget {budget} cannot fit the mandatory prompt sections ({len(prompt.text)} chars)"
        )
    return prompt


_FENCE_RE = re.compile(r"```[ \t]*[\w+-]*[ \t]*\r?\n(.*?)(?:\r?\n)?```", re.DOTALL)


def extract_revised_code(raw_response: str) -> str | None:
    """Contents of the last fenced code block, or None when there is none."""
    blocks = _FENCE_RE.findall(raw_response)
    if not blocks:
        return None
    code = blocks[-1]
    if not code.strip():
        return None
    return code


def _normalize_code(code: str) -> str:
    lines = [line.rstrip() for line in code.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines)


def is_unchanged(original: str, revised: str) -> bool:
    """Equality modulo line endings, trailing spaces, and trailing blank lines."""
    return _normalize_code(original) == _normalize_code(revised)


def prompt_hash(prompt_text: str) -> str:
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()


# Wraps the first positional argument of a `shell=True` call in shlex.split()
# and drops the flag, turning the call into argument-list form.
_SHELL_CALL_RE = re.compile(
    r"([A-Za-z_][\w.]*)\(\s*((?:'[^']*'|\"[^\"]*\"|[^,()])+?)\s*,\s*shell\s*=\s*True\s*"
)


class DeterministicMockProvider:
    """Offline provider with fixed, auditable behavior."""

    max_retries = 0

    def __init__(self, behavior: str = MOCK_FIX_SHELL):
        if behavior not in (MOCK_FIX_SHELL, MOCK_ECHO):
            raise ConfigError(f"unknown mock behavior: {behavior!r}")
        self.behavior = behavior

    def complete(self, prompt: str) -> str:
        code = extract_revised_code(prompt)
        if code is None:
            code = ""
        if self.behavior == MOCK_FIX_SHELL:
            code = self._fix_shell_true(code)
        return f"Reviewed the snippet against the provided context.\n\n```python\n{code}\n```"

    @staticmethod
    def _fix_shell_true(code: str) -> str:
        fixed, count = _SHELL_CALL_RE.subn(r"\1(shlex.split(\2)", code)
        if count and "import shlex" not in fixed:
            fixed = "import shlex\n" + fixed
        return fixed


class RecordedTranscriptProvider:
    """Replays responses keyed by the SHA-256 of the prompt text."""

    max_retries = 0

    def __init__(self, transcript_path: str | Path):
        path = Path(transcript_path)
        if not path.is_file():
            raise ConfigError(f"transcript file not found: {path}")
        self._responses: dict[str, str] = {}
        with open_text(path) as fh:
            lines = fh.read().splitlines()
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                self._responses[record["prompt_hash"]] = record["response"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ConfigError(f"{path}: bad transcript record on line {line_no}: {exc}") from exc

    def complete(self, prompt: str) -> str:
        key = prompt_hash(prompt)
        if key not in self._responses:
            raise TranscriptMissError(key)
        return self._responses[key]


class LiveHttpProvider:
    """Chat-completions-style HTTP provider; API key comes from the environment.

    Concurrent callers are bounded by ``max_in_flight`` and paced by
    ``min_request_interval`` so batch runs stay inside endpoint rate limits.
    """

    def __init__(self, config: ProviderConfig, session: requests.Session | None = None):
        if not config.endpoint:
            raise ConfigError("live provider requires an endpoint")
        if config.max_in_flight < 1:
            raise ConfigError(f"max_in_flight must be >= 1, got {config.max_in_flight}")
        api_key = os.environ.get(API_KEY_ENV, "")
        if not api_key:
            raise ConfigError(f"live provider requires the {API_KEY_ENV} environment variable")
        # requests is imported here, not at module level: `import sosec.cli`
        # loads this module, and requests would add about 0.1 s to every CLI
        # start, also when no live provider is made.
        import requests

        self.config = config
        self.max_retries = config.max_retries
        self.retry_base_delay = config.retry_base_delay
        self._session = session or requests.Session()
        self._transient = (requests.ConnectionError, requests.Timeout)
        self._headers = {"Authorization": f"Bearer {api_key}"}
        self._slots = threading.BoundedSemaphore(config.max_in_flight)
        self._pace_lock = threading.Lock()
        self._next_allowed = 0.0

    def _pace(self) -> None:
        if self.config.min_request_interval <= 0:
            return
        with self._pace_lock:
            delay = self._next_allowed - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._next_allowed = time.monotonic() + self.config.min_request_interval

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.config.model_name or "",
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        with self._slots:
            self._pace()
            try:
                response = self._session.post(
                    self.config.endpoint, json=payload, headers=self._headers, timeout=120
                )
            except self._transient as exc:
                raise TransientProviderError(str(exc)) from exc
        if response.status_code in (429,) or response.status_code >= 500:
            raise TransientProviderError(f"HTTP {response.status_code}")
        if response.status_code != 200:
            raise ProviderError(f"HTTP {response.status_code}: {response.text[:500]}")
        try:
            return response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed completion response: {exc}") from exc


def make_provider(config: ProviderConfig):
    if config.kind == PROVIDER_MOCK:
        return DeterministicMockProvider(config.mock_behavior)
    if config.kind == PROVIDER_RECORDED:
        if not config.transcript_path:
            raise ConfigError("recorded provider requires transcript_path")
        return RecordedTranscriptProvider(config.transcript_path)
    if config.kind == PROVIDER_LIVE:
        return LiveHttpProvider(config)
    raise ConfigError(f"unknown provider kind: {config.kind!r}")


def revise(
    provider,
    code: str,
    hits: Sequence[RetrievalHit],
    *,
    sample_id: str = "",
    budget: int = DEFAULT_CHAR_BUDGET,
    note: str | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> RevisionRecord:
    """Run one inference-time revision and record the outcome.

    ``provider`` is a provider instance (see `make_provider`). Transient
    transport failures are retried with exponential backoff; a response
    without a fenced code block keeps the original code (parse_ok=False).
    """
    retries = getattr(provider, "max_retries", 0)
    base_delay = getattr(provider, "retry_base_delay", 0.5)

    prompt = build_revision_prompt(code, hits, budget=budget, note=note)
    prompt_text = prompt.text

    raw_response = None
    for attempt in range(retries + 1):
        try:
            raw_response = provider.complete(prompt_text)
            break
        except TransientProviderError as exc:
            if attempt == retries:
                raise ProviderError(
                    f"provider failed after {retries + 1} attempts for sample {sample_id or '<unnamed>'}: {exc}",
                    sample_id=sample_id,
                ) from exc
            sleep(base_delay * (2**attempt))
    assert raw_response is not None

    revised = extract_revised_code(raw_response)
    if revised is None:
        revised_code, changed, parse_ok = code, False, False
    else:
        revised_code, changed, parse_ok = revised, not is_unchanged(code, revised), True

    return RevisionRecord(
        sample_id=sample_id,
        original_code=code,
        retrieved_answer_ids=[h.entry.answer_id for h in hits],
        prompt_text=prompt_text,
        raw_response=raw_response,
        revised_code=revised_code,
        changed=changed,
        parse_ok=parse_ok,
    )
