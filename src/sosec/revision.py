"""Revision prompting and pluggable completion providers.

The prompt presents retrieved discussions as advisory context and asks the
model for exactly one fenced code block; the model is free to return the
code unchanged. Providers cover live HTTP endpoints, recorded transcripts
(for offline reproducible runs), and deterministic mocks (for tests).
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import OPTIONAL_STR, ConfigError, PromptBudgetError, ProviderError, check_value, is_str, jsonl_lines
from .retrieval import RetrievalHit

if TYPE_CHECKING:
    import requests

DEFAULT_CHAR_BUDGET = 8000
ANSWER_EXCERPT_CAP = 1500
COMMENT_CAP = 500
MAX_COMMENTS_PER_ENTRY = 5

API_KEY_ENV = "SOSEC_API_KEY"

PROVIDER_KINDS = ("mock", "recorded", "live")
MOCK_FIX_SHELL = "fix_shell_true"
MOCK_BEHAVIORS = (MOCK_FIX_SHELL, "echo")


def _load_template() -> dict:
    text = resources.files("sosec").joinpath("data/prompt_template.json").read_text("utf-8")
    return json.loads(text)


PROMPT_TEMPLATE = _load_template()

# Names for the cwe_label note; a label outside this table is given without a name.
CWE_NAMES = {
    "CWE-20": "Improper Input Validation",
    "CWE-22": "Path Traversal",
    "CWE-78": "OS Command Injection",
    "CWE-79": "Cross-site Scripting",
    "CWE-89": "SQL Injection",
    "CWE-94": "Code Injection",
    "CWE-190": "Integer Overflow or Wraparound",
    "CWE-295": "Improper Certificate Validation",
    "CWE-327": "Use of a Broken or Risky Cryptographic Algorithm",
    "CWE-330": "Use of Insufficiently Random Values",
    "CWE-377": "Insecure Temporary File",
    "CWE-502": "Deserialization of Untrusted Data",
    "CWE-601": "Open Redirect",
    "CWE-798": "Use of Hard-coded Credentials",
}


@dataclass
class ProviderConfig:
    """Which provider to make and how it behaves; a bad value raises ConfigError naming the first
    field that is of the wrong type, below its least value, not among its choices, missing for
    this kind of provider, or given to a kind that does not use it."""

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

    def __post_init__(self):
        for name, choices in (("kind", PROVIDER_KINDS), ("mock_behavior", MOCK_BEHAVIORS)):
            if (value := getattr(self, name)) not in choices:
                raise ConfigError(f"provider.{name} must be one of {', '.join(choices)}, got {value!r}")
        check_value("provider.max_retries", self.max_retries, int, 0)
        check_value("provider.max_in_flight", self.max_in_flight, int, 1)
        for name in ("temperature", "retry_base_delay", "min_request_interval"):
            check_value(f"provider.{name}", getattr(self, name), float, 0)
        for name in ("endpoint", "model_name", "transcript_path"):
            check_value(f"provider.{name}", getattr(self, name), OPTIONAL_STR)
        required = {"recorded": "transcript_path", "live": "endpoint"}.get(self.kind)
        if required and not getattr(self, required):
            raise ConfigError(f"provider.{required} is required when provider.kind is {self.kind!r}")
        for name, kind in (("endpoint", "live"), ("model_name", "live"), ("transcript_path", "recorded")):
            if getattr(self, name) is not None and self.kind != kind:
                raise ConfigError(f"provider.{name} needs provider.kind {kind!r}, got {self.kind!r}")


@dataclass
class RevisionRecord:
    sample_id: str
    original_code: str
    context_answer_ids: list[int]
    prompt_text: str
    raw_response: str
    revised_code: str
    changed: bool
    parse_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def render_hit_section(hit: RetrievalHit) -> str:
    """One context section: answer header, excerpt, top comments."""
    entry = hit.entry
    lines = [
        f"[{hit.rank}] {entry.url} (answer score {entry.answer_score})",
        entry.answer_excerpt[:ANSWER_EXCERPT_CAP],
    ]
    for text, score in entry.comments[:MAX_COMMENTS_PER_ENTRY]:
        lines.append(f"- comment (score {score}): {text[:COMMENT_CAP]}")
    return "\n".join(lines)


def build_revision_prompt(
    code: str,
    hits: Sequence[RetrievalHit],
    budget: int = DEFAULT_CHAR_BUDGET,
    labeled_cwe: str | None = None,
) -> tuple[str, list[RetrievalHit]]:
    """The revision prompt within a character budget, and the hits whose sections it shows.

    Context sections appear in retrieval-rank order; when the budget is
    tight, the lowest-ranked sections are dropped first, so the hits shown
    are a prefix of ``hits``. When no section fits, the prompt is the one
    for no hits: it says that no context was retrieved, if that fits. The
    system instruction, with a note naming ``labeled_cwe`` if given, the
    code block and the output contract are mandatory.
    """
    system = PROMPT_TEMPLATE["system_instruction"]
    if labeled_cwe:
        name = CWE_NAMES.get(labeled_cwe)
        note = PROMPT_TEMPLATE["cwe_label_note"].format(cwe=labeled_cwe, name=f" ({name})" if name else "")
        system = f"{system}\n\n{note}"
    fence = _code_fence(code)
    code_section = f"{PROMPT_TEMPLATE['code_intro']}\n{fence}\n{code}\n{fence}"
    contract = PROMPT_TEMPLATE["output_contract"]

    sections = [render_hit_section(h) for h in hits]
    if sections:
        sections[0] = f"{PROMPT_TEMPLATE['context_intro']}\n{sections[0]}"
    # the contexts to try, longest first, each with the hits it shows
    options = [(sections[:n], hits[:n]) for n in range(len(sections), 0, -1)]
    options += [([PROMPT_TEMPLATE["no_context_section"]], []), ([], [])]
    for context, shown in options:
        text = "\n\n".join([system, *context, code_section, contract])
        if len(text) <= budget:
            return text, list(shown)
    raise PromptBudgetError(f"budget {budget} cannot fit the mandatory prompt sections ({len(text)} chars)")


def _code_fence(code: str) -> str:
    """A run of backticks one longer than the longest in `code`, and never shorter than three."""
    return "`" * max(3, 1 + max(map(len, re.findall("`+", code)), default=0))


# A block opens with three backticks or more and closes at the first run at least as long.
_FENCE_RE = re.compile(r"(?<!`)(`{3,})[ \t]*[\w+-]*[ \t]*\r?\n(.*?)(?:\r?\n)?\1", re.DOTALL)


def extract_revised_code(raw_response: str) -> str | None:
    """Contents of the last fenced code block, or None when there is none."""
    blocks = _FENCE_RE.findall(raw_response)
    if not blocks:
        return None
    code = blocks[-1][1]
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
    import hashlib  # here, not at module level: only the recorded provider hashes prompts

    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()


# Wraps the first positional argument of a `shell=True` call in shlex.split()
# and drops the flag, turning the call into argument-list form.
_SHELL_CALL_RE = re.compile(
    r"([A-Za-z_][\w.]*)\(\s*((?:'[^']*'|\"[^\"]*\"|[^,()])+?)\s*,\s*shell\s*=\s*True\s*"
)


class DeterministicMockProvider:
    """Offline provider with fixed, auditable behavior."""

    def __init__(self, behavior: str = MOCK_FIX_SHELL):
        self.behavior = behavior

    def complete(self, prompt: str) -> str:
        code = extract_revised_code(prompt)
        if code is None:
            code = ""
        if self.behavior == MOCK_FIX_SHELL:
            code = self._fix_shell_true(code)
        fence = _code_fence(code)
        return f"Reviewed the snippet against the provided context.\n\n{fence}python\n{code}\n{fence}"

    @staticmethod
    def _fix_shell_true(code: str) -> str:
        fixed, count = _SHELL_CALL_RE.subn(r"\1(shlex.split(\2)", code)
        if count and "import shlex" not in fixed:
            fixed = "import shlex\n" + fixed
        return fixed


class RecordedTranscriptProvider:
    """Replays responses keyed by the SHA-256 of the prompt text.

    A prompt may be recorded more than once, but always with the same response.
    """

    def __init__(self, transcript_path: str | Path):
        path = Path(transcript_path)
        if not path.is_file():
            raise ConfigError(f"transcript file not found: {path}")
        self._responses: dict[str, str] = {}
        first_line: dict[str, int] = {}
        for line_no, line in jsonl_lines(path):
            try:
                record = json.loads(line)
                key, response = record["prompt_hash"], record["response"]
                if not is_str(key) or not is_str(response):
                    raise TypeError("'prompt_hash' and 'response' must be strings")
            except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
                raise ConfigError(f"{path}: bad transcript record on line {line_no}: {exc}") from exc
            if self._responses.setdefault(key, response) != response:
                raise ConfigError(
                    f"{path}: lines {first_line[key]} and {line_no} give prompt hash {key} different responses"
                )
            first_line.setdefault(key, line_no)

    def complete(self, prompt: str) -> str:
        key = prompt_hash(prompt)
        if key not in self._responses:
            raise ProviderError(f"transcript has no response for prompt hash {key}")
        return self._responses[key]


class LiveHttpProvider:
    """Chat-completions-style HTTP provider; API key comes from the environment.

    Concurrent callers are bounded by ``max_in_flight`` and paced by
    ``min_request_interval`` so batch runs stay inside endpoint rate limits.
    A connection error, a timeout, HTTP 429 or a 5xx reply is retried up to
    ``max_retries`` times; retry n (from 0) first waits ``retry_base_delay *
    2**n`` seconds, holding no in-flight slot.
    """

    sleep = staticmethod(time.sleep)  # the backoff wait; tests set a fake on the instance

    def __init__(self, config: ProviderConfig, session: requests.Session | None = None):
        api_key = os.environ.get(API_KEY_ENV, "")
        if not api_key:
            raise ConfigError(f"live provider requires the {API_KEY_ENV} environment variable")
        # requests is imported here, not at module level: `import sosec.cli`
        # loads this module, and requests would add about 0.1 s to every CLI
        # start, also when no live provider is made.
        import requests

        self.config = config
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
        attempts = self.config.max_retries + 1
        for attempt in range(attempts):
            if attempt:
                self.sleep(self.config.retry_base_delay * 2 ** (attempt - 1))
            with self._slots:
                self._pace()
                try:
                    response = self._session.post(
                        self.config.endpoint, json=payload, headers=self._headers, timeout=120
                    )
                except self._transient as exc:
                    failure = f"{type(exc).__name__}: {exc}"
                    continue
            if response.status_code == 429 or response.status_code >= 500:
                failure = f"HTTP {response.status_code}"
                continue
            if response.status_code != 200:
                raise ProviderError(f"HTTP {response.status_code}: {response.text[:500]}")
            try:
                return response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
                raise ProviderError(f"malformed completion response: {exc}") from exc
        raise ProviderError(f"gave up after {attempts} attempts, the last with {failure}")


def make_provider(config: ProviderConfig):
    """The provider that ``config.kind`` names."""
    if config.kind == "mock":
        return DeterministicMockProvider(config.mock_behavior)
    if config.kind == "recorded":
        return RecordedTranscriptProvider(config.transcript_path)
    return LiveHttpProvider(config)


def revise(
    provider,
    code: str,
    hits: Sequence[RetrievalHit],
    *,
    sample_id: str = "",
    budget: int = DEFAULT_CHAR_BUDGET,
    labeled_cwe: str | None = None,
) -> RevisionRecord:
    """Run one inference-time revision and record the outcome.

    ``provider`` is anything with ``complete(prompt) -> str`` that raises
    ProviderError (see `make_provider`); it is called once. Its ProviderError,
    or a reply that is not a string (a refusal can carry null content), is
    raised as a ProviderError naming the sample. A response without a fenced
    code block keeps the original code (parse_ok=False). The record's
    ``context_answer_ids`` name the hits the prompt shows, in rank order.
    """
    name = sample_id or "<unnamed>"

    prompt_text, shown = build_revision_prompt(code, hits, budget, labeled_cwe)

    try:
        raw_response = provider.complete(prompt_text)
    except ProviderError as exc:
        raise ProviderError(f"provider failed for sample {name}: {exc}") from exc
    if not isinstance(raw_response, str):
        raise ProviderError(f"provider reply for sample {name} is {type(raw_response).__name__}, not text")

    revised = extract_revised_code(raw_response)
    if revised is None:
        revised_code, changed, parse_ok = code, False, False
    else:
        revised_code, changed, parse_ok = revised, not is_unchanged(code, revised), True

    return RevisionRecord(
        sample_id=sample_id,
        original_code=code,
        context_answer_ids=[h.entry.answer_id for h in shown],
        prompt_text=prompt_text,
        raw_response=raw_response,
        revised_code=revised_code,
        changed=changed,
        parse_ok=parse_ok,
    )
