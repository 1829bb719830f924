"""Static-analyzer adapters, and the one place code gets analyzed.

Analyzers run as external subprocesses on a scratch file; this module
decides which tools run on a piece of code, parses their machine-readable
output (SARIF 2.1.0 or a Bandit-style JSON report), reads each tool's own
"could not analyze" signal and maps tool rules to CWE classes.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import AdapterError, ConfigError, SosecError, ToolMissingError, is_int, is_number, is_str, list_of, read_json

CWE_RE = re.compile(r"^CWE-[0-9]+\Z")  # \Z, not $: $ also matches before a final newline

SUFFIX_BY_LANGUAGE = {"python": ".py", "c": ".c"}

_SARIF_LEVELS = {"error": "high", "warning": "medium", "note": "low"}
_BANDIT_SEVERITIES = {"HIGH": "high", "MEDIUM": "medium", "LOW": "low"}


@dataclass(frozen=True)
class Finding:
    """One analyzer result; the parsers leave `cwe` None, and `run_analyzer` maps it (None for an unmapped rule).

    Fields are declared in the key order of `to_dict`; `cwe` is keyword-only,
    so a finding is built positionally as (tool, rule_id, severity, message, file, line).
    """

    tool: str
    rule_id: str
    cwe: str | None = field(default=None, kw_only=True)
    severity: str
    message: str
    file: str
    line: int

    def __post_init__(self):
        if self.cwe is not None and not CWE_RE.match(self.cwe):
            raise ConfigError(f"malformed CWE identifier: {self.cwe!r}")
        if self.line < 1:
            raise ConfigError(f"finding line must be >= 1, got {self.line}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CweMap:
    """(tool, rule_id) -> CWE lookup, loaded from an editable JSON file."""

    def __init__(self, entries: dict[tuple[str, str], str]):
        for (tool, rule), cwe in entries.items():
            if not is_str(cwe) or not CWE_RE.match(cwe):
                raise ConfigError(f"malformed CWE {cwe!r} for {tool}/{rule}")
        self.entries = dict(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "CweMap":
        obj = read_json(path, "CWE map")
        if not isinstance(obj, dict):
            raise ConfigError(f"CWE map {path} must be a JSON object keyed by tool")
        entries: dict[tuple[str, str], str] = {}
        for tool, rules in obj.items():
            if not isinstance(rules, dict):
                raise ConfigError(f"CWE map {path}: entry for tool {tool!r} must be an object")
            entries.update(((tool, rule), cwe) for rule, cwe in rules.items())
        try:
            return cls(entries)
        except ConfigError as exc:
            raise ConfigError(f"CWE map {path}: {exc}") from exc

    def lookup(self, tool: str, rule_id: str) -> str | None:
        return self.entries.get((tool, rule_id))


# subprocess waits for an analyzer with poll(), which takes a C int of
# milliseconds, so no adapter timeout may be longer than this many seconds.
_MAX_TIMEOUT = 2_147_483


@dataclass
class AdapterConfig:
    """How to invoke one analyzer and read its report; a bad value raises ConfigError naming the adapter.

    `languages` None means every language; the other fields take the types
    declared here whatever sequence or number they are given as.
    """

    name: str
    command: list[str]
    format: str
    timeout: float = 120.0
    ok_returncodes: tuple[int, ...] = (0, 1)
    languages: tuple[str, ...] | None = None

    def __post_init__(self):
        def fault(message: str) -> ConfigError:
            return ConfigError(f"adapter {self.name}: {message}")

        for key, ok, what in (
            ("command", list_of(is_str)(self.command), "a list of strings"),
            ("format", is_str(self.format), "a string"),
            ("timeout", is_number(self.timeout) and self.timeout > 0, "a positive number"),
            ("ok_returncodes", list_of(is_int)(self.ok_returncodes), "a list of integers"),
            ("languages", self.languages is None or (list_of(is_str)(self.languages) and len(self.languages) > 0),
             "a list of strings or null (not an empty list)"),
        ):
            if not ok:
                raise fault(f"{key} must be {what}, got {getattr(self, key)!r}")
        if self.format not in _PARSERS:
            raise fault(f"unknown output format {self.format!r}")
        if self.timeout > _MAX_TIMEOUT:
            raise fault(f"timeout {float(self.timeout)!r} is longer than {_MAX_TIMEOUT} seconds")
        if not self.command:
            raise fault("empty command")
        if not any("{file}" in part for part in self.command):
            raise fault("command has no {file} placeholder")
        if not self.ok_returncodes:
            raise fault("ok_returncodes is empty, so every run would fail")
        for language in self.languages or ():
            if language not in SUFFIX_BY_LANGUAGE:
                raise fault(f"unknown language {language!r}")
        self.command = list(self.command)
        self.timeout = float(self.timeout)
        self.ok_returncodes = tuple(self.ok_returncodes)
        self.languages = None if self.languages is None else tuple(self.languages)

    @classmethod
    def from_dict(cls, name: str, obj: dict) -> "AdapterConfig":
        """Read one adapters-config entry: the fields after `name`, by key; a bad one raises ConfigError."""
        if not isinstance(obj, dict):
            raise ConfigError(f"adapter {name}: entry must be a JSON object, got {obj!r}")
        keys = [f.name for f in fields(cls)][1:]
        for key in obj:
            if key not in keys:
                raise ConfigError(f"adapter {name}: unknown key {key!r}")
        for key in ("command", "format"):
            if key not in obj:
                raise ConfigError(f"adapter {name}: missing key {key!r}")
        return cls(name=name, **obj)

    def supports_language(self, language: str) -> bool:
        return self.languages is None or language in self.languages


def load_adapters(path: str | Path) -> dict[str, AdapterConfig]:
    obj = read_json(path, "adapters config")
    adapters = obj.get("adapters") if isinstance(obj, dict) else None
    if not isinstance(adapters, dict) or not adapters:
        raise ConfigError(
            f'adapters config {path} defines no adapters; expected {{"adapters": {{name: entry}}}}'
        )
    return {name: AdapterConfig.from_dict(name, entry) for name, entry in adapters.items()}


def _field(obj, key: str, kind: type, default):
    """`obj[key]`, or `default` if absent; TypeError unless `obj` is an object and the value a `kind`."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected an object, got {type(obj).__name__}")
    value = obj.get(key, default)
    if not (is_int(value) if kind is int else isinstance(value, kind)):
        raise TypeError(f"{key!r} must be {kind.__name__}, got {value!r:.80}")
    return value


def _sarif_finding(result, tool: str) -> Finding:
    file, line = "", 1
    locations = _field(result, "locations", list, [])
    if locations:
        physical = _field(locations[0], "physicalLocation", dict, {})
        file = _field(_field(physical, "artifactLocation", dict, {}), "uri", str, "")
        line = _field(_field(physical, "region", dict, {}), "startLine", int, 1)
    return Finding(
        tool=tool,
        rule_id=_field(result, "ruleId", str, ""),
        severity=_SARIF_LEVELS.get(_field(result, "level", str, ""), "unknown"),
        message=_field(_field(result, "message", dict, {}), "text", str, ""),
        file=file,
        line=max(1, line),
    )


def _bandit_finding(result, tool: str) -> Finding:
    return Finding(
        tool=tool,
        rule_id=_field(result, "test_id", str, ""),
        severity=_BANDIT_SEVERITIES.get(_field(result, "issue_severity", str, ""), "unknown"),
        message=_field(result, "issue_text", str, ""),
        file=_field(result, "filename", str, ""),
        line=max(1, _field(result, "line_number", int, 1)),
    )


def _findings(results: list, tool: str, finding) -> list[Finding]:
    """`finding(result, tool)` per result; a result of the wrong shape raises AdapterError naming its index."""
    findings = []
    for n, result in enumerate(results):
        try:
            findings.append(finding(result, tool))
        except TypeError as exc:
            raise AdapterError(f"{tool}: result {n} has the wrong shape: {exc}") from exc
    return findings


def _sarif_failed(invocation) -> bool:
    notes = _field(invocation, "toolExecutionNotifications", list, [])
    return not _field(invocation, "executionSuccessful", bool, True) or any(
        _field(note, "level", str, "warning") == "error" for note in notes
    )


def parse_sarif(text: str, tool: str) -> list[Finding] | None:
    """Parse a SARIF 2.1.0 log into findings with no CWE yet; results are numbered across runs.

    None if an invocation says the tool could not analyze the file: it has
    `executionSuccessful: false` or an error-level tool execution notification.
    """
    try:
        runs = _field(json.loads(text), "runs", list, None)
        results = [result for run in runs for result in _field(run, "results", list, [])]
        failed = any(_sarif_failed(inv) for run in runs for inv in _field(run, "invocations", list, []))
    except (json.JSONDecodeError, TypeError, RecursionError) as exc:
        raise AdapterError(f"not a SARIF log: {exc}") from exc
    return None if failed else _findings(results, tool, _sarif_finding)


def parse_bandit_json(text: str, tool: str) -> list[Finding] | None:
    """Parse a Bandit-style JSON report into findings with no CWE yet.

    None if `errors` has an entry: a run names one file, so the tool could not read it.
    """
    try:
        report = json.loads(text)
        results = _field(report, "results", list, None)
        errors = _field(report, "errors", list, [])
    except (json.JSONDecodeError, TypeError, RecursionError) as exc:
        raise AdapterError(f"not a JSON report: {exc}") from exc
    return None if errors else _findings(results, tool, _bandit_finding)


# report format, as an adapters-config `format` names it -> its parser
_PARSERS = {"sarif": parse_sarif, "bandit_json": parse_bandit_json}


def run_analyzer(adapter: AdapterConfig, source_file: str | Path, cwe_map: CweMap) -> list[Finding] | None:
    """Invoke one analyzer on a file and parse its report from stdout, each finding's CWE mapped.

    An unmapped rule keeps cwe=None. None if the tool could not read the file.
    """
    source_file = Path(source_file)
    if not source_file.is_file():
        raise SosecError(f"source file not found: {source_file}")
    command = [part.replace("{file}", str(source_file)) for part in adapter.command]
    if shutil.which(command[0]) is None:
        raise ToolMissingError(f"analyzer binary not found on PATH: {command[0]}")
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=adapter.timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise AdapterError(f"adapter {adapter.name} timed out after {adapter.timeout}s") from exc
    except UnicodeDecodeError as exc:
        raise AdapterError(f"adapter {adapter.name} wrote output that is not UTF-8: {exc}") from exc
    if proc.returncode not in adapter.ok_returncodes:
        raise AdapterError(
            f"adapter {adapter.name} exited with {proc.returncode}: {proc.stderr.strip()[:500]}"
        )
    try:
        findings = _PARSERS[adapter.format](proc.stdout, adapter.name)
    except AdapterError as exc:
        raise AdapterError(
            f"adapter {adapter.name} produced unparseable output ({exc}); stderr: {proc.stderr.strip()[:500]}"
        ) from exc
    return None if findings is None else [replace(f, cwe=cwe_map.lookup(f.tool, f.rule_id)) for f in findings]


def _analyze_key(
    adapters: Sequence[AdapterConfig], cwe_map: CweMap, key: tuple[str, str]
) -> list[list[Finding] | None] | None:
    language, code = key
    tools = [a for a in adapters if a.supports_language(language)]
    with tempfile.TemporaryDirectory(prefix="sosec-") as workdir:
        source = Path(workdir) / f"sample{SUFFIX_BY_LANGUAGE[language]}"
        try:
            source.write_text(code, encoding="utf-8")  # a lone surrogate in a revision raises here
            if language == "python":
                try:
                    ast.parse(code)
                # ValueError: a NUL byte before 3.12; the other two: nesting too deep for the parser
                except (SyntaxError, ValueError, RecursionError, MemoryError):
                    return [None] * len(tools)
            return [run_analyzer(a, source, cwe_map) for a in tools]
        except (UnicodeEncodeError, AdapterError):  # a missing binary (ToolMissingError) ends the run
            return None


def analyze_codes(
    adapters: Sequence[AdapterConfig],
    cwe_map: CweMap,
    keys: Iterable[tuple[str, str]],
    map: Callable,
) -> dict[tuple[str, str], list[list[Finding] | None] | None]:
    """Analyze each distinct (language, code) key once, through `map` (a pool's, say).

    A key's value has one findings list per adapter that supports its
    language, in order; a list is None where that tool could not read the
    code. Python code that the running interpreter's parser rejects is
    unreadable to every tool, and no analyzer starts for it. The value is None if an analyzer failed or
    the code cannot be written as UTF-8; an analyzer binary missing from PATH
    raises ToolMissingError. Each key's code is written to one
    scratch file, in its own temporary directory, that all its tools read.
    """
    distinct = list(dict.fromkeys(keys))
    return dict(zip(distinct, map(partial(_analyze_key, adapters, cwe_map), distinct)))


def cwe_set(findings: Iterable[Finding]) -> set[str]:
    """Distinct CWEs among findings; unmapped findings contribute nothing."""
    return {f.cwe for f in findings if f.cwe is not None}

