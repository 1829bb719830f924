"""Static-analyzer adapters, finding normalization, and before/after diffs.

Analyzers run as external subprocesses; this module only parses their
machine-readable output (SARIF 2.1.0 or a Bandit-style JSON report) and
maps tool rules to CWE classes. Diffs are computed over the set of distinct
CWEs per file, since line-level matching across a rewritten file is
ill-defined.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from .errors import AdapterError, ConfigError, SosecError, ToolMissingError, open_text

CWE_RE = re.compile(r"^CWE-[0-9]+$")

FORMAT_SARIF = "sarif"
FORMAT_BANDIT_JSON = "bandit_json"

DEFAULT_TIMEOUT = 120.0

_SARIF_LEVELS = {"error": "high", "warning": "medium", "note": "low"}
_BANDIT_SEVERITIES = {"HIGH": "high", "MEDIUM": "medium", "LOW": "low"}


@dataclass(frozen=True)
class Finding:
    """One analyzer result; `cwe` is None until mapped, and stays None for an unmapped rule."""

    tool: str
    rule_id: str
    severity: str
    message: str
    file: str
    line: int
    cwe: str | None = None

    def __post_init__(self):
        if self.cwe is not None and not CWE_RE.match(self.cwe):
            raise ConfigError(f"malformed CWE identifier: {self.cwe!r}")
        if self.line < 1:
            raise ConfigError(f"finding line must be >= 1, got {self.line}")

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "rule_id": self.rule_id,
            "cwe": self.cwe,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
        }


@dataclass
class FindingDiff:
    fixed: set[str]
    persisted: set[str]
    introduced: set[str]


class CweMap:
    """(tool, rule_id) -> CWE lookup, loaded from an editable JSON file."""

    def __init__(self, entries: dict[tuple[str, str], str]):
        for (tool, rule), cwe in entries.items():
            if not CWE_RE.match(cwe):
                raise ConfigError(f"malformed CWE {cwe!r} for rule {tool}/{rule}")
        self.entries = dict(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "CweMap":
        try:
            with open_text(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read CWE map {path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"CWE map {path} must be a JSON object keyed by tool")
        entries: dict[tuple[str, str], str] = {}
        for tool, rules in obj.items():
            if not isinstance(rules, dict):
                raise ConfigError(f"CWE map {path}: entry for tool {tool!r} must be an object")
            for rule, cwe in rules.items():
                if not isinstance(cwe, str) or not CWE_RE.match(cwe):
                    raise ConfigError(f"CWE map {path}: malformed CWE {cwe!r} for {tool}/{rule}")
                entries[(tool, rule)] = cwe
        return cls(entries)

    def lookup(self, tool: str, rule_id: str) -> str | None:
        return self.entries.get((tool, rule_id))


def _list_of(kind: type):
    return lambda value: isinstance(value, list) and all(type(v) is kind for v in value)


# adapters-config entry key -> (check, what the value must be)
_ENTRY_CHECKS = {
    "command": (_list_of(str), "a list of strings"),
    "timeout": (lambda v: type(v) in (int, float) and 0 < v < math.inf, "a positive number"),
    "ok_returncodes": (_list_of(int), "a list of integers"),
    "languages": (
        lambda v: v is None or (_list_of(str)(v) and len(v) > 0),
        "a list of strings or null (not an empty list)",
    ),
}
_ENTRY_KEYS = {"format", *_ENTRY_CHECKS}


@dataclass
class AdapterConfig:
    """How to invoke one analyzer and read its report."""

    name: str
    command: list[str]
    format: str
    timeout: float = DEFAULT_TIMEOUT
    ok_returncodes: tuple[int, ...] = (0, 1)
    languages: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.format not in (FORMAT_SARIF, FORMAT_BANDIT_JSON):
            raise ConfigError(f"adapter {self.name}: unknown output format {self.format!r}")
        if not self.command:
            raise ConfigError(f"adapter {self.name}: empty command")

    @classmethod
    def from_dict(cls, name: str, obj: dict) -> "AdapterConfig":
        """Read one adapters-config entry; an unknown key or a value of the wrong type raises ConfigError."""
        if not isinstance(obj, dict):
            raise ConfigError(f"adapter {name}: entry must be a JSON object, got {obj!r}")
        for key in obj:
            if key not in _ENTRY_KEYS:
                raise ConfigError(f"adapter {name}: unknown key {key!r}")
        for key, (ok, what) in _ENTRY_CHECKS.items():
            if key in obj and not ok(obj[key]):
                raise ConfigError(f"adapter {name}: {key} must be {what}, got {obj[key]!r}")
        try:
            return cls(
                name=name,
                command=list(obj["command"]),
                format=obj["format"],
                timeout=float(obj.get("timeout", DEFAULT_TIMEOUT)),
                ok_returncodes=tuple(obj.get("ok_returncodes", (0, 1))),
                languages=tuple(obj["languages"]) if obj.get("languages") else None,
            )
        except KeyError as exc:
            raise ConfigError(f"adapter {name}: missing key {exc}") from exc

    def supports_language(self, language: str) -> bool:
        return self.languages is None or language in self.languages


def load_adapters(path: str | Path) -> dict[str, AdapterConfig]:
    try:
        with open_text(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read adapters config {path}: {exc}") from exc
    adapters = obj.get("adapters") if isinstance(obj, dict) else None
    if not isinstance(adapters, dict) or not adapters:
        raise ConfigError(
            f'adapters config {path} defines no adapters; expected {{"adapters": {{name: entry}}}}'
        )
    return {name: AdapterConfig.from_dict(name, entry) for name, entry in adapters.items()}


def parse_sarif(text: str, tool: str) -> list[Finding]:
    """Parse a SARIF 2.1.0 log into findings with no CWE yet."""
    try:
        obj = json.loads(text)
        runs = obj["runs"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise AdapterError(f"not a SARIF log: {exc}") from exc
    findings = []
    for run in runs:
        for result in run.get("results", []):
            locations = result.get("locations", [])
            file, line = "", 1
            if locations:
                physical = locations[0].get("physicalLocation", {})
                file = physical.get("artifactLocation", {}).get("uri", "")
                line = physical.get("region", {}).get("startLine", 1)
            findings.append(
                Finding(
                    tool=tool,
                    rule_id=result.get("ruleId", ""),
                    severity=_SARIF_LEVELS.get(result.get("level", ""), "unknown"),
                    message=result.get("message", {}).get("text", ""),
                    file=file,
                    line=max(1, int(line)),
                )
            )
    return findings


def parse_bandit_json(text: str, tool: str) -> list[Finding]:
    """Parse a Bandit-style JSON report into findings with no CWE yet."""
    try:
        obj = json.loads(text)
        results = obj["results"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise AdapterError(f"not a JSON report: {exc}") from exc
    findings = []
    for result in results:
        findings.append(
            Finding(
                tool=tool,
                rule_id=result.get("test_id", ""),
                severity=_BANDIT_SEVERITIES.get(result.get("issue_severity", ""), "unknown"),
                message=result.get("issue_text", ""),
                file=result.get("filename", ""),
                line=max(1, int(result.get("line_number", 1))),
            )
        )
    return findings


_PARSERS = {FORMAT_SARIF: parse_sarif, FORMAT_BANDIT_JSON: parse_bandit_json}


def run_analyzer(adapter: AdapterConfig, source_file: str | Path) -> list[Finding]:
    """Invoke one analyzer on a file and parse its report from stdout."""
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
        return _PARSERS[adapter.format](proc.stdout, adapter.name)
    except AdapterError as exc:
        raise AdapterError(
            f"adapter {adapter.name} produced unparseable output ({exc}); stderr: {proc.stderr.strip()[:500]}"
        ) from exc


def normalize_finding(finding: Finding, cwe_map: CweMap) -> Finding:
    """Attach the mapped CWE; unmapped rules keep cwe=None."""
    return replace(finding, cwe=cwe_map.lookup(finding.tool, finding.rule_id))


def analyze_file(
    adapter: AdapterConfig, cwe_map: CweMap, source_file: str | Path
) -> list[Finding]:
    return [normalize_finding(f, cwe_map) for f in run_analyzer(adapter, source_file)]


def cwe_set(findings: Iterable[Finding]) -> set[str]:
    """Distinct CWEs among findings; unmapped findings contribute nothing."""
    return {f.cwe for f in findings if f.cwe is not None}


def diff_cwe_sets(before: set[str], after: set[str]) -> FindingDiff:
    return FindingDiff(
        fixed=before - after,
        persisted=before & after,
        introduced=after - before,
    )
