"""Dataset loading, sample filtration, experiment arms, and security metrics.

Fix Rate is computed over distinct flagged CWE classes (vulnerability
level), while Introduction Rate and No-Change Rate are computed over
samples; all percentages are reported at one decimal.
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
import threading
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path
from typing import Sequence

from .analysis import (
    AdapterConfig,
    CweMap,
    Finding,
    FindingDiff,
    analyze_file,
    cwe_set,
    diff_cwe_sets,
)
from .errors import ConfigError, PromptBudgetError, ProviderError, SosecError
from .retrieval import RetrievalIndex, retrieve
from .revision import DEFAULT_CHAR_BUDGET, revise

DATASETS = ("sallm", "llmseceval", "lmsys", "custom")
LANGUAGES = ("python", "c", "other")

ARM_PROMPT_ONLY = "prompt_only"
ARM_REVISION_ONLY = "revision_only"
ARM_CWE_LABEL = "cwe_label"
ARM_SOSECURE = "sosecure"
ARMS = (ARM_PROMPT_ONLY, ARM_REVISION_ONLY, ARM_CWE_LABEL, ARM_SOSECURE)

CWE_PATTERN = re.compile(r"^CWE-[0-9]+$")

_SUFFIX_BY_LANGUAGE = {"python": ".py", "c": ".c", "other": ".txt"}

# Names for the label-bearing prompt note; labels outside this table are
# passed through without a name.
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

_CWE_LABEL_NOTE = "Static analysis suggests the code may contain {cwe}{name}."


@dataclass
class CodeSample:
    sample_id: str
    code: str
    dataset: str = "custom"
    language: str = "python"
    prompt: str | None = None
    labeled_cwe: str | None = None


@dataclass
class AnalyzedSample:
    """A sample together with the findings on its original code."""

    sample: CodeSample
    before: list[Finding]

    @property
    def before_cwes(self) -> set[str]:
        return cwe_set(self.before)


@dataclass
class SampleOutcome:
    sample_id: str
    arm: str
    before_cwes: set[str]
    after_cwes: set[str]
    diff: FindingDiff
    unchanged: bool

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "arm": self.arm,
            "before_cwes": sorted(self.before_cwes),
            "after_cwes": sorted(self.after_cwes),
            "diff": self.diff.to_dict(),
            "unchanged": self.unchanged,
        }


def _validate_sample(obj: dict) -> CodeSample:
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    sample_id = obj.get("sample_id")
    if not isinstance(sample_id, str) or not sample_id:
        raise ValueError("missing or empty 'sample_id'")
    code = obj.get("code")
    if not isinstance(code, str) or not code:
        raise ValueError("missing or empty 'code'")
    dataset = obj.get("dataset", "custom")
    if dataset not in DATASETS:
        raise ValueError(f"unknown dataset {dataset!r}")
    language = obj.get("language", "python")
    if language not in LANGUAGES:
        raise ValueError(f"unknown language {language!r}")
    labeled_cwe = obj.get("labeled_cwe")
    if labeled_cwe is not None and not CWE_PATTERN.match(str(labeled_cwe)):
        raise ValueError(f"labeled_cwe {labeled_cwe!r} does not match CWE-NNN")
    prompt = obj.get("prompt")
    if prompt is not None and not isinstance(prompt, str):
        raise ValueError("'prompt' must be a string")
    return CodeSample(
        sample_id=sample_id,
        code=code,
        dataset=dataset,
        language=language,
        prompt=prompt,
        labeled_cwe=labeled_cwe,
    )


def load_samples(path: str | Path) -> list[CodeSample]:
    """Load a JSONL dataset, rejecting malformed lines with their numbers."""
    samples = []
    problems = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                samples.append(_validate_sample(json.loads(line)))
            except (json.JSONDecodeError, ValueError) as exc:
                problems.append(f"line {line_no}: {exc}")
    if problems:
        raise ConfigError(f"{path}: invalid dataset lines: " + "; ".join(problems))
    return samples


def load_supported_cwes(path: str | Path) -> set[str]:
    supported = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not CWE_PATTERN.match(line):
            raise ConfigError(f"{path}: malformed CWE {line!r}")
        supported.add(line)
    if not supported:
        raise ConfigError(f"{path} lists no supported CWEs")
    return supported


class AnalysisMemo:
    """Each adapter's findings per distinct piece of code, for one eval run.

    Keyed by (adapter name, language, sha256 of the code). The first caller
    for a key runs the adapter; callers that ask while it runs wait for that
    result instead of starting another subprocess. An analyzer error is
    stored like a result, so every caller sees the same outcome for the same
    code. One memo serves one adapters config and one CWE map; make a new
    one for each run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._results: dict[tuple[str, str, str], Future] = {}

    def findings(
        self, adapter: AdapterConfig, language: str, code: str, cwe_map: CweMap
    ) -> list[Finding]:
        key = (adapter.name, language, hashlib.sha256(code.encode("utf-8")).hexdigest())
        with self._lock:
            future = self._results.get(key)
            owner = future is None
            if owner:
                future = self._results[key] = Future()
        if not owner:
            return future.result()
        try:
            findings = _run_adapter(adapter, language, code, cwe_map)
        except BaseException as exc:
            future.set_exception(exc)  # waiters re-raise it; none is left blocked
            raise
        future.set_result(findings)
        return findings


def _run_adapter(
    adapter: AdapterConfig, language: str, code: str, cwe_map: CweMap
) -> list[Finding]:
    """Write code to a scratch file and run one adapter on it."""
    suffix = _SUFFIX_BY_LANGUAGE.get(language, ".txt")
    with tempfile.TemporaryDirectory(prefix="sosec-") as workdir:
        source = Path(workdir) / f"sample{suffix}"
        source.write_text(code, encoding="utf-8")
        return analyze_file(adapter, cwe_map, source)


def analyze_code(
    code: str,
    language: str,
    adapters: Sequence[AdapterConfig],
    cwe_map: CweMap,
    memo: AnalysisMemo | None = None,
) -> list[Finding]:
    """Findings of every applicable adapter on code, looked up in `memo`.

    Without a memo, each adapter runs once for this call.
    """
    if memo is None:
        memo = AnalysisMemo()
    findings: list[Finding] = []
    for adapter in adapters:
        if adapter.supports_language(language):
            findings.extend(memo.findings(adapter, language, code, cwe_map))
    return findings


def _map_samples(fn, items: Sequence, workers: int) -> list:
    """fn over items in input order, on a pool of `workers` threads when more than one."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def dual_tool_filter(
    samples: Sequence[CodeSample],
    adapter_a: AdapterConfig,
    adapter_b: AdapterConfig,
    cwe_map: CweMap,
    tally: Counter | None = None,
    *,
    workers: int = 1,
    memo: AnalysisMemo | None = None,
) -> list[AnalyzedSample]:
    """Keep samples flagged by both analyzers on the original code.

    Samples on which an analyzer errors out are excluded and tallied, not
    silently counted against either side.
    """
    if tally is None:
        tally = Counter()
    if memo is None:
        memo = AnalysisMemo()

    def analyze(sample: CodeSample) -> AnalyzedSample | str:
        try:
            findings_a = analyze_code(sample.code, sample.language, [adapter_a], cwe_map, memo)
            findings_b = analyze_code(sample.code, sample.language, [adapter_b], cwe_map, memo)
        except SosecError:
            return "analyzer_errors"
        if findings_a and findings_b:
            return AnalyzedSample(sample=sample, before=findings_a + findings_b)
        return "not_dual_flagged"

    kept = []
    # tally updates happen here, on one thread, so counters stay mergeable
    for result in _map_samples(analyze, samples, workers):
        if isinstance(result, str):
            tally[result] += 1
        else:
            kept.append(result)
    return kept


def filter_supported(
    analyzed: Sequence[AnalyzedSample],
    supported_cwes: set[str],
) -> list[AnalyzedSample]:
    """Keep samples whose before-CWE set intersects the supported set."""
    if not supported_cwes:
        raise ConfigError("supported CWE set is empty")
    return [a for a in analyzed if a.before_cwes & supported_cwes]


def _cwe_label_note(sample: CodeSample) -> str:
    name = CWE_NAMES.get(sample.labeled_cwe or "")
    suffix = f" ({name})" if name else ""
    return _CWE_LABEL_NOTE.format(cwe=sample.labeled_cwe, name=suffix)


def run_arms(
    analyzed: Sequence[AnalyzedSample],
    arms: Sequence[str],
    provider,
    index: RetrievalIndex | None = None,
    *,
    adapters: Sequence[AdapterConfig],
    cwe_map: CweMap,
    supported_cwes: set[str] | None = None,
    k: int = 5,
    budget: int = DEFAULT_CHAR_BUDGET,
    workers: int = 1,
    tally: Counter | None = None,
    memo: AnalysisMemo | None = None,
) -> list[SampleOutcome]:
    """Run experimental arms over pre-analyzed samples, paired by sample.

    prompt_only reuses the before findings unchanged; the other arms revise
    (with retrieved context only under sosecure) and re-analyze the revised
    code with `adapters`. When a supported-CWE set is given, metrics see
    only those classes. A sample on which any arm fails (the provider, the
    prompt budget or an analyzer) is dropped from every arm and tallied
    once, under the reason of the first arm that failed, so all arms are
    compared on the same samples. Outcomes come arm by arm, each ordered by
    sample_id.
    """
    for arm in arms:
        if arm not in ARMS:
            raise ConfigError(f"unknown arm {arm!r}")
    if ARM_SOSECURE in arms and index is None:
        raise ConfigError("sosecure arm requires a retrieval index")
    if ARM_CWE_LABEL in arms:
        unlabeled = [a.sample.sample_id for a in analyzed if not a.sample.labeled_cwe]
        if unlabeled:
            raise ConfigError(
                "cwe_label arm requires labeled_cwe on every sample; missing on: "
                + ", ".join(sorted(unlabeled))
            )
    if tally is None:
        tally = Counter()
    if memo is None:
        memo = AnalysisMemo()

    def restrict(cwes: set[str]) -> set[str]:
        return cwes & supported_cwes if supported_cwes is not None else cwes

    def evaluate(item: AnalyzedSample, arm: str) -> SampleOutcome | str:
        sample = item.sample
        before = restrict(item.before_cwes)
        if arm == ARM_PROMPT_ONLY:
            after = set(before)
            unchanged = True
        else:
            if arm == ARM_SOSECURE:
                hits = retrieve(index, sample.code, k=k)
                note = None
            elif arm == ARM_CWE_LABEL:
                hits = []
                note = _cwe_label_note(sample)
            else:
                hits = []
                note = None
            try:
                record = revise(
                    provider, sample.code, hits, sample_id=sample.sample_id, budget=budget, note=note
                )
            except ProviderError:
                return "provider_errors"
            except PromptBudgetError:
                return "prompt_budget_errors"
            try:
                after_findings = analyze_code(
                    record.revised_code, sample.language, adapters, cwe_map, memo
                )
            except SosecError:
                return "analyzer_errors"
            after = restrict(cwe_set(after_findings))
            unchanged = not record.changed
        return SampleOutcome(
            sample_id=sample.sample_id,
            arm=arm,
            before_cwes=before,
            after_cwes=after,
            diff=diff_cwe_sets(before, after),
            unchanged=unchanged,
        )

    def evaluate_all(item: AnalyzedSample) -> list[SampleOutcome] | str:
        outcomes = []
        for arm in arms:
            outcome = evaluate(item, arm)
            if isinstance(outcome, str):
                return outcome  # the sample is dropped from every arm; skip the rest
            outcomes.append(outcome)
        return outcomes

    by_arm: dict[str, list[SampleOutcome]] = {arm: [] for arm in arms}
    # tally updates happen here, on one thread, so counters stay mergeable
    for result in _map_samples(evaluate_all, analyzed, workers):
        if isinstance(result, str):
            tally[result] += 1
            continue
        for outcome in result:
            by_arm[outcome.arm].append(outcome)
    return [o for arm in by_arm for o in sorted(by_arm[arm], key=lambda o: o.sample_id)]


def run_arm(
    analyzed: Sequence[AnalyzedSample],
    arm: str,
    provider,
    index: RetrievalIndex | None = None,
    **kwargs,
) -> list[SampleOutcome]:
    """Run one experimental arm; see `run_arms` for the keyword arguments."""
    return run_arms(analyzed, [arm], provider, index, **kwargs)


def round_rate(value: float) -> float:
    """Round a percentage to one decimal (half-to-even on the float value)."""
    return float(Decimal(value).quantize(Decimal("0.1"), rounding=ROUND_HALF_EVEN))


@dataclass
class ArmMetrics:
    samples: int
    vulns_before: int
    fix_rate: float | None
    intro_rate: float
    no_change_rate: float
    delta_fix_vs_baseline: float | None = None

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "vulns_before": self.vulns_before,
            "fix_rate": self.fix_rate,
            "intro_rate": self.intro_rate,
            "no_change_rate": self.no_change_rate,
            "delta_fix_vs_baseline": self.delta_fix_vs_baseline,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ArmMetrics":
        return cls(**obj)


@dataclass
class EvalReport:
    per_arm: dict[str, ArmMetrics]
    per_cwe: dict[str, dict[str, int]]
    counts: dict[str, int]
    footnotes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "per_arm": {arm: m.to_dict() for arm, m in self.per_arm.items()},
            "per_cwe": self.per_cwe,
            "counts": self.counts,
            "footnotes": list(self.footnotes),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalReport":
        return cls(
            per_arm={arm: ArmMetrics.from_dict(m) for arm, m in obj["per_arm"].items()},
            per_cwe={cwe: dict(stat) for cwe, stat in obj["per_cwe"].items()},
            counts=dict(obj["counts"]),
            footnotes=list(obj["footnotes"]),
        )


def per_cwe_breakdown(outcomes: Sequence[SampleOutcome]) -> dict[str, dict[str, int]]:
    """Per-CWE totals: samples flagged before, and how many got fixed."""
    breakdown: dict[str, dict[str, int]] = {}
    for outcome in outcomes:
        for cwe in outcome.before_cwes:
            stat = breakdown.setdefault(cwe, {"total": 0, "fixed": 0})
            stat["total"] += 1
            if cwe in outcome.diff.fixed:
                stat["fixed"] += 1
    return {cwe: breakdown[cwe] for cwe in sorted(breakdown)}


def _arm_metrics(outcomes: Sequence[SampleOutcome]) -> ArmMetrics:
    samples = len(outcomes)
    vulns_before = sum(len(o.before_cwes) for o in outcomes)
    fixed_total = sum(len(o.diff.fixed) for o in outcomes)
    fix_rate = round_rate(100.0 * fixed_total / vulns_before) if vulns_before else None
    intro_rate = round_rate(100.0 * sum(1 for o in outcomes if o.diff.introduced) / samples)
    no_change_rate = round_rate(100.0 * sum(1 for o in outcomes if o.unchanged) / samples)
    return ArmMetrics(
        samples=samples,
        vulns_before=vulns_before,
        fix_rate=fix_rate,
        intro_rate=intro_rate,
        no_change_rate=no_change_rate,
    )


def compute_metrics(
    outcomes: Sequence[SampleOutcome],
    baseline_arm: str | None = None,
    footnotes: Sequence[str] = (),
) -> EvalReport:
    """Aggregate outcomes (possibly spanning several arms) into a report."""
    if not outcomes:
        raise ConfigError("no outcomes to aggregate")

    by_arm: dict[str, list[SampleOutcome]] = {}
    for outcome in outcomes:
        by_arm.setdefault(outcome.arm, []).append(outcome)

    arm_order = [a for a in ARMS if a in by_arm] + sorted(set(by_arm) - set(ARMS))
    per_arm = {arm: _arm_metrics(by_arm[arm]) for arm in arm_order}

    if baseline_arm is not None:
        if baseline_arm not in per_arm:
            raise ConfigError(f"baseline arm {baseline_arm!r} has no outcomes")
        base_rate = per_arm[baseline_arm].fix_rate
        for arm, metrics in per_arm.items():
            if arm != baseline_arm and metrics.fix_rate is not None and base_rate is not None:
                metrics.delta_fix_vs_baseline = round_rate(metrics.fix_rate - base_rate)

    principal = ARM_SOSECURE if ARM_SOSECURE in by_arm else arm_order[0]
    reference = by_arm[principal]
    counts = {
        "samples": len({o.sample_id for o in reference}),
        "vulns_before": sum(len(o.before_cwes) for o in reference),
    }

    notes = list(footnotes)
    notes.append(
        "fix/introduction rates count distinct CWE classes per sample, not individual findings"
    )
    return EvalReport(
        per_arm=per_arm,
        per_cwe=per_cwe_breakdown(reference),
        counts=counts,
        footnotes=notes,
    )


def _fmt_rate(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}%"


def render_report_text(report: EvalReport) -> str:
    """Aligned plain-text table: arm, fix rate, delta, intro rate, no-change rate."""
    headers = ["arm", "fix_rate", "delta_fix", "intro_rate", "no_change_rate"]
    rows = [
        [
            arm,
            _fmt_rate(m.fix_rate),
            _fmt_rate(m.delta_fix_vs_baseline),
            _fmt_rate(m.intro_rate),
            _fmt_rate(m.no_change_rate),
        ]
        for arm, m in report.per_arm.items()
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows]
    lines.append("")
    lines.append(
        f"samples: {report.counts['samples']}, flagged CWEs before revision: {report.counts['vulns_before']}"
    )
    for note in report.footnotes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
