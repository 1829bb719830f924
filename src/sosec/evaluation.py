"""Dataset loading, sample filtration, experiment arms, and security metrics.

Fix Rate is computed over distinct flagged CWE classes (vulnerability
level), while Introduction Rate and No-Change Rate are computed over
samples; all percentages are reported at one decimal.
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from functools import partial
from pathlib import Path
from typing import Sequence

from .analysis import (
    CWE_RE,
    AdapterConfig,
    CweMap,
    Finding,
    FindingDiff,
    analyze_file,
    cwe_set,
    diff_cwe_sets,
)
from .errors import ConfigError, PromptBudgetError, ProviderError, SosecError, open_text
from .retrieval import RetrievalIndex, retrieve
from .revision import DEFAULT_CHAR_BUDGET, revise

DATASETS = ("sallm", "llmseceval", "lmsys", "custom")
LANGUAGES = ("python", "c", "other")

ARM_PROMPT_ONLY = "prompt_only"
ARM_REVISION_ONLY = "revision_only"
ARM_CWE_LABEL = "cwe_label"
ARM_SOSECURE = "sosecure"
ARMS = (ARM_PROMPT_ONLY, ARM_REVISION_ONLY, ARM_CWE_LABEL, ARM_SOSECURE)

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
class SampleOutcome:
    sample_id: str
    arm: str
    before_cwes: set[str]
    after_cwes: set[str]
    unchanged: bool

    @property
    def diff(self) -> FindingDiff:
        return diff_cwe_sets(self.before_cwes, self.after_cwes)


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
    if labeled_cwe is not None and not CWE_RE.match(str(labeled_cwe)):
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
    """Load a JSONL dataset, rejecting malformed lines and repeated sample ids by line number."""
    samples = []
    problems = []
    first_line: dict[str, int] = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                sample = _validate_sample(json.loads(line))
            except ValueError as exc:
                problems.append(f"line {line_no}: {exc}")
                continue
            seen = first_line.setdefault(sample.sample_id, line_no)
            if seen != line_no:
                problems.append(f"line {line_no}: sample_id {sample.sample_id!r} repeats line {seen}")
            samples.append(sample)
    if problems:
        raise ConfigError(f"{path}: invalid dataset lines: " + "; ".join(problems))
    return samples


def load_supported_cwes(path: str | Path) -> set[str]:
    supported = set()
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not CWE_RE.match(line):
            raise ConfigError(f"{path}: malformed CWE {line!r}")
        supported.add(line)
    if not supported:
        raise ConfigError(f"{path} lists no supported CWEs")
    return supported


def analyze_code(
    adapters: Sequence[AdapterConfig], cwe_map: CweMap, language: str, code: str
) -> list[list[Finding]]:
    """One findings list per adapter, in order; empty for an adapter that skips `language`.

    The code is written to one scratch file, in its own temporary directory,
    and every adapter runs on that file. Raises SosecError if an analyzer fails.
    """
    suffix = _SUFFIX_BY_LANGUAGE.get(language, ".txt")
    with tempfile.TemporaryDirectory(prefix="sosec-") as workdir:
        source = Path(workdir) / f"sample{suffix}"
        source.write_text(code, encoding="utf-8")
        return [
            analyze_file(adapter, cwe_map, source) if adapter.supports_language(language) else []
            for adapter in adapters
        ]


def _cwe_label_note(sample: CodeSample) -> str:
    name = CWE_NAMES.get(sample.labeled_cwe or "")
    suffix = f" ({name})" if name else ""
    return _CWE_LABEL_NOTE.format(cwe=sample.labeled_cwe, name=suffix)


def validate_arms(arms: Sequence[str], has_index: bool) -> None:
    """Reject unknown or repeated arm names, and sosecure without an index."""
    for arm in arms:
        if arm not in ARMS:
            raise ConfigError(f"unknown arm {arm!r}")
    repeated = sorted({arm for arm in arms if arms.count(arm) > 1})
    if repeated:
        raise ConfigError(f"arm named more than once: {', '.join(repeated)}")
    if ARM_SOSECURE in arms and not has_index:
        raise ConfigError("sosecure arm requires a retrieval index")


def _findings_or_none(
    adapters: Sequence[AdapterConfig], cwe_map: CweMap, key: tuple[str, str]
) -> list[list[Finding]] | None:
    """`analyze_code` on a (language, code) key; None if an analyzer fails."""
    try:
        return analyze_code(adapters, cwe_map, *key)
    except SosecError:
        return None


def _revise_for_arm(provider, index, k: int, budget: int, arm: str, sample: CodeSample):
    """The arm's RevisionRecord for `sample`, or the tally reason it could not be revised."""
    hits, note = [], None
    if arm == ARM_SOSECURE:
        hits = retrieve(index, sample.code, k=k)
    elif arm == ARM_CWE_LABEL:
        note = _cwe_label_note(sample)
    try:
        return revise(provider, sample.code, hits, sample_id=sample.sample_id, budget=budget, note=note)
    except ProviderError:
        return "provider_errors"
    except PromptBudgetError:
        return "prompt_budget_errors"


def run_arms(
    samples: Sequence[CodeSample],
    arms: Sequence[str],
    provider,
    index: RetrievalIndex | None = None,
    *,
    adapters: Sequence[AdapterConfig],
    cwe_map: CweMap,
    supported_cwes: set[str],
    k: int = 5,
    budget: int = DEFAULT_CHAR_BUDGET,
    workers: int = 1,
    tally: Counter | None = None,
) -> list[SampleOutcome]:
    """Filter the samples and run the experimental arms, phase by phase.

    First every distinct original code is analyzed with every adapter. A
    sample is dropped and tallied as `not_dual_flagged` unless every adapter
    flags it, or as `analyzer_errors` if an analyzer fails; it is dropped
    untallied if none of its CWEs is in `supported_cwes`, and metrics see
    only those classes. Then the arms run in order: prompt_only reuses the
    before findings unchanged; each other arm revises every sample still in
    the run (with retrieved context only under sosecure), then analyzes the
    revised codes not analyzed yet. A sample on which an arm fails (the
    provider, the prompt budget or an analyzer) is dropped from every arm,
    is not sent to later arms, and is tallied once, in sample order, under
    that arm's reason; so all arms are compared on the same samples.

    Analysis and revision run on a pool of `workers` threads. Only the
    calling thread reads or writes the results, so each distinct
    (language, code) is analyzed once per call. Outcomes come arm by arm,
    each ordered by sample_id.
    """
    validate_arms(arms, index is not None)
    if not supported_cwes:
        raise ConfigError("supported CWE set is empty")
    if ARM_CWE_LABEL in arms:
        unlabeled = [s.sample_id for s in samples if not s.labeled_cwe]
        if unlabeled:
            raise ConfigError(
                "cwe_label arm requires labeled_cwe on every sample; missing on: "
                + ", ".join(sorted(unlabeled))
            )
    if tally is None:
        tally = Counter()
    # keyed by (language, code); None where an analyzer failed
    results: dict[tuple[str, str], list[list[Finding]] | None] = {}
    before: dict[int, set[str]] = {}  # sample position -> supported CWEs, for filtered-in samples
    dropped: dict[int, str] = {}  # sample position -> reason of the first failure
    by_arm: dict[str, list[tuple[int, SampleOutcome]]] = {arm: [] for arm in arms}

    def supported(per_adapter: list[list[Finding]]) -> set[str]:
        return cwe_set(f for findings in per_adapter for f in findings) & supported_cwes

    with ThreadPoolExecutor(max_workers=workers) as pool:

        def analyze(keys: list[tuple[str, str]]) -> None:
            new = [key for key in dict.fromkeys(keys) if key not in results]
            results.update(zip(new, pool.map(partial(_findings_or_none, adapters, cwe_map), new)))

        analyze([(sample.language, sample.code) for sample in samples])
        for i, sample in enumerate(samples):
            per_adapter = results[(sample.language, sample.code)]
            if per_adapter is None:
                dropped[i] = "analyzer_errors"
            elif not all(per_adapter):
                dropped[i] = "not_dual_flagged"
            elif cwes := supported(per_adapter):
                before[i] = cwes
            # else outside the supported CWE set: dropped, not tallied

        for arm in arms:
            live = [i for i in before if i not in dropped]
            if arm == ARM_PROMPT_ONLY:
                for i in live:
                    outcome = SampleOutcome(samples[i].sample_id, arm, before[i], set(before[i]), True)
                    by_arm[arm].append((i, outcome))
                continue
            revise_arm = partial(_revise_for_arm, provider, index, k, budget, arm)
            records = list(zip(live, pool.map(revise_arm, [samples[i] for i in live])))
            analyze([(samples[i].language, r.revised_code) for i, r in records if not isinstance(r, str)])
            for i, record in records:
                if isinstance(record, str):
                    dropped[i] = record
                    continue
                per_adapter = results[(samples[i].language, record.revised_code)]
                if per_adapter is None:
                    dropped[i] = "analyzer_errors"
                    continue
                outcome = SampleOutcome(
                    samples[i].sample_id, arm, before[i], supported(per_adapter), not record.changed
                )
                by_arm[arm].append((i, outcome))

    for i in sorted(dropped):
        tally[dropped[i]] += 1
    return [
        outcome
        for arm in arms
        for outcome in sorted(
            (o for i, o in by_arm[arm] if i not in dropped), key=lambda o: o.sample_id
        )
    ]


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
