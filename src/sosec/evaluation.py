"""Dataset loading, sample filtration, experiment arms, and security metrics.

Fix Rate is computed over distinct flagged CWE classes (vulnerability
level), while Introduction Rate and No-Change Rate are computed over
samples; all percentages are reported at one decimal.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Sequence

from .analysis import CWE_RE, SUFFIX_BY_LANGUAGE, AdapterConfig, CweMap, Finding, analyze_codes, cwe_set
from .errors import ConfigError, PromptBudgetError, ProviderError, is_str, jsonl_lines, read_lines
from .retrieval import DEFAULT_TOP_K, RetrievalIndex, retrieve
from .revision import DEFAULT_CHAR_BUDGET, revise

DATASETS = ("sallm", "llmseceval", "lmsys", "custom")

ARM_PROMPT_ONLY = "prompt_only"
ARM_REVISION_ONLY = "revision_only"
ARM_CWE_LABEL = "cwe_label"
ARM_SOSECURE = "sosecure"
ARMS = (ARM_PROMPT_ONLY, ARM_REVISION_ONLY, ARM_CWE_LABEL, ARM_SOSECURE)
REVISING_ARMS = (ARM_REVISION_ONLY, ARM_CWE_LABEL, ARM_SOSECURE)  # the arms that call the provider


@dataclass
class CodeSample:
    """One dataset record; a bad value raises ConfigError."""

    sample_id: str
    code: str
    dataset: str = "custom"
    language: str = "python"
    labeled_cwe: str | None = None

    def __post_init__(self):
        for name in ("sample_id", "code"):
            if not is_str(value := getattr(self, name)) or not value:
                raise ConfigError(f"missing or empty {name!r}")
        try:
            self.code.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfigError(f"'code' cannot be encoded as UTF-8: {exc}") from exc
        if self.dataset not in DATASETS:
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if not is_str(self.language) or self.language not in SUFFIX_BY_LANGUAGE:
            raise ConfigError(f"unknown language {self.language!r}")
        if self.labeled_cwe is not None and not (is_str(self.labeled_cwe) and CWE_RE.match(self.labeled_cwe)):
            raise ConfigError(f"labeled_cwe {self.labeled_cwe!r} does not match CWE-NNN")


@dataclass
class Trial:
    """One sample in one arm, or the point where the sample left the run.

    `arm` is None for the filter, which runs before any arm. `before_cwes`
    holds the supported classes flagged before. `after_cwes` holds the
    supported classes flagged after, and every other mapped class that was
    not flagged before. So `fixed` counts only supported classes, and
    `introduced` every mapped class that is new after the revision.
    `dropped` is the tally reason when the sample left the run here; its
    after-state is then empty, and at the filter its before-state too.
    `readable` is False for a revision that a filter tool could not read; it
    is scored as not fixed, so its after-set is its before-set. CWE sets are
    compared as sets of distinct classes, since line-level matching across
    a rewritten file is ill-defined.
    """

    sample_id: str
    arm: str | None
    before_cwes: set[str]
    after_cwes: set[str]
    unchanged: bool
    dropped: str | None = None
    readable: bool = True

    @property
    def fixed(self) -> set[str]:
        return self.before_cwes - self.after_cwes

    @property
    def introduced(self) -> set[str]:
        return self.after_cwes - self.before_cwes


_OPTIONAL_SAMPLE_FIELDS = [f.name for f in fields(CodeSample)][2:]  # those after sample_id and code


def load_samples(path: str | Path) -> list[CodeSample]:
    """Load a JSONL dataset, rejecting malformed lines and repeated sample ids by line number.

    A record's keys that are not `CodeSample` fields are ignored, and an
    absent optional field takes its default.
    """
    samples = []
    problems = []
    first_line: dict[str, int] = {}
    for line_no, line in jsonl_lines(path):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ConfigError("record is not a JSON object")
            optional = {name: obj[name] for name in _OPTIONAL_SAMPLE_FIELDS if name in obj}
            sample = CodeSample(obj.get("sample_id"), obj.get("code"), **optional)
        except (ValueError, RecursionError, ConfigError) as exc:  # not JSON, or nested too deep
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
    for line in read_lines(path):
        if not CWE_RE.match(line):
            raise ConfigError(f"{path}: malformed CWE {line!r}")
        supported.add(line)
    if not supported:
        raise ConfigError(f"{path} lists no supported CWEs")
    return supported


def _validate_arms(arms: Sequence[str], has_provider: bool, has_index: bool) -> None:
    """Reject unknown or repeated arm names, revising arms without a provider, and sosecure without an index."""
    for arm in arms:
        if arm not in ARMS:
            raise ConfigError(f"unknown arm {arm!r}")
    repeated = sorted({arm for arm in arms if arms.count(arm) > 1})
    if repeated:
        raise ConfigError(f"arm named more than once: {', '.join(repeated)}")
    revising = [arm for arm in arms if arm in REVISING_ARMS]
    if revising and not has_provider:
        raise ConfigError(f"a revision provider is required by the arms {', '.join(revising)}")
    if ARM_SOSECURE in arms and not has_index:
        raise ConfigError("sosecure arm requires a retrieval index")


def _revise_for_arm(provider, index, k: int, budget: int, arm: str, sample: CodeSample):
    """The arm's RevisionRecord for `sample`, None for the code as it is, or the tally reason it failed."""
    if arm not in REVISING_ARMS:
        return None
    hits = retrieve(index, sample.code, k=k) if arm == ARM_SOSECURE else []
    labeled_cwe = sample.labeled_cwe if arm == ARM_CWE_LABEL else None
    try:
        return revise(provider, sample.code, hits, sample_id=sample.sample_id, budget=budget, labeled_cwe=labeled_cwe)
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
    k: int = DEFAULT_TOP_K,
    budget: int = DEFAULT_CHAR_BUDGET,
    workers: int = 1,
) -> list[Trial]:
    """Filter the samples and run the experimental arms, phase by phase.

    A sample's filter tools are the adapters that support its language;
    every language in `samples` needs two of them, and `provider` may be
    None only if no arm is in `REVISING_ARMS`, or ConfigError is raised
    before any analyzer runs. First every distinct original code is analyzed
    with its filter tools. A sample leaves the run at the filter (`arm`
    None) as `analyzer_errors` if an analyzer fails or cannot read it, as
    `not_dual_flagged` unless each of them flags it, and as
    `unsupported_cwes` if none of its flagged CWEs is in `supported_cwes`.
    Only those classes count as flagged or fixed; a revision introduces
    every mapped class that the original code did not have, supported or
    not (see `Trial`). Then each arm in turn revises every sample still in
    the run (prompt_only keeps the code as it is and calls no provider; only
    sosecure retrieves context), analyzes the codes not analyzed yet, and
    scores every trial by one rule. A revision that a filter tool cannot
    read keeps its trial, scored as the original (`readable` False). A
    sample on which an arm fails (the provider, the prompt budget or an
    analyzer) leaves the run at that arm, under that arm's reason, and is
    not sent to later arms.

    Analysis and revision run on a pool of `workers` threads. Only the
    calling thread reads or writes the results, so each distinct
    (language, code) is analyzed once per call. Trials come in dataset
    order, and each sample's trials in arm order. A sample has a trial in
    every arm, or exactly one trial with `dropped` set, its last.
    """
    _validate_arms(arms, provider is not None, index is not None)
    if not supported_cwes:
        raise ConfigError("supported CWE set is empty")
    if ARM_CWE_LABEL in arms:
        unlabeled = [s.sample_id for s in samples if not s.labeled_cwe]
        if unlabeled:
            raise ConfigError(
                "cwe_label arm requires labeled_cwe on every sample; missing on: "
                + ", ".join(sorted(unlabeled))
            )
    for language in sorted({s.language for s in samples}):
        tools = [a.name for a in adapters if a.supports_language(language)]
        if len(tools) < 2:
            raise ConfigError(f"the dual-tool filter needs two adapters for language {language!r}; found {tools}")
    # keyed by (language, code); see analyze_codes
    results: dict[tuple[str, str], list[list[Finding] | None] | None] = {}
    before: dict[int, set[str]] = {}  # sample position -> supported CWEs, while in the run
    trials: list[list[Trial]] = [[] for _ in samples]  # by sample position

    def drop(i: int, arm: str | None, reason: str) -> None:
        trials[i].append(Trial(samples[i].sample_id, arm, before.pop(i, set()), set(), False, reason))

    with ThreadPoolExecutor(max_workers=workers) as pool:

        def analyze(keys: list[tuple[str, str]]) -> None:
            results.update(analyze_codes(adapters, cwe_map, [k for k in keys if k not in results], pool.map))

        analyze([(sample.language, sample.code) for sample in samples])
        for i, sample in enumerate(samples):
            per_adapter = results[(sample.language, sample.code)]
            if per_adapter is None or None in per_adapter:
                drop(i, None, "analyzer_errors")
            elif not all(per_adapter):
                drop(i, None, "not_dual_flagged")
            elif cwes := cwe_set(chain.from_iterable(per_adapter)) & supported_cwes:
                before[i] = cwes
            else:
                drop(i, None, "unsupported_cwes")

        for arm in arms:
            live = list(before)
            revise_arm = partial(_revise_for_arm, provider, index, k, budget, arm)
            records = list(zip(live, pool.map(revise_arm, [samples[i] for i in live])))
            codes = {i: samples[i].code if r is None else r.revised_code for i, r in records if not isinstance(r, str)}
            analyze([(samples[i].language, code) for i, code in codes.items()])
            for i, record in records:
                if isinstance(record, str):
                    drop(i, arm, record)
                elif (per_adapter := results[(samples[i].language, codes[i])]) is None:
                    drop(i, arm, "analyzer_errors")
                else:
                    readable = None not in per_adapter
                    original = cwe_set(chain.from_iterable(results[(samples[i].language, samples[i].code)]))
                    after = cwe_set(chain.from_iterable(per_adapter)) if readable else original
                    # an unsupported class that the original had is neither fixed nor introduced
                    scored = after - (original - before[i])
                    unchanged = readable and (record is None or not record.changed)
                    trials[i].append(Trial(samples[i].sample_id, arm, before[i], scored, unchanged, readable=readable))

    return [trial for per_sample in trials for trial in per_sample]


def split_trials(trials: Sequence[Trial]) -> tuple[list[Trial], Counter]:
    """The trials of samples that never left the run, and the drop reasons tallied in trial order.

    An unreadable revision is tallied as `unreadable_revisions`, though its sample stays.
    """
    tally = Counter(t.dropped or "unreadable_revisions" for t in trials if t.dropped or not t.readable)
    gone = {t.sample_id for t in trials if t.dropped}
    return [t for t in trials if t.sample_id not in gone], tally


def round_rate(value: float) -> float:
    """Round a percentage to one decimal, half to even on the float's exact binary value."""
    return round(value, 1)


@dataclass
class ArmMetrics:
    samples: int
    vulns_before: int
    fix_rate: float | None
    intro_rate: float
    no_change_rate: float
    delta_fix_vs_baseline: float | None = None


@dataclass
class EvalReport:
    per_arm: dict[str, ArmMetrics]
    per_cwe: dict[str, dict[str, int]]
    counts: dict[str, int]
    footnotes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def per_cwe_breakdown(trials: Sequence[Trial]) -> dict[str, dict[str, int]]:
    """Per-CWE totals: samples flagged before, and how many got fixed."""
    breakdown: dict[str, dict[str, int]] = {}
    for trial in trials:
        for cwe in trial.before_cwes:
            stat = breakdown.setdefault(cwe, {"total": 0, "fixed": 0})
            stat["total"] += 1
            if cwe in trial.fixed:
                stat["fixed"] += 1
    return {cwe: breakdown[cwe] for cwe in sorted(breakdown)}


def _arm_metrics(trials: Sequence[Trial]) -> ArmMetrics:
    samples = len(trials)
    vulns_before = sum(len(t.before_cwes) for t in trials)
    fixed_total = sum(len(t.fixed) for t in trials)
    fix_rate = round_rate(100.0 * fixed_total / vulns_before) if vulns_before else None
    intro_rate = round_rate(100.0 * sum(1 for t in trials if t.introduced) / samples)
    no_change_rate = round_rate(100.0 * sum(1 for t in trials if t.unchanged) / samples)
    return ArmMetrics(
        samples=samples,
        vulns_before=vulns_before,
        fix_rate=fix_rate,
        intro_rate=intro_rate,
        no_change_rate=no_change_rate,
    )


def compute_metrics(trials: Sequence[Trial], baseline_arm: str | None = None) -> EvalReport:
    """Aggregate the samples that never left the run, per arm; tally the others in a footnote."""
    kept, tally = split_trials(trials)
    tallied = dict(tally)
    if not kept:
        raise ConfigError(f"no sample was evaluated in every arm; excluded/tallied: {tallied}")

    by_arm: dict[str, list[Trial]] = {}
    for trial in kept:
        by_arm.setdefault(trial.arm, []).append(trial)

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
        "samples": len({t.sample_id for t in reference}),
        "vulns_before": sum(len(t.before_cwes) for t in reference),
    }

    notes = [f"excluded/tallied during the run: {tallied}"] if tallied else []
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
