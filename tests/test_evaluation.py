from __future__ import annotations

import json
import random
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest

import sosec
from conftest import FIXTURES, logged_adapter_specs, make_entry, stub_adapter_specs
from sosec.analysis import AdapterConfig, CweMap, FindingDiff
from sosec.cli import main
from sosec.config import default_data_path
from sosec.errors import ConfigError, ProviderError
from sosec.evaluation import (
    ARMS,
    CodeSample,
    SampleOutcome,
    compute_metrics,
    load_samples,
    load_supported_cwes,
    per_cwe_breakdown,
    render_report_text,
    round_rate,
    run_arms,
)
from sosec.retrieval import build_index, save_index
from sosec.revision import DeterministicMockProvider

SHELL_CODE = "import subprocess\n\ndef run(cmd):\n    return subprocess.call(cmd, shell=True)\n"


@pytest.fixture
def cwe_map() -> CweMap:
    return CweMap.from_file(default_data_path("cwe_map.json"))


def _write_dataset(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_load_samples_happy_path(tmp_path):
    path = _write_dataset(
        tmp_path,
        [
            json.dumps({"sample_id": "a", "code": "x = 1\n"}),
            json.dumps({"sample_id": "b", "code": "y = 2\n", "dataset": "lmsys", "language": "python"}),
            json.dumps({"sample_id": "c", "code": "z = 3\n", "labeled_cwe": "CWE-78"}),
        ],
    )
    samples = load_samples(path)
    assert [s.sample_id for s in samples] == ["a", "b", "c"]
    assert samples[0].dataset == "custom"
    assert samples[2].labeled_cwe == "CWE-78"


def test_load_samples_reports_offending_line_numbers(tmp_path):
    path = _write_dataset(
        tmp_path,
        [
            json.dumps({"sample_id": "a", "code": "x = 1\n"}),
            json.dumps({"sample_id": "b"}),
            json.dumps({"sample_id": "c", "code": "z\n", "labeled_cwe": "78"}),
        ],
    )
    with pytest.raises(ConfigError) as exc_info:
        load_samples(path)
    message = str(exc_info.value)
    assert "line 2" in message and "line 3" in message and "line 1" not in message


def test_load_samples_rejects_unknown_enum_values(tmp_path):
    path = _write_dataset(tmp_path, [json.dumps({"sample_id": "a", "code": "x", "dataset": "wild"})])
    with pytest.raises(ConfigError):
        load_samples(path)


def test_load_supported_cwes(tmp_path):
    path = tmp_path / "supported.txt"
    path.write_text("# header\nCWE-78\nCWE-89\n", encoding="utf-8")
    assert load_supported_cwes(path) == {"CWE-78", "CWE-89"}


def test_load_supported_cwes_rejects_malformed_and_empty(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("CWE-78\n78\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_supported_cwes(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_supported_cwes(empty)


def _sample(sample_id, code, **kwargs):
    return CodeSample(sample_id=sample_id, code=code, **kwargs)


def test_dual_tool_filter_keeps_only_dual_flagged(
    fake_bandit_adapter, fake_codeql_adapter, cwe_map
):
    samples = [
        _sample("both", SHELL_CODE),
        _sample("bandit_only", "import tempfile\npath = tempfile.mktemp()\n"),
        _sample("codeql_only", "import random\ntoken = random.random()\n"),
        _sample("neither", "print('fine')\n"),
    ]
    tally = Counter()
    kept = run_arms(
        samples, ["prompt_only"], None,
        **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map, tally=tally),
    )
    assert [o.sample_id for o in kept] == ["both"]
    assert kept[0].before_cwes == {"CWE-78"}
    assert tally == {"not_dual_flagged": 3}


def test_dual_tool_filter_tallies_analyzer_errors(fake_codeql_adapter, cwe_map):
    broken = AdapterConfig(name="ghost", command=["no-such-binary-qq", "{file}"], format="sarif")
    tally = Counter()
    kept = run_arms(
        [_sample("s", SHELL_CODE)], ["prompt_only"], None,
        **_arm_kwargs(broken, fake_codeql_adapter, cwe_map, tally=tally),
    )
    assert kept == []
    assert tally["analyzer_errors"] == 1


def test_filter_supported(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    # both tools flag PICKLE_CODE, as CWE-502 only
    samples = [_sample("keep", SHELL_CODE), _sample("drop", PICKLE_CODE)]
    kwargs = _arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map)
    tally = Counter()
    kept = run_arms(
        samples, ["prompt_only"], None, tally=tally, **{**kwargs, "supported_cwes": {"CWE-78", "CWE-89"}}
    )
    assert [o.sample_id for o in kept] == ["keep"]
    assert not tally  # dropped silently
    with pytest.raises(ConfigError):
        run_arms(samples, ["prompt_only"], None, **{**kwargs, "supported_cwes": set()})


def _stub_index():
    entries = [
        make_entry(
            61307412,
            ["subprocess.call(cmd, shell=True)"],
            excerpt="shell=True hands your string to the shell",
            comments=[("this is command injection bait", 4)],
        ),
        make_entry(77, ["sorted(values)"]),
    ]
    return build_index(entries)


def _arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map, **extra):
    kwargs = dict(
        adapters=[fake_bandit_adapter, fake_codeql_adapter],
        cwe_map=cwe_map,
        supported_cwes={"CWE-78", "CWE-89", "CWE-502"},
    )
    kwargs.update(extra)
    return kwargs


def test_prompt_only_arm_reuses_before_findings(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    analyzed = [_sample("s1", SHELL_CODE)]
    (outcome,) = run_arms(
        analyzed, ["prompt_only"], None, **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map)
    )
    assert outcome.after_cwes == outcome.before_cwes == {"CWE-78"}
    assert outcome.unchanged is True
    assert outcome.diff.persisted == {"CWE-78"}


def test_sosecure_arm_with_fixing_mock_fixes_everything(
    fake_bandit_adapter, fake_codeql_adapter, cwe_map
):
    analyzed = [_sample("s1", SHELL_CODE), _sample("s2", SHELL_CODE)]
    outcomes = run_arms(
        analyzed,
        ["sosecure"],
        DeterministicMockProvider(),
        index=_stub_index(),
        **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
    )
    assert all(o.diff.fixed == {"CWE-78"} for o in outcomes)
    assert all(not o.diff.introduced for o in outcomes)
    assert all(not o.unchanged for o in outcomes)


def test_sosecure_arm_requires_index(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    with pytest.raises(ConfigError):
        run_arms(
            [_sample("s1", SHELL_CODE)],
            ["sosecure"],
            DeterministicMockProvider(),
            **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
        )


def test_revision_only_arm_with_echo_mock(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    analyzed = [_sample("s1", SHELL_CODE)]
    (outcome,) = run_arms(
        analyzed,
        ["revision_only"],
        DeterministicMockProvider(behavior="echo"),
        **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
    )
    assert outcome.unchanged is True
    assert outcome.diff.persisted == {"CWE-78"}


def test_cwe_label_arm_requires_labels_and_injects_them(
    fake_bandit_adapter, fake_codeql_adapter, cwe_map
):
    with pytest.raises(ConfigError) as exc_info:
        run_arms(
            [_sample("nolabel", SHELL_CODE)],
            ["cwe_label"],
            DeterministicMockProvider(),
            **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
        )
    assert "nolabel" in str(exc_info.value)

    prompts = []

    class _SpyProvider(DeterministicMockProvider):
        def complete(self, prompt):
            prompts.append(prompt)
            return super().complete(prompt)

    run_arms(
        [_sample("s1", SHELL_CODE, labeled_cwe="CWE-78")],
        ["cwe_label"],
        _SpyProvider(),
        **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
    )
    assert "CWE-78 (OS Command Injection)" in prompts[0]


def test_unknown_arm_rejected(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    with pytest.raises(ConfigError):
        run_arms(
            [_sample("s1", SHELL_CODE)],
            ["placebo"],
            None,
            **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
        )


def test_repeated_arm_rejected(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    with pytest.raises(ConfigError, match="prompt_only"):
        run_arms(
            [_sample("s1", SHELL_CODE)],
            ["prompt_only", "revision_only", "prompt_only"],
            DeterministicMockProvider(),
            **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
        )


def test_run_arm_worker_pool_matches_sequential(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    analyzed = [_sample(f"s{i:02d}", SHELL_CODE) for i in range(6)]
    kwargs = _arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map)
    sequential = run_arms(analyzed, ["sosecure"], DeterministicMockProvider(), index=_stub_index(), **kwargs)
    pooled = run_arms(
        analyzed, ["sosecure"], DeterministicMockProvider(), index=_stub_index(), workers=4, **kwargs
    )
    assert pooled == sequential


PICKLE_CODE = "import pickle\n\ndef load(blob):\n    return pickle.loads(blob)\n"


def _eval_dataset(tmp_path) -> Path:
    """Four dataset_10 samples, two exact copies, one the fixing mock leaves unchanged, two filtered out."""
    lines = (FIXTURES / "dataset_10.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines[:4]]
    extra = [
        {**records[0], "sample_id": "s011"},
        {**records[1], "sample_id": "s012"},
        {"sample_id": "s013", "code": PICKLE_CODE, "labeled_cwe": "CWE-502"},
        {"sample_id": "s014", "code": "import tempfile\npath = tempfile.mktemp()\n", "labeled_cwe": "CWE-377"},
        {"sample_id": "s015", "code": "print('fine')\n", "labeled_cwe": "CWE-78"},
    ]
    return _write_dataset(tmp_path, [json.dumps(r) for r in records + extra])


def _eval_argv(tmp_path, dataset, adapters_specs, arms, *extra):
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps({"adapters": adapters_specs}), encoding="utf-8")
    index = tmp_path / "kb.idx"
    if not index.exists():
        save_index(_stub_index(), index)
    return [
        "eval", "--dataset", str(dataset), "--arm", arms, "--index", str(index),
        "--adapters", str(adapters), "--format", "json", *extra,
    ]


def _log_lines(log: Path) -> list[str]:
    return log.read_text(encoding="utf-8").splitlines() if log.exists() else []


def test_eval_analyzes_each_distinct_code_once(tmp_path, capsys):
    dataset = _eval_dataset(tmp_path)
    log = tmp_path / "calls.log"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"provider": {"kind": "deterministic_mock", "mock_behavior": "echo"}}),
        encoding="utf-8",
    )
    argv = _eval_argv(
        tmp_path, dataset, logged_adapter_specs(log), "prompt_only,revision_only,cwe_label,sosecure",
        "--config", str(config), "--workers", "2",
    )
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["samples"] == 7  # s014 and s015 are not flagged by both tools

    # echo revisions return the original code, so only the filter's pairs exist
    codes = {json.loads(line)["code"] for line in dataset.read_text(encoding="utf-8").splitlines()}
    calls = _log_lines(log)
    assert len(calls) == len(set(calls)) == 2 * len(codes)


def test_eval_makes_one_scratch_dir_per_distinct_code(tmp_path, capsys, monkeypatch):
    dataset = _eval_dataset(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"provider": {"kind": "deterministic_mock", "mock_behavior": "echo"}}),
        encoding="utf-8",
    )
    argv = _eval_argv(
        tmp_path, dataset, stub_adapter_specs(), "prompt_only,revision_only,cwe_label,sosecure",
        "--config", str(config),
    )
    made = []
    real = tempfile.TemporaryDirectory

    def counting(*args, **kwargs):
        made.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr("sosec.evaluation.tempfile.TemporaryDirectory", counting)
    assert main(argv) == 0
    capsys.readouterr()
    # echo revisions return the original code: one scratch dir serves both adapters
    codes = {json.loads(line)["code"] for line in dataset.read_text(encoding="utf-8").splitlines()}
    assert len(made) == len(codes)


def test_package_exports_resolve():
    assert [name for name in sosec.__all__ if not hasattr(sosec, name)] == []


def test_run_arms_starts_one_subprocess_per_adapter_for_concurrent_duplicates(tmp_path, cwe_map):
    log = tmp_path / "calls.log"
    specs = logged_adapter_specs(log, delay=0.3)
    adapters = [AdapterConfig.from_dict(name, spec) for name, spec in specs.items()]
    samples = [_sample(f"s{i}", SHELL_CODE) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes = run_arms(
            samples, ["prompt_only"], None, adapters=adapters, cwe_map=cwe_map,
            supported_cwes={"CWE-78"}, workers=8,
        )
    finally:
        sys.setswitchinterval(interval)
    assert [o.sample_id for o in outcomes] == [s.sample_id for s in samples]
    assert all(o.before_cwes == {"CWE-78"} for o in outcomes)
    assert sorted(line.split()[0] for line in _log_lines(log)) == ["bandit", "codeql"]


def test_run_arms_analyzes_a_shared_failing_code_once(tmp_path, cwe_map):
    log = tmp_path / "calls.log"
    adapter = AdapterConfig.from_dict("bandit", logged_adapter_specs(log, fail_on="shell")["bandit"])
    tally = Counter()
    outcomes = run_arms(
        [_sample("a", SHELL_CODE), _sample("b", SHELL_CODE)], ["prompt_only"], None,
        adapters=[adapter], cwe_map=cwe_map, supported_cwes={"CWE-78"}, tally=tally,
    )
    assert outcomes == []
    assert tally == {"analyzer_errors": 2}
    assert len(_log_lines(log)) == 1


class _CountingProvider(DeterministicMockProvider):
    """The fixing mock; counts prompts that contain `marker` and fails them if `fail` is set."""

    def __init__(self, marker: str, fail: bool = False):
        super().__init__()
        self.marker, self.fail, self.prompts = marker, fail, 0
        self._lock = threading.Lock()

    def complete(self, prompt):
        if self.marker in prompt:
            with self._lock:
                self.prompts += 1
            if self.fail:
                raise ProviderError("refused")
        return super().complete(prompt)


def test_sample_that_fails_an_arm_is_not_sent_to_later_arms(tmp_path, cwe_map):
    log = tmp_path / "calls.log"
    specs = logged_adapter_specs(log, fail_on="shlex")
    adapters = [AdapterConfig.from_dict(name, spec) for name, spec in specs.items()]
    # the fixing mock adds `import shlex` to the shell sample only
    samples = [
        _sample("shell", SHELL_CODE, labeled_cwe="CWE-78"),
        _sample("pickle", PICKLE_CODE, labeled_cwe="CWE-502"),
    ]
    provider = _CountingProvider("subprocess.call")
    tally = Counter()
    outcomes = run_arms(
        samples, list(ARMS), provider, index=_stub_index(), adapters=adapters, cwe_map=cwe_map,
        supported_cwes={"CWE-78", "CWE-502"}, workers=2, tally=tally,
    )
    assert provider.prompts == 1
    assert tally == {"analyzer_errors": 1}
    assert [(o.arm, o.sample_id) for o in outcomes] == [(arm, "pickle") for arm in ARMS]


def test_tally_follows_sample_order(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    samples = [
        _sample("a", SHELL_CODE.replace("run(cmd)", "refused(cmd)")),
        _sample("b", "import tempfile\npath = tempfile.mktemp()\n"),
        _sample("c", SHELL_CODE),
    ]
    tally = Counter()
    outcomes = run_arms(
        samples, ["revision_only"], _CountingProvider("refused(cmd)", fail=True),
        **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map, tally=tally),
    )
    assert [o.sample_id for o in outcomes] == ["c"]
    assert list(tally.items()) == [("provider_errors", 1), ("not_dual_flagged", 1)]


def test_eval_adapter_error_excludes_the_sample_from_every_arm(tmp_path, capsys):
    records = [
        {"sample_id": "a1", "code": SHELL_CODE, "labeled_cwe": "CWE-78"},
        {"sample_id": "a2", "code": SHELL_CODE.replace("run(cmd)", "go(cmd)"), "labeled_cwe": "CWE-78"},
        {"sample_id": "b1", "code": PICKLE_CODE, "labeled_cwe": "CWE-502"},
        {"sample_id": "b2", "code": PICKLE_CODE.replace("load(", "read("), "labeled_cwe": "CWE-502"},
    ]
    dataset = _write_dataset(tmp_path, [json.dumps(r) for r in records])
    log = tmp_path / "calls.log"
    # the fixing mock adds `import shlex`, so analysis fails on every revision of a1 and a2
    argv = _eval_argv(
        tmp_path, dataset, logged_adapter_specs(log, fail_on="shlex"),
        "prompt_only,revision_only,cwe_label",
    )
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert {arm: m["samples"] for arm, m in report["per_arm"].items()} == {
        "prompt_only": 2, "revision_only": 2, "cwe_label": 2,
    }
    assert report["counts"] == {"samples": 2, "vulns_before": 2}
    assert "'analyzer_errors': 2" in report["footnotes"][0]


def test_eval_report_same_for_one_and_four_workers(tmp_path, capsys):
    dataset = _eval_dataset(tmp_path)
    argv = _eval_argv(tmp_path, dataset, stub_adapter_specs(), "prompt_only,revision_only,cwe_label,sosecure")
    reports = []
    for workers in ("1", "4"):
        out = tmp_path / f"report-{workers}.json"
        assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["counts"]["samples"] == 7


def test_second_eval_in_one_process_runs_the_analyzers_again(tmp_path, capsys):
    dataset = _write_dataset(tmp_path, [json.dumps({"sample_id": "a", "code": SHELL_CODE})])
    log = tmp_path / "calls.log"
    argv = _eval_argv(tmp_path, dataset, logged_adapter_specs(log), "prompt_only,revision_only")
    assert main(argv) == 0
    first = _log_lines(log)
    assert main(argv) == 0
    capsys.readouterr()
    assert first and _log_lines(log) == first + first


def _outcome(sample_id, arm, before, after, unchanged):
    return SampleOutcome(
        sample_id=sample_id,
        arm=arm,
        before_cwes=set(before),
        after_cwes=set(after),
        unchanged=unchanged,
    )


def _count_outcomes(arm, total, fixed, unchanged_count=0):
    outcomes = []
    for i in range(total):
        fixed_here = i < fixed
        outcomes.append(
            _outcome(
                f"{arm}-{i:04d}",
                arm,
                ["CWE-78"],
                [] if fixed_here else ["CWE-78"],
                unchanged=i < unchanged_count,
            )
        )
    return outcomes


def test_round_rate_half_even_on_exact_quarter():
    assert round_rate(100.0 * 99 / 240) == 41.2
    assert round_rate(100.0 * 232 / 240) == 96.7


def test_compute_metrics_fix_rates_and_delta():
    outcomes = _count_outcomes("prompt_only", 240, 90) + _count_outcomes("sosecure", 240, 232)
    report = compute_metrics(outcomes, baseline_arm="prompt_only")
    assert report.per_arm["prompt_only"].fix_rate == 37.5
    assert report.per_arm["sosecure"].fix_rate == 96.7
    assert report.per_arm["sosecure"].delta_fix_vs_baseline == 59.2
    assert report.per_arm["sosecure"].intro_rate == 0.0
    assert report.counts == {"samples": 240, "vulns_before": 240}


def test_compute_metrics_intro_and_no_change_rates():
    outcomes = [
        _outcome("a", "sosecure", ["CWE-78"], [], unchanged=False),
        _outcome("b", "sosecure", ["CWE-78"], ["CWE-89"], unchanged=False),
        _outcome("c", "sosecure", ["CWE-78"], ["CWE-78"], unchanged=True),
        _outcome("d", "sosecure", ["CWE-78"], ["CWE-78"], unchanged=True),
    ]
    report = compute_metrics(outcomes)
    metrics = report.per_arm["sosecure"]
    assert metrics.intro_rate == 25.0
    assert metrics.no_change_rate == 50.0
    assert metrics.fix_rate == 50.0


def test_compute_metrics_zero_vulns_reports_absent_fix_rate():
    outcomes = [_outcome("a", "prompt_only", [], [], unchanged=True)]
    report = compute_metrics(outcomes)
    assert report.per_arm["prompt_only"].fix_rate is None
    assert report.per_arm["prompt_only"].no_change_rate == 100.0


def test_compute_metrics_rejects_empty_and_bad_baseline():
    with pytest.raises(ConfigError):
        compute_metrics([])
    with pytest.raises(ConfigError):
        compute_metrics(_count_outcomes("sosecure", 2, 1), baseline_arm="prompt_only")


def test_fix_rate_monotonicity_adding_unfixed_samples():
    rng = random.Random(17)
    for _ in range(50):
        total = rng.randint(1, 40)
        fixed = rng.randint(0, total)
        outcomes = _count_outcomes("sosecure", total, fixed)
        base = compute_metrics(outcomes).per_arm["sosecure"].fix_rate
        extended = outcomes + [
            _outcome("zz-extra", "sosecure", ["CWE-89"], ["CWE-89"], unchanged=True)
        ]
        grown = compute_metrics(extended).per_arm["sosecure"].fix_rate
        assert grown <= base


def test_per_cwe_breakdown():
    outcomes = [
        _outcome("a", "sosecure", ["CWE-78"], [], unchanged=False),
        _outcome("b", "sosecure", ["CWE-78"], ["CWE-78"], unchanged=True),
        _outcome("c", "sosecure", ["CWE-89"], [], unchanged=False),
    ]
    assert per_cwe_breakdown(outcomes) == {
        "CWE-78": {"total": 2, "fixed": 1},
        "CWE-89": {"total": 1, "fixed": 1},
    }


def test_report_is_deterministic_and_renders():
    outcomes = _count_outcomes("prompt_only", 10, 3) + _count_outcomes("sosecure", 10, 9)
    first = compute_metrics(outcomes, baseline_arm="prompt_only")
    second = compute_metrics(outcomes, baseline_arm="prompt_only")
    assert first.to_dict() == second.to_dict()
    text = render_report_text(first)
    assert render_report_text(second) == text
    assert "fix_rate" in text and "sosecure" in text and "90.0%" in text


def test_outcome_diff_invariants_propagate():
    outcomes = _count_outcomes("sosecure", 5, 2)
    for outcome in outcomes:
        diff: FindingDiff = outcome.diff
        assert diff.fixed | diff.persisted == outcome.before_cwes
        assert diff.introduced & outcome.before_cwes == set()
