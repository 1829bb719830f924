from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import sys
import tempfile
import threading
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import pytest

from conftest import FIXTURES, accounted_samples, logged_adapter_specs, make_entry, stub_adapter_specs
from sosec.analysis import AdapterConfig, CweMap
from sosec.cli import main
from sosec.config import GlobalConfig, default_data_path
from sosec.errors import ConfigError, ProviderError
from sosec.evaluation import (
    ARMS,
    CodeSample,
    Trial,
    compute_metrics,
    load_samples,
    load_supported_cwes,
    per_cwe_breakdown,
    render_report_text,
    round_rate,
    run_arms,
    split_trials,
)
from sosec.retrieval import build_index, save_index
from sosec.revision import PROMPT_TEMPLATE, DeterministicMockProvider, build_revision_prompt, prompt_hash

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
            # keys the pipeline does not read, such as a dataset's generation prompt, are ignored
            json.dumps({"sample_id": "d", "code": "w = 4\n", "prompt": "Write a function", "source": 7}),
        ],
    )
    samples = load_samples(path)
    assert [s.sample_id for s in samples] == ["a", "b", "c", "d"]
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


@pytest.mark.parametrize(
    "line, message",
    [("[1, 2]", "line 2: record is not a JSON object"),
     (json.dumps({"code": "x = 1\n"}), "line 2: missing or empty 'sample_id'"),
     (json.dumps({"sample_id": "b", "code": "x = 1\n", "labeled_cwe": "CWE-78\n"}),
      "line 2: labeled_cwe 'CWE-78\\n' does not match CWE-NNN"),
     (json.dumps({"sample_id": "b", "code": "x = 1\n", "language": ["python"]}),
      "line 2: unknown language ['python']")],
    ids=["not-an-object", "no-sample-id", "labeled-cwe-ends-in-a-newline", "language-not-a-string"],
)
def test_load_samples_refuses_a_malformed_record(tmp_path, line, message):
    path = _write_dataset(tmp_path, [json.dumps({"sample_id": "a", "code": "x = 1\n"}), line])
    with pytest.raises(ConfigError, match=re.escape(f"{path}: invalid dataset lines: {message}")):
        load_samples(path)


def test_load_samples_refuses_code_with_a_lone_surrogate(tmp_path):
    path = _write_dataset(
        tmp_path,
        [
            json.dumps({"sample_id": "a", "code": "x = 1\n"}),
            json.dumps({"sample_id": "b", "code": "x = '\ud800'\n"}),
        ],
    )
    with pytest.raises(ConfigError, match=r"line 2: 'code' cannot be encoded as UTF-8"):
        load_samples(path)


def test_load_samples_rejects_unknown_enum_values(tmp_path):
    path = _write_dataset(
        tmp_path,
        [
            json.dumps({"sample_id": "a", "code": "x", "dataset": "wild"}),
            json.dumps({"sample_id": "b", "code": "x", "language": "other"}),
        ],
    )
    with pytest.raises(ConfigError, match=r"line 1: unknown dataset 'wild'; line 2: unknown language 'other'"):
        load_samples(path)


@pytest.mark.parametrize(
    "changes, message",
    [({"sample_id": ""}, "missing or empty 'sample_id'"),
     ({"dataset": "wild"}, "unknown dataset 'wild'"),
     ({"labeled_cwe": "nonsense"}, "labeled_cwe 'nonsense' does not match CWE-NNN"),
     ({"code": "x = '\ud800'\n"}, "'code' cannot be encoded as UTF-8: 'utf-8' codec can't encode character "
                                    "'\\ud800' in position 5: surrogates not allowed")],
    ids=["empty-sample-id", "unknown-dataset", "malformed-labeled-cwe", "lone-surrogate"],
)
def test_code_sample_built_in_code_is_checked_as_a_dataset_line_is(tmp_path, changes, message):
    record = {"sample_id": "a", "code": SHELL_CODE, **changes}
    with pytest.raises(ConfigError) as in_code:
        CodeSample(**record)
    path = _write_dataset(tmp_path, [json.dumps(record)])
    with pytest.raises(ConfigError) as from_file:
        load_samples(path)
    assert str(in_code.value) == message
    assert str(from_file.value) == f"{path}: invalid dataset lines: line 1: {message}"


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
    kept, tally = split_trials(run_arms(
        samples, ["prompt_only"], None,
        **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
    ))
    assert [o.sample_id for o in kept] == ["both"]
    assert kept[0].before_cwes == {"CWE-78"}
    assert tally == {"not_dual_flagged": 3}
    assert len(kept) + sum(tally.values()) == len(samples)


def test_dual_tool_filter_tallies_analyzer_errors(fake_codeql_adapter, cwe_map):
    # runs, but exits with a code outside ok_returncodes
    broken = AdapterConfig(name="ghost", command=[sys.executable, "-c", "raise SystemExit(5)", "{file}"], format="sarif")
    kept, tally = split_trials(run_arms(
        [_sample("s", SHELL_CODE)], ["prompt_only"], None,
        **_arm_kwargs(broken, fake_codeql_adapter, cwe_map),
    ))
    assert kept == []
    assert tally["analyzer_errors"] == 1


def test_filter_supported(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    # both tools flag PICKLE_CODE, as CWE-502 only
    samples = [_sample("keep", SHELL_CODE), _sample("drop", PICKLE_CODE)]
    kwargs = _arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map)
    kept, tally = split_trials(run_arms(
        samples, ["prompt_only"], None, **{**kwargs, "supported_cwes": {"CWE-78", "CWE-89"}}
    ))
    assert [o.sample_id for o in kept] == ["keep"]
    assert tally == {"unsupported_cwes": 1}
    assert len(kept) + sum(tally.values()) == len(samples)
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
    assert outcome.before_cwes & outcome.after_cwes == {"CWE-78"}


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
    assert all(o.fixed == {"CWE-78"} for o in outcomes)
    assert all(not o.introduced for o in outcomes)
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
    assert outcome.before_cwes & outcome.after_cwes == {"CWE-78"}


# sha256 of the prompt the cwe_label arm sends for SHELL_CODE labeled CWE-78;
# recorded transcripts are keyed on it, so the label note's text is part of it
CWE_LABEL_PROMPT_SHA256 = "e0f8ae051b15104a78bcabd6e398a303291df36aaaaaa42260c4b9c71193feb5"


def test_sosecure_shows_the_model_what_retrieval_found(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    class _ContextProvider:
        """The fixing mock when the retrieved context holds `shlex.split`; the echo mock otherwise."""

        def __init__(self):
            self.prompts = []

        def complete(self, prompt):
            self.prompts.append(prompt)
            context = prompt.partition(PROMPT_TEMPLATE["context_intro"])[2].partition(PROMPT_TEMPLATE["code_intro"])[0]
            behavior = "fix_shell_true" if "shlex.split" in context else "echo"
            return DeterministicMockProvider(behavior).complete(prompt)

    index = build_index([
        make_entry(5, ["subprocess.call(shlex.split(cmd))"],
                   excerpt="use shlex.split to build an argument list; shell=True hands the whole string to /bin/sh"),
        make_entry(6, ["subprocess.run(cmd, check=True)"], excerpt="check the return code"),
        make_entry(7, ["sorted(values)"]),
    ])
    samples = [_sample("s", SHELL_CODE)]
    kwargs = _arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map)
    arms = ["prompt_only", "revision_only", "sosecure"]
    report = compute_metrics(run_arms(samples, arms, _ContextProvider(), index=index, **kwargs), "prompt_only")
    assert report.per_arm["sosecure"].fix_rate == 100.0
    assert report.per_arm["revision_only"].fix_rate == 0.0

    bare, _ = build_revision_prompt(SHELL_CODE, [])
    mandatory = len(bare) - len(PROMPT_TEMPLATE["no_context_section"]) - 2
    # room for the mandatory sections only, then for those and the no-context section only
    for budget in (mandatory, len(bare)):
        provider = _ContextProvider()
        trials = run_arms(samples, arms, provider, index=index, budget=budget, **kwargs)
        report = compute_metrics(trials, "prompt_only")
        assert report.per_arm["sosecure"] == report.per_arm["revision_only"]
        assert report.per_arm["sosecure"].fix_rate == 0.0
        assert trials[1].after_cwes == trials[2].after_cwes == {"CWE-78"}
        assert dataclasses.replace(trials[2], arm="revision_only") == trials[1]
        # with no hit section that fits, sosecure sends revision_only's prompt
        assert provider.prompts == [build_revision_prompt(SHELL_CODE, [], budget=budget)[0]] * 2
    assert provider.prompts[0] == bare


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
    assert prompt_hash(prompts[0]) == CWE_LABEL_PROMPT_SHA256


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
        json.dumps({"provider": {"kind": "mock", "mock_behavior": "echo"}}),
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
        json.dumps({"provider": {"kind": "mock", "mock_behavior": "echo"}}),
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

    monkeypatch.setattr("sosec.analysis.tempfile.TemporaryDirectory", counting)
    assert main(argv) == 0
    capsys.readouterr()
    # echo revisions return the original code: one scratch dir serves both adapters
    codes = {json.loads(line)["code"] for line in dataset.read_text(encoding="utf-8").splitlines()}
    assert len(made) == len(codes)


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
    specs = logged_adapter_specs(log, fail_on="shell")
    outcomes, tally = split_trials(run_arms(
        [_sample("a", SHELL_CODE), _sample("b", SHELL_CODE)], ["prompt_only"], None,
        adapters=[AdapterConfig.from_dict(name, spec) for name, spec in specs.items()],
        cwe_map=cwe_map, supported_cwes={"CWE-78"},
    ))
    assert outcomes == []
    assert tally == {"analyzer_errors": 2}
    assert len(_log_lines(log)) == 1  # bandit fails first, so codeql never starts


def test_run_arms_refuses_a_missing_provider_before_any_analyzer_runs(tmp_path, cwe_map):
    log = tmp_path / "calls.log"
    adapters = [AdapterConfig.from_dict(name, spec) for name, spec in logged_adapter_specs(log).items()]
    with pytest.raises(ConfigError, match=r"^a revision provider is required by the arms revision_only, sosecure$"):
        run_arms([_sample("a", SHELL_CODE)], ["prompt_only", "revision_only", "sosecure"], None, _stub_index(),
                 adapters=adapters, cwe_map=cwe_map, supported_cwes={"CWE-78"})
    assert not log.exists()


def test_run_arms_needs_two_adapters_for_each_language(cwe_map):
    with pytest.raises(ConfigError, match=r"two adapters for language 'python'; found \[\]"):
        run_arms([_sample("a", SHELL_CODE)], ["prompt_only"], None,
                 adapters=[], cwe_map=cwe_map, supported_cwes={"CWE-78"})


def test_run_arms_refuses_an_unknown_language_before_any_analyzer_runs(cwe_map):
    # adapters with no `languages` support every language, so two of them
    # pass the count check
    anywhere = [AdapterConfig(name=n, command=["no-such-binary-qq", "{file}"], format="sarif") for n in "ab"]
    with pytest.raises(ConfigError, match=r"^unknown language 'rust'$"):
        run_arms([_sample("a", "x = 1\n", language="rust")], ["prompt_only"], None,
                 adapters=anywhere, cwe_map=cwe_map, supported_cwes={"CWE-78"})


C_EVAL_CODE = "int run(char *s) { return eval(s); }\n"


def _python_and_c_dataset(tmp_path):
    """A Python sample that only codeql flags, and a C sample that codeql flags as CWE-94."""
    return _write_dataset(tmp_path, [
        json.dumps({"sample_id": "py", "code": "import random\ntoken = random.random()\n"}),
        json.dumps({"sample_id": "c", "code": C_EVAL_CODE, "language": "c"}),
    ])


def _sha256(code: str) -> str:
    return hashlib.sha256(code.encode("utf-8")).hexdigest()


def test_eval_runs_every_adapter_that_supports_a_sample_language(tmp_path, capsys):
    log = tmp_path / "calls.log"
    specs = logged_adapter_specs(log)
    command = list(specs["bandit"]["command"])
    command[3] = "cscan"  # the name logging_analyzer.py logs
    specs["cscan"] = {**specs["bandit"], "command": command, "languages": ["c"]}
    dataset = _python_and_c_dataset(tmp_path)
    assert main(_eval_argv(tmp_path, dataset, specs, "prompt_only")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"samples": 1, "vulns_before": 1}
    assert report["per_cwe"] == {"CWE-94": {"total": 1, "fixed": 0}}
    assert report["footnotes"][0] == "excluded/tallied during the run: {'not_dual_flagged': 1}"
    py, c = (json.loads(line)["code"] for line in dataset.read_text(encoding="utf-8").splitlines())
    assert sorted(_log_lines(log)) == sorted([
        f"bandit {_sha256(py)}", f"codeql {_sha256(py)}", f"codeql {_sha256(c)}", f"cscan {_sha256(c)}",
    ])


def test_eval_with_one_c_adapter_exits_2_before_any_analyzer_runs(tmp_path, capsys):
    log = tmp_path / "calls.log"
    argv = _eval_argv(tmp_path, _python_and_c_dataset(tmp_path), logged_adapter_specs(log), "prompt_only")
    assert main(argv) == 2
    assert "two adapters for language 'c'; found ['codeql']" in capsys.readouterr().err
    assert not log.exists()


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
    outcomes, tally = split_trials(run_arms(
        samples, list(ARMS), provider, index=_stub_index(), adapters=adapters, cwe_map=cwe_map,
        supported_cwes={"CWE-78", "CWE-502"}, workers=2,
    ))
    assert provider.prompts == 1
    assert tally == {"analyzer_errors": 1}
    assert [(o.arm, o.sample_id) for o in outcomes] == [(arm, "pickle") for arm in ARMS]


class _SurrogateProvider(DeterministicMockProvider):
    """The echo mock; puts a lone surrogate into the revision of prompts that contain `marker`."""

    def __init__(self, marker: str):
        super().__init__(behavior="echo")
        self.marker = marker

    def complete(self, prompt):
        reply = super().complete(prompt)
        if self.marker in prompt:
            reply = reply.replace("```python\n", "```python\nx = '\ud800'\n", 1)
        return reply


def test_revision_with_a_lone_surrogate_costs_only_its_sample(
    fake_bandit_adapter, fake_codeql_adapter, cwe_map
):
    samples = [_sample("pickle", PICKLE_CODE), _sample("shell", SHELL_CODE)]
    outcomes, tally = split_trials(run_arms(
        samples, ["revision_only"], _SurrogateProvider("pickle.loads"),
        **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
    ))
    assert [o.sample_id for o in outcomes] == ["shell"]
    assert tally == {"analyzer_errors": 1}


class _ReplyProvider(DeterministicMockProvider):
    """Replies to every prompt with `code` as the revision."""

    def __init__(self, code: str):
        super().__init__()
        self.code = code

    def complete(self, prompt):
        return f"```python\n{self.code}\n```"


BROKEN_SHELL_CODE = "def f(x:\n    subprocess.call(x, shell=True)\n"


def test_a_revision_that_does_not_parse_is_not_a_fix(tmp_path, cwe_map):
    log = tmp_path / "calls.log"
    adapters = [AdapterConfig.from_dict(name, spec) for name, spec in logged_adapter_specs(log).items()]
    trials = run_arms(
        [_sample("s", "import subprocess\nsubprocess.call(x, shell=True)\n")],
        ["prompt_only", "revision_only"], _ReplyProvider(BROKEN_SHELL_CODE),
        adapters=adapters, cwe_map=cwe_map, supported_cwes={"CWE-78"},
    )
    revision = trials[1]
    assert (revision.arm, revision.readable, revision.unchanged) == ("revision_only", False, False)
    assert revision.after_cwes == revision.before_cwes == {"CWE-78"}
    assert len(_log_lines(log)) == 2  # the original only: no analyzer starts on the revision

    report = compute_metrics(trials, baseline_arm="prompt_only")
    assert report.per_arm["revision_only"].fix_rate == 0.0
    assert report.per_arm["revision_only"].intro_rate == 0.0
    assert report.per_arm["revision_only"].no_change_rate == 0.0
    assert report.footnotes[0] == "excluded/tallied during the run: {'unreadable_revisions': 1}"


class _MarkSafeProvider(DeterministicMockProvider):
    """Removes `, shell=True` and appends `html = mark_safe(name)`: Bandit B703, CWE-80, outside the supported list."""

    def __init__(self):
        super().__init__(behavior="echo")

    def complete(self, prompt):
        head, fence, tail = super().complete(prompt).replace(", shell=True", "").rpartition("```")
        return f"{head.rstrip()}\nhtml = mark_safe(name)\n{fence}{tail}"


@pytest.mark.parametrize(
    "samples, intro_rate",
    [
        (load_samples(FIXTURES / "dataset_10.jsonl"), 100.0),
        ([_sample("s", SHELL_CODE + "html = mark_safe(name)\n")], 0.0),  # CWE-80 before and after
    ],
    ids=["adds-mark-safe", "keeps-mark-safe"],
)
def test_introduction_rate_counts_every_mapped_cwe(
    fake_bandit_adapter, fake_codeql_adapter, cwe_map, samples, intro_rate
):
    supported = load_supported_cwes(default_data_path("supported_cwes.txt"))
    assert "CWE-80" not in supported
    trials = run_arms(
        samples, ["revision_only"], _MarkSafeProvider(),
        adapters=[fake_bandit_adapter, fake_codeql_adapter], cwe_map=cwe_map, supported_cwes=supported,
    )
    assert [(t.before_cwes, t.fixed, t.introduced) for t in trials] == [
        ({"CWE-78"}, {"CWE-78"}, {"CWE-80"} if intro_rate else set())
    ] * len(samples)
    report = compute_metrics(trials)
    assert report.per_arm["revision_only"].fix_rate == 100.0
    assert report.per_arm["revision_only"].intro_rate == intro_rate
    assert report.per_cwe == {"CWE-78": {"total": len(samples), "fixed": len(samples)}}


def test_a_sample_whose_code_exceeds_the_prompt_budget_leaves_the_run(
    fake_bandit_adapter, fake_codeql_adapter, cwe_map
):
    budget = len(build_revision_prompt(SHELL_CODE, [])[0])
    samples = [_sample("long", SHELL_CODE + "# " + "x" * budget + "\n"), _sample("short", SHELL_CODE)]
    trials = run_arms(
        samples, ["prompt_only", "revision_only"], DeterministicMockProvider(), budget=budget,
        **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
    )
    kept, tally = split_trials(trials)
    assert tally == {"prompt_budget_errors": 1}
    assert trials[1] == Trial("long", "revision_only", {"CWE-78"}, set(), False, "prompt_budget_errors")
    assert [(t.sample_id, t.arm, t.fixed) for t in kept] == [
        ("short", "prompt_only", set()), ("short", "revision_only", {"CWE-78"})
    ]
    report = compute_metrics(trials)
    assert report.footnotes[0] == "excluded/tallied during the run: {'prompt_budget_errors': 1}"
    assert report.per_arm["revision_only"].fix_rate == 100.0


def _codeql_unreadable_on(marker: str) -> AdapterConfig:
    """The codeql stub, except that it reports `executionSuccessful: false` on code containing `marker`."""
    script = (
        "import json, runpy, sys\n"
        "stub, path = sys.argv[1], sys.argv[2]\n"
        f"if {marker!r} in open(path, encoding='utf-8').read():\n"
        "    json.dump({'runs': [{'invocations': [{'executionSuccessful': False}], 'results': []}]}, sys.stdout)\n"
        "    sys.exit(0)\n"
        "sys.argv = [stub, path]\n"
        "runpy.run_path(stub, run_name='__main__')\n"
    )
    spec = stub_adapter_specs()["codeql"]
    return AdapterConfig.from_dict("codeql", {**spec, "command": [sys.executable, "-c", script, spec["command"][1], "{file}"]})


def test_a_revision_one_tool_cannot_read_keeps_its_trial_as_not_fixed(fake_bandit_adapter, cwe_map):
    # the fixing mock adds `import shlex`; with the plain stubs this sample is fixed
    samples = [_sample("shell", SHELL_CODE), _sample("pickle", PICKLE_CODE)]
    trials = run_arms(
        samples, ["revision_only"], DeterministicMockProvider(),
        **_arm_kwargs(fake_bandit_adapter, _codeql_unreadable_on("shlex"), cwe_map),
    )
    assert [(t.sample_id, t.readable, t.after_cwes, t.dropped) for t in trials] == [
        ("shell", False, {"CWE-78"}, None),
        ("pickle", True, {"CWE-502"}, None),
    ]
    kept, tally = split_trials(trials)
    assert kept == trials
    assert tally == {"unreadable_revisions": 1}
    assert compute_metrics(trials).per_arm["revision_only"].fix_rate == 0.0


@pytest.mark.parametrize(
    "code, unreadable_on",
    [(SHELL_CODE.replace("run(cmd)", "run(cmd"), "no such text"), (SHELL_CODE, "shell=True")],
    ids=["does-not-parse", "tool-cannot-read"],
)
def test_an_unreadable_original_leaves_at_the_filter_as_analyzer_errors(
    fake_bandit_adapter, cwe_map, code, unreadable_on
):
    kept, tally = split_trials(run_arms(
        [_sample("s", code), _sample("p", PICKLE_CODE)], ["prompt_only"], None,
        **_arm_kwargs(fake_bandit_adapter, _codeql_unreadable_on(unreadable_on), cwe_map),
    ))
    assert [t.sample_id for t in kept] == ["p"]
    assert tally == {"analyzer_errors": 1}


def test_tally_counts_unreadable_revisions_and_drops_in_trial_order():
    trials = [
        Trial("a", "revision_only", {"CWE-78"}, set(), False, "provider_errors"),
        Trial("b", "revision_only", {"CWE-78"}, {"CWE-78"}, False, readable=False),
        Trial("c", None, set(), set(), False, "not_dual_flagged"),
        Trial("b", "sosecure", {"CWE-78"}, {"CWE-78"}, False, readable=False),
    ]
    kept, tally = split_trials(trials)
    assert kept == [trials[1], trials[3]]
    assert list(tally.items()) == [("provider_errors", 1), ("unreadable_revisions", 2), ("not_dual_flagged", 1)]


def test_tally_follows_sample_order(fake_bandit_adapter, fake_codeql_adapter, cwe_map):
    samples = [
        _sample("a", SHELL_CODE.replace("run(cmd)", "refused(cmd)")),
        _sample("b", "import tempfile\npath = tempfile.mktemp()\n"),
        _sample("c", SHELL_CODE),
    ]
    outcomes, tally = split_trials(run_arms(
        samples, ["revision_only"], _CountingProvider("refused(cmd)", fail=True),
        **_arm_kwargs(fake_bandit_adapter, fake_codeql_adapter, cwe_map),
    ))
    assert [o.sample_id for o in outcomes] == ["c"]
    assert list(tally.items()) == [("provider_errors", 1), ("not_dual_flagged", 1)]


class _ScriptedProvider(DeterministicMockProvider):
    """The echo mock; refuses prompts with `refused(` and adds `import shlex` under a CWE-78 label."""

    def __init__(self):
        super().__init__(behavior="echo")

    def complete(self, prompt):
        if "refused(" in prompt:
            raise ProviderError("refused")
        reply = super().complete(prompt)
        if "may contain CWE-78" in prompt:
            reply = reply.replace("```python\n", "```python\nimport shlex\n", 1)
        return reply


def _trial_run(tmp_path, cwe_map, workers):
    """Trials of a run with a filter drop, a provider failure and a later-arm analyzer failure."""
    specs = logged_adapter_specs(tmp_path / "calls.log", fail_on="shlex")
    samples = [
        _sample("k_pickle", PICKLE_CODE, labeled_cwe="CWE-502"),
        _sample("c_refused", SHELL_CODE.replace("run(cmd)", "refused(cmd)"), labeled_cwe="CWE-78"),
        _sample("a_clean", "print('fine')\n", labeled_cwe="CWE-78"),
        _sample("m_shell", SHELL_CODE, labeled_cwe="CWE-78"),
    ]
    return run_arms(
        samples, list(ARMS), _ScriptedProvider(), index=_stub_index(),
        adapters=[AdapterConfig.from_dict(name, spec) for name, spec in specs.items()],
        cwe_map=cwe_map, supported_cwes={"CWE-78", "CWE-502"}, workers=workers,
    )


def test_trials_are_the_same_for_one_and_four_workers(tmp_path, cwe_map):
    assert _trial_run(tmp_path, cwe_map, 1) == _trial_run(tmp_path, cwe_map, 4)


def test_each_drop_is_one_trial_at_the_arm_that_failed(tmp_path, cwe_map):
    trials = _trial_run(tmp_path, cwe_map, 2)
    # dataset order, not sample_id order; arm order within a sample; nothing after a drop
    assert [(t.sample_id, t.arm, t.dropped) for t in trials] == [
        ("k_pickle", "prompt_only", None),
        ("k_pickle", "revision_only", None),
        ("k_pickle", "cwe_label", None),
        ("k_pickle", "sosecure", None),
        ("c_refused", "prompt_only", None),
        ("c_refused", "revision_only", "provider_errors"),
        ("a_clean", None, "not_dual_flagged"),
        ("m_shell", "prompt_only", None),
        ("m_shell", "revision_only", None),
        ("m_shell", "cwe_label", "analyzer_errors"),
    ]
    kept, tally = split_trials(trials)
    assert kept == trials[:4]
    assert list(tally.items()) == [("provider_errors", 1), ("not_dual_flagged", 1), ("analyzer_errors", 1)]
    assert len({t.sample_id for t in kept}) + sum(tally.values()) == 4  # the samples of _trial_run


def test_metrics_recomputed_from_trials_equal_the_eval_report(tmp_path, capsys):
    dataset = _eval_dataset(tmp_path)
    specs = logged_adapter_specs(tmp_path / "calls.log", fail_on="shlex")
    out = tmp_path / "report.json"
    argv = _eval_argv(tmp_path, dataset, specs, "prompt_only,revision_only,cwe_label,sosecure", "--out", str(out))
    assert main(argv) == 0
    capsys.readouterr()

    config = GlobalConfig()
    trials = run_arms(
        load_samples(dataset), list(ARMS), DeterministicMockProvider(), index=_stub_index(),
        adapters=[AdapterConfig.from_dict(name, spec) for name, spec in specs.items()],
        cwe_map=CweMap.from_file(config.cwe_map_path),
        supported_cwes=load_supported_cwes(config.supported_cwes_path),
        k=config.k, budget=config.budget,
    )
    assert {t.dropped for t in trials} == {None, "not_dual_flagged", "analyzer_errors"}
    report = compute_metrics(trials, baseline_arm="prompt_only").to_dict()
    assert report == json.loads(out.read_text(encoding="utf-8"))


_MALFORMED_BANDIT = """import runpy, sys
stub, path = sys.argv[1], sys.argv[2]
with open(path, encoding="utf-8") as fh:
    if "pickle" in fh.read():
        print('{"results": [null]}')
        sys.exit(0)
sys.argv = [stub, path]
runpy.run_path(stub, run_name="__main__")
"""


def test_eval_malformed_analyzer_result_costs_one_sample(tmp_path, capsys):
    stub = tmp_path / "malformed_bandit.py"
    stub.write_text(_MALFORMED_BANDIT, encoding="utf-8")
    specs = stub_adapter_specs()
    specs["bandit"]["command"] = [sys.executable, str(stub), specs["bandit"]["command"][1], "{file}"]
    records = [{"sample_id": "shell", "code": SHELL_CODE}, {"sample_id": "pickle", "code": PICKLE_CODE}]
    dataset = _write_dataset(tmp_path, [json.dumps(r) for r in records])
    assert main(_eval_argv(tmp_path, dataset, specs, "prompt_only")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"samples": 1, "vulns_before": 1}
    assert report["per_cwe"] == {"CWE-78": {"total": 1, "fixed": 0}}
    assert "'analyzer_errors': 1" in report["footnotes"][0]
    assert accounted_samples(report) == len(records)


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
    return Trial(
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


def test_round_rate_is_the_decimal_half_even_rounding_of_every_small_rate():
    def reference(value: float) -> float:
        return float(Decimal(value).quantize(Decimal("0.1"), rounding=ROUND_HALF_EVEN))

    # every rate of at most 200 samples and its negation, then seeded differences of two rounded
    # rates, as a delta against the baseline is; repr keeps the sign of -0.0
    values = [sign * 100.0 * a / b for b in range(1, 201) for a in range(b + 1) for sign in (1, -1)]
    rng = random.Random(34)
    values += [reference(rng.choice(values)) - reference(rng.choice(values)) for _ in range(20000)]
    assert [repr(round_rate(v)) for v in values] == [repr(reference(v)) for v in values]


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
        persisted = outcome.before_cwes & outcome.after_cwes
        assert outcome.fixed | persisted == outcome.before_cwes
        assert outcome.introduced & outcome.before_cwes == set()


def test_eval_report_keys_keep_their_order():
    outcomes = _count_outcomes("prompt_only", 4, 1) + _count_outcomes("sosecure", 4, 3)
    report = json.loads(json.dumps(compute_metrics(outcomes, baseline_arm="prompt_only").to_dict()))
    assert list(report) == ["per_arm", "per_cwe", "counts", "footnotes"]
    assert list(report["per_arm"]) == ["prompt_only", "sosecure"]
    for metrics in report["per_arm"].values():
        assert list(metrics) == [
            "samples", "vulns_before", "fix_rate", "intro_rate", "no_change_rate", "delta_fix_vs_baseline",
        ]
