from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import fields, replace

import pytest

from conftest import logged_adapter_specs
from sosec.analysis import (
    AdapterConfig,
    CweMap,
    Finding,
    analyze_codes,
    cwe_set,
    load_adapters,
    parse_bandit_json,
    parse_sarif,
    run_analyzer,
)
from sosec.config import default_data_path
from sosec.errors import AdapterError, ConfigError, SosecError, ToolMissingError
from sosec.evaluation import Trial

EXPECTED_SARIF_RAW = [
    Finding(
        tool="codeql",
        rule_id="py/command-line-injection",
        severity="high",
        message="This command line depends on a user-provided value.",
        file="app.py",
        line=7,
    ),
    Finding(
        tool="codeql",
        rule_id="py/weak-cryptographic-algorithm",
        severity="medium",
        message="Use of a broken or weak cryptographic algorithm.",
        file="crypto.py",
        line=12,
    ),
    Finding(
        tool="codeql",
        rule_id="experimental/custom-rule",
        severity="low",
        message="Experimental heuristic tripped.",
        file="app.py",
        line=1,
    ),
]

EXPECTED_BANDIT_RAW = [
    Finding(
        tool="bandit",
        rule_id="B602",
        severity="high",
        message="subprocess call with shell=True identified, security issue.",
        file="app.py",
        line=7,
    ),
    Finding(
        tool="bandit",
        rule_id="B999",
        severity="low",
        message="A custom plugin rule fired.",
        file="app.py",
        line=3,
    ),
]


@pytest.fixture
def cwe_map() -> CweMap:
    return CweMap.from_file(default_data_path("cwe_map.json"))


def test_sarif_fixture_parses_to_frozen_findings(fixtures_dir):
    text = (fixtures_dir / "codeql_sample.sarif").read_text(encoding="utf-8")
    assert parse_sarif(text, "codeql") == EXPECTED_SARIF_RAW
    # bit-exactness: a second parse is identical
    assert parse_sarif(text, "codeql") == parse_sarif(text, "codeql")


def test_bandit_fixture_parses_to_frozen_findings(fixtures_dir):
    text = (fixtures_dir / "bandit_sample.json").read_text(encoding="utf-8")
    assert parse_bandit_json(text, "bandit") == EXPECTED_BANDIT_RAW


def _replay_adapter(name: str, fmt: str, report) -> AdapterConfig:
    """An adapter whose tool prints the report file `report`, whatever file it is given."""
    script = "import sys; sys.stdout.write(open(sys.argv[1], encoding='utf-8').read())"
    return AdapterConfig(name=name, command=[sys.executable, "-c", script, str(report), "{file}"], format=fmt)


def test_fixture_normalization_maps_cwes(fixtures_dir, cwe_map, tmp_path):
    source = _write_source(tmp_path, "x = 1\n")
    codeql = _replay_adapter("codeql", "sarif", fixtures_dir / "codeql_sample.sarif")
    normalized = run_analyzer(codeql, source, cwe_map)
    assert [f.cwe for f in normalized] == ["CWE-78", "CWE-327", None]
    assert [replace(f, cwe=None) for f in normalized] == EXPECTED_SARIF_RAW

    bandit = _replay_adapter("bandit", "bandit_json", fixtures_dir / "bandit_sample.json")
    normalized = run_analyzer(bandit, source, cwe_map)
    assert [f.cwe for f in normalized] == ["CWE-78", None]
    assert [replace(f, cwe=None) for f in normalized] == EXPECTED_BANDIT_RAW


@pytest.mark.parametrize("parser", [parse_sarif, parse_bandit_json])
def test_parsers_reject_garbage(parser):
    with pytest.raises(AdapterError):
        parser("this is not json", "tool")
    with pytest.raises(AdapterError):
        parser('{"wrong": "shape"}', "tool")


def _sarif_with(**changes):
    result = {
        "ruleId": "py/x", "level": "error", "message": {"text": "m"},
        "locations": [{"physicalLocation": {"artifactLocation": {"uri": "a.py"}, "region": {"startLine": 3}}}],
    }
    result.update(changes)
    return json.dumps({"runs": [{"results": [{"ruleId": "py/ok"}, result]}]})


def _bandit_with(**changes):
    result = {"test_id": "B602", "issue_severity": "HIGH", "issue_text": "t", "filename": "a.py", "line_number": 3}
    result.update(changes)
    return json.dumps({"results": [{"test_id": "B101"}, result]})


def _region(start_line):
    return [{"physicalLocation": {"region": {"startLine": start_line}}}]


@pytest.mark.parametrize(
    "text",
    [
        _sarif_with(message="x"),
        _sarif_with(message=None),
        _sarif_with(locations=_region("abc")),
        _sarif_with(locations=_region(True)),
        _sarif_with(locations=[None]),
        _sarif_with(ruleId=7),
        _sarif_with(level=["error"]),
        json.dumps({"runs": [{"results": [{"ruleId": "py/ok"}, None]}]}),
    ],
    ids=["message-str", "message-null", "startLine-str", "startLine-bool", "location-null",
         "ruleId-int", "level-list", "result-null"],
)
def test_sarif_result_of_the_wrong_shape_names_tool_and_index(text):
    with pytest.raises(AdapterError, match=r"^codeql: result 1 has the wrong shape"):
        parse_sarif(text, "codeql")


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"results": [{"test_id": "B101"}, None]}),
        _bandit_with(line_number="x"),
        _bandit_with(line_number=2.0),
        _bandit_with(test_id=602),
        _bandit_with(issue_text={"text": "t"}),
        _bandit_with(filename=None),
    ],
    ids=["result-null", "line_number-str", "line_number-float", "test_id-int", "issue_text-object",
         "filename-null"],
)
def test_bandit_result_of_the_wrong_shape_names_tool_and_index(text):
    with pytest.raises(AdapterError, match=r"^bandit: result 1 has the wrong shape"):
        parse_bandit_json(text, "bandit")


@pytest.mark.parametrize(
    "text", ['{"runs": {"results": []}}', '{"runs": [[]]}', "[]"], ids=["runs-object", "run-list", "log-list"]
)
def test_sarif_runs_of_the_wrong_shape_are_not_a_sarif_log(text):
    with pytest.raises(AdapterError, match="not a SARIF log"):
        parse_sarif(text, "codeql")


def test_bandit_results_that_are_not_a_list_are_not_a_report():
    with pytest.raises(AdapterError, match="not a JSON report"):
        parse_bandit_json('{"results": {"0": {}}}', "bandit")


BANDIT_PARSE_ERROR = {"filename": "a.py", "reason": "syntax error while parsing AST from file"}


@pytest.mark.parametrize("results", [[], [{"test_id": "B602"}]], ids=["no-results", "with-results"])
def test_bandit_errors_mean_the_tool_could_not_read_the_file(results):
    assert parse_bandit_json(json.dumps({"errors": [BANDIT_PARSE_ERROR], "results": results}), "bandit") is None


@pytest.mark.parametrize("errors", [{"a.py": "x"}, "syntax error", None], ids=["object", "string", "null"])
def test_bandit_errors_that_are_not_a_list_are_not_a_report(errors):
    with pytest.raises(AdapterError, match="not a JSON report"):
        parse_bandit_json(json.dumps({"errors": errors, "results": []}), "bandit")


def _sarif_run(**run):
    return json.dumps({"runs": [{"results": [], **run}]})


def _notification(level):
    return {"level": level, "message": {"text": "m"}}


@pytest.mark.parametrize(
    "text",
    [
        _sarif_run(invocations=[{"executionSuccessful": False}]),
        _sarif_run(invocations=[{"executionSuccessful": True, "toolExecutionNotifications": [_notification("error")]}]),
        json.dumps({"runs": [
            {"results": [{"ruleId": "py/x"}], "invocations": [{"executionSuccessful": True}]},
            {"results": [], "invocations": [{"executionSuccessful": False}]},
        ]}),
    ],
    ids=["execution-unsuccessful", "error-notification", "second-run-unsuccessful"],
)
def test_sarif_failed_invocation_means_the_tool_could_not_read_the_file(text):
    assert parse_sarif(text, "codeql") is None


@pytest.mark.parametrize(
    "text",
    [
        _sarif_run(),
        _sarif_run(invocations=[{"executionSuccessful": True}]),
        _sarif_run(invocations=[{"executionSuccessful": True,
                                 "toolExecutionNotifications": [_notification("warning"), {"message": {"text": "m"}}]}]),
    ],
    ids=["no-invocations", "successful", "warning-notifications"],
)
def test_sarif_successful_run_with_zero_results_is_a_clean_file(text):
    assert parse_sarif(text, "codeql") == []


@pytest.mark.parametrize(
    "text",
    [
        _sarif_run(invocations={"executionSuccessful": False}),
        _sarif_run(invocations=[None]),
        _sarif_run(invocations=[{"executionSuccessful": "false"}]),
        _sarif_run(invocations=[{"executionSuccessful": True, "toolExecutionNotifications": {}}]),
        _sarif_run(invocations=[{"executionSuccessful": True, "toolExecutionNotifications": [{"level": 3}]}]),
    ],
    ids=["invocations-object", "invocation-null", "executionSuccessful-str", "notifications-object",
         "notification-level-int"],
)
def test_sarif_invocations_of_the_wrong_shape_are_not_a_sarif_log(text):
    with pytest.raises(AdapterError, match="not a SARIF log"):
        parse_sarif(text, "codeql")


def test_cwe_map_lookup_and_miss(cwe_map):
    assert cwe_map.lookup("bandit", "B602") == "CWE-78"
    assert cwe_map.lookup("bandit", "B000") is None


def test_cwe_map_rejects_malformed_value(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"bandit": {"B602": "78"}}), encoding="utf-8")
    with pytest.raises(ConfigError):
        CweMap.from_file(path)


def test_cwe_map_rejects_non_object(tmp_path):
    path = tmp_path / "map.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(ConfigError):
        CweMap.from_file(path)


@pytest.mark.parametrize(
    "text, message",
    [("{bandit", "cannot read CWE map"), ('{"bandit": ["B602"]}', "entry for tool 'bandit' must be an object"),
     ('{"bandit": {"B602": "CWE-78\\n"}}', "malformed CWE 'CWE-78\\n' for bandit/B602")],
    ids=["not-json", "tool-entry-not-an-object", "cwe-ends-in-a-newline"],
)
def test_cwe_map_refuses_a_malformed_file(tmp_path, text, message):
    path = tmp_path / "map.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(message)):
        CweMap.from_file(path)


@pytest.mark.parametrize("cwe", ["78", 78, None], ids=["no-prefix", "integer", "null"])
def test_cwe_map_refuses_a_value_that_is_no_cwe_string(cwe):
    with pytest.raises(ConfigError, match=f"^malformed CWE {re.escape(repr(cwe))} for t/r$"):
        CweMap({("t", "r"): cwe})


def test_normalize_unmapped_rule_keeps_cwe_absent(cwe_map, tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"results": [
        {"test_id": "B000", "issue_severity": "LOW", "issue_text": "msg", "filename": "f.py", "line_number": 2}
    ]}), encoding="utf-8")
    adapter = _replay_adapter("bandit", "bandit_json", report)
    (finding,) = run_analyzer(adapter, _write_source(tmp_path, "x = 1\n"), cwe_map)
    assert finding == Finding("bandit", "B000", "low", "msg", "f.py", 2)
    assert finding.cwe is None


def test_finding_validates_cwe_pattern_and_line():
    with pytest.raises(ConfigError):
        Finding("t", "r", "low", "m", "f.py", 1, cwe="78")
    with pytest.raises(ConfigError):
        Finding("t", "r", "low", "m", "f.py", 0, cwe="CWE-78")


def _write_source(tmp_path, text: str):
    path = tmp_path / "sample.py"
    path.write_text(text, encoding="utf-8")
    return path


def test_run_analyzer_flags_shell_true(tmp_path, fake_bandit_adapter, cwe_map):
    source = _write_source(tmp_path, "import subprocess\nsubprocess.call(cmd, shell=True)\n")
    findings = run_analyzer(fake_bandit_adapter, source, cwe_map)
    assert findings == [
        Finding(
            tool="bandit",
            rule_id="B602",
            severity="high",
            message="subprocess call with shell=True identified, security issue.",
            file=str(source),
            line=2,
            cwe="CWE-78",
        )
    ]


def test_bandit_stub_reports_a_nosec_line_only_with_ignore_nosec(tmp_path, fake_bandit_adapter):
    # the packaged Bandit command passes the flag, as the stub spec does
    assert "--ignore-nosec" in load_adapters(default_data_path("adapters.json"))["bandit"].command
    assert "--ignore-nosec" in fake_bandit_adapter.command
    source = _write_source(tmp_path, "import subprocess\nsubprocess.call(cmd, shell=True)  # nosec\n")
    assert [(f.rule_id, f.line) for f in run_analyzer(fake_bandit_adapter, source, CweMap({}))] == [("B602", 2)]
    honouring = replace(fake_bandit_adapter, command=[a for a in fake_bandit_adapter.command if a != "--ignore-nosec"])
    assert run_analyzer(honouring, source, CweMap({})) == []


def test_run_analyzer_clean_file_has_no_findings(tmp_path, fake_codeql_adapter):
    source = _write_source(tmp_path, "print('hello')\n")
    assert run_analyzer(fake_codeql_adapter, source, CweMap({})) == []


def test_run_analyzer_nonzero_with_findings_is_not_an_error(tmp_path, fake_bandit_adapter):
    # the bandit-style stub exits 1 whenever it reports findings
    source = _write_source(tmp_path, "x = eval(user_input)\n")
    findings = run_analyzer(fake_bandit_adapter, source, CweMap({}))
    assert [f.rule_id for f in findings] == ["B307"]


def test_run_analyzer_missing_binary(tmp_path):
    adapter = AdapterConfig(
        name="ghost", command=["definitely-not-a-real-binary-xyz", "{file}"], format="sarif"
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(ToolMissingError) as exc_info:
        run_analyzer(adapter, source, CweMap({}))
    assert "definitely-not-a-real-binary-xyz" in str(exc_info.value)


def test_run_analyzer_missing_source_file(fake_bandit_adapter, tmp_path):
    with pytest.raises(SosecError):
        run_analyzer(fake_bandit_adapter, tmp_path / "nope.py", CweMap({}))


def test_run_analyzer_timeout(tmp_path):
    adapter = AdapterConfig(
        name="sleepy",
        command=[sys.executable, "-c", "import time; time.sleep(10)", "{file}"],
        format="bandit_json",
        timeout=0.3,
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(AdapterError):
        run_analyzer(adapter, source, CweMap({}))


def test_run_analyzer_unexpected_exit_code(tmp_path):
    adapter = AdapterConfig(
        name="crashy",
        command=[sys.executable, "-c", "import sys; sys.exit(3)", "{file}"],
        format="bandit_json",
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(AdapterError):
        run_analyzer(adapter, source, CweMap({}))


def test_run_analyzer_unparseable_output(tmp_path):
    adapter = AdapterConfig(
        name="noisy",
        command=[sys.executable, "-c", "print('garbage')", "{file}"],
        format="bandit_json",
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(AdapterError):
        run_analyzer(adapter, source, CweMap({}))


def test_run_analyzer_output_that_is_not_utf8(tmp_path):
    # an AdapterError costs one sample in eval; a bare UnicodeDecodeError would end the run
    adapter = AdapterConfig(
        name="latin1",
        command=[sys.executable, "-c", "import sys; sys.stdout.buffer.write(b'{\"results\": []}\\xe9')", "{file}"],
        format="bandit_json",
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(AdapterError, match="adapter latin1 wrote output that is not UTF-8"):
        run_analyzer(adapter, source, CweMap({}))


def test_run_analyzer_maps_cwes(tmp_path, fake_codeql_adapter, cwe_map):
    source = _write_source(tmp_path, "obj = pickle.loads(blob)\n")
    findings = run_analyzer(fake_codeql_adapter, source, cwe_map)
    assert [f.cwe for f in findings] == ["CWE-502"]


def test_run_analyzer_gives_none_for_a_file_the_tool_cannot_read(tmp_path, fake_bandit_adapter, cwe_map):
    source = _write_source(tmp_path, "def f(x:\n    subprocess.call(x, shell=True)\n")
    assert run_analyzer(fake_bandit_adapter, source, cwe_map) is None


UNPARSEABLE = "def f(x:\n    subprocess.call(x, shell=True)\n"
SHELL = "import subprocess\nsubprocess.call(cmd, shell=True)\n"


def _logged_adapters(log, **kwargs):
    return [AdapterConfig.from_dict(name, spec) for name, spec in logged_adapter_specs(log, **kwargs).items()]


def _log_lines(log):
    return log.read_text(encoding="utf-8").splitlines() if log.exists() else []


def test_analyze_codes_runs_each_distinct_key_once_in_order_through_map(tmp_path, cwe_map):
    log = tmp_path / "calls.log"
    mapped = []

    def recording_map(fn, keys):
        mapped.append(list(keys))
        return map(fn, mapped[-1])

    keys = [("python", SHELL), ("python", "x = 1\n"), ("python", SHELL)]
    results = analyze_codes(_logged_adapters(log), cwe_map, keys, recording_map)
    assert mapped == [[("python", SHELL), ("python", "x = 1\n")]]
    assert list(results) == mapped[0]
    assert [[f.cwe for f in findings] for findings in results[("python", SHELL)]] == [["CWE-78"], ["CWE-78"]]
    assert results[("python", "x = 1\n")] == [[], []]
    assert len(_log_lines(log)) == 4


def test_analyze_codes_runs_only_the_adapters_that_support_the_language(
    fake_bandit_adapter, fake_codeql_adapter, cwe_map
):
    code = "int run(char *s) { return eval(s); }\n"  # C: no Python parse check
    (findings,) = analyze_codes([fake_bandit_adapter, fake_codeql_adapter], cwe_map, [("c", code)], map)[("c", code)]
    assert [f.cwe for f in findings] == ["CWE-94"]


@pytest.mark.parametrize(
    "code", [UNPARSEABLE, "x = 1\0\n", "print 'hi'\n"], ids=["syntax-error", "nul-byte", "python2-print"]
)
def test_analyze_codes_python_that_does_not_parse_is_unreadable_to_every_tool(tmp_path, cwe_map, code):
    log = tmp_path / "calls.log"
    assert analyze_codes(_logged_adapters(log), cwe_map, [("python", code)], map) == {("python", code): [None, None]}
    assert not log.exists()  # no analyzer started


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_analyze_codes_python_too_deep_for_the_parser_is_unreadable(tmp_path, cwe_map, monkeypatch, error):
    def too_deep(code):
        raise error

    monkeypatch.setattr("sosec.analysis.ast.parse", too_deep)
    log = tmp_path / "calls.log"
    assert analyze_codes(_logged_adapters(log), cwe_map, [("python", SHELL)], map) == {("python", SHELL): [None, None]}
    assert not log.exists()


def test_analyze_codes_gives_none_for_a_lone_surrogate(fake_bandit_adapter, cwe_map):
    key = ("python", "x = '\ud800'\n")
    assert analyze_codes([fake_bandit_adapter], cwe_map, [key], map) == {key: None}


def test_analyze_codes_gives_none_when_an_analyzer_fails(tmp_path, cwe_map):
    log = tmp_path / "calls.log"
    key = ("python", SHELL)
    assert analyze_codes(_logged_adapters(log, fail_on="shell"), cwe_map, [key], map) == {key: None}
    assert len(_log_lines(log)) == 1  # bandit fails first, so codeql never starts


def test_analyze_codes_gives_none_only_for_the_tool_that_could_not_read(tmp_path, fake_codeql_adapter, cwe_map):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"errors": [BANDIT_PARSE_ERROR], "results": []}), encoding="utf-8")
    unreadable = _replay_adapter("bandit", "bandit_json", report)
    key = ("python", SHELL)
    (results,) = analyze_codes([unreadable, fake_codeql_adapter], cwe_map, [key], map).values()
    assert results[0] is None
    assert [f.cwe for f in results[1]] == ["CWE-78"]


def test_adapter_config_validation():
    with pytest.raises(ConfigError, match="^adapter x: unknown output format 'csv'$"):
        AdapterConfig(name="x", command=["tool"], format="csv")
    with pytest.raises(ConfigError):
        AdapterConfig(name="x", command=[], format="sarif")


def test_adapter_config_fields_are_the_entry_keys_after_the_name():
    # from_dict passes an entry's keys to AdapterConfig as they are
    names = [f.name for f in fields(AdapterConfig)]
    values = ["x", ["t", "{file}"], "sarif", 5, [0], ["c"]]
    assert names[0] == "name"
    assert AdapterConfig.from_dict("x", dict(zip(names[1:], values[1:]))) == AdapterConfig(*values)
    with pytest.raises(ConfigError, match="^adapter x: unknown key 'name'$"):
        AdapterConfig.from_dict("x", {"name": "y", "command": ["t", "{file}"], "format": "sarif"})


@pytest.mark.parametrize(
    "changes, message",
    [({"timeout": -5}, "timeout must be a positive number, got -5"),
     ({"timeout": 0}, "timeout must be a positive number, got 0"),
     ({"command": ["t", 5, "{file}"]}, "command must be a list of strings, got ['t', 5, '{file}']"),
     ({"command": ["t", "-"]}, "command has no {file} placeholder"),
     ({"ok_returncodes": []}, "ok_returncodes is empty, so every run would fail"),
     ({"languages": []}, "languages must be a list of strings or null (not an empty list), got []")],
    ids=["negative-timeout", "zero-timeout", "non-string-command", "no-file-placeholder", "no-ok-returncodes",
         "no-languages"],
)
def test_adapter_config_built_in_code_is_checked_as_an_entry_is(tmp_path, changes, message):
    entry = {"command": ["t", "{file}"], "format": "sarif", **changes}
    with pytest.raises(ConfigError) as in_code:
        AdapterConfig("x", **entry)
    config = tmp_path / "adapters.json"
    config.write_text(json.dumps({"adapters": {"x": entry}}), encoding="utf-8")
    with pytest.raises(ConfigError) as from_file:
        load_adapters(config)
    assert str(in_code.value) == str(from_file.value) == f"adapter x: {message}"


def test_adapter_config_takes_its_declared_types_and_defaults():
    adapter = AdapterConfig("x", ("t", "{file}"), "sarif", timeout=5, ok_returncodes=[0], languages=["c"])
    assert adapter == AdapterConfig("x", ["t", "{file}"], "sarif", 5.0, (0,), ("c",))
    assert type(adapter.timeout) is float
    entry = AdapterConfig.from_dict("x", {"command": ["t", "{file}"], "format": "sarif"})
    assert entry == AdapterConfig("x", ["t", "{file}"], "sarif", 120.0, (0, 1), None)


def _finding(cwe):
    return Finding("t", "r", "high", "m", "f.py", 1, cwe=cwe)


def _trial(before, after):
    return Trial("s", "sosecure", before, after, unchanged=False)


def test_diff_full_fix():
    trial = _trial(cwe_set([_finding("CWE-78")]), cwe_set([]))
    assert trial.fixed == {"CWE-78"}
    assert trial.before_cwes & trial.after_cwes == set()
    assert trial.introduced == set()


def test_diff_persisted():
    trial = _trial(cwe_set([_finding("CWE-78")]), cwe_set([_finding("CWE-78")]))
    assert trial.before_cwes & trial.after_cwes == {"CWE-78"}
    assert trial.fixed == set() and trial.introduced == set()


def test_diff_swap():
    trial = _trial(cwe_set([_finding("CWE-78")]), cwe_set([_finding("CWE-89")]))
    assert trial.fixed == {"CWE-78"}
    assert trial.introduced == {"CWE-89"}


def test_unmapped_findings_do_not_reach_cwe_level():
    assert cwe_set([_finding(None), _finding("CWE-78")]) == {"CWE-78"}


def test_diff_identities_on_random_sets():
    rng = random.Random(31)
    universe = [f"CWE-{n}" for n in (20, 22, 78, 79, 89, 94, 327, 502)]
    for _ in range(200):
        before = {c for c in universe if rng.random() < 0.4}
        after = {c for c in universe if rng.random() < 0.4}
        trial = _trial(before, after)
        persisted = trial.before_cwes & trial.after_cwes
        assert trial.fixed & persisted == set()
        assert trial.introduced & (trial.fixed | persisted) == set()
        assert trial.fixed | persisted == before
        # swapping before/after exchanges fixed and introduced
        swapped = _trial(after, before)
        assert swapped.fixed == trial.introduced
        assert swapped.introduced == trial.fixed
        assert swapped.before_cwes & swapped.after_cwes == persisted
