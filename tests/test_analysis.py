from __future__ import annotations

import json
import random
import sys

import pytest

from sosec.analysis import (
    AdapterConfig,
    CweMap,
    Finding,
    analyze_file,
    cwe_set,
    diff_cwe_sets,
    normalize_finding,
    parse_bandit_json,
    parse_sarif,
    run_analyzer,
)
from sosec.config import default_data_path
from sosec.errors import AdapterError, ConfigError, SosecError, ToolMissingError

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


def test_fixture_normalization_maps_cwes(fixtures_dir, cwe_map):
    text = (fixtures_dir / "codeql_sample.sarif").read_text(encoding="utf-8")
    normalized = [normalize_finding(raw, cwe_map) for raw in parse_sarif(text, "codeql")]
    assert [f.cwe for f in normalized] == ["CWE-78", "CWE-327", None]

    text = (fixtures_dir / "bandit_sample.json").read_text(encoding="utf-8")
    normalized = [normalize_finding(raw, cwe_map) for raw in parse_bandit_json(text, "bandit")]
    assert [f.cwe for f in normalized] == ["CWE-78", None]


@pytest.mark.parametrize("parser", [parse_sarif, parse_bandit_json])
def test_parsers_reject_garbage(parser):
    with pytest.raises(AdapterError):
        parser("this is not json", "tool")
    with pytest.raises(AdapterError):
        parser('{"wrong": "shape"}', "tool")


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


def test_normalize_unmapped_rule_keeps_cwe_absent(cwe_map):
    raw = Finding("bandit", "B000", "low", "msg", "f.py", 2)
    assert normalize_finding(raw, cwe_map).cwe is None


def test_finding_validates_cwe_pattern_and_line():
    with pytest.raises(ConfigError):
        Finding("t", "r", "low", "m", "f.py", 1, cwe="78")
    with pytest.raises(ConfigError):
        Finding("t", "r", "low", "m", "f.py", 0, cwe="CWE-78")


def _write_source(tmp_path, text: str):
    path = tmp_path / "sample.py"
    path.write_text(text, encoding="utf-8")
    return path


def test_run_analyzer_flags_shell_true(tmp_path, fake_bandit_adapter):
    source = _write_source(tmp_path, "import subprocess\nsubprocess.call(cmd, shell=True)\n")
    findings = run_analyzer(fake_bandit_adapter, source)
    assert findings == [
        Finding(
            tool="bandit",
            rule_id="B602",
            severity="high",
            message="subprocess call with shell=True identified, security issue.",
            file=str(source),
            line=2,
        )
    ]


def test_run_analyzer_clean_file_has_no_findings(tmp_path, fake_codeql_adapter):
    source = _write_source(tmp_path, "print('hello')\n")
    assert run_analyzer(fake_codeql_adapter, source) == []


def test_run_analyzer_nonzero_with_findings_is_not_an_error(tmp_path, fake_bandit_adapter):
    # the bandit-style stub exits 1 whenever it reports findings
    source = _write_source(tmp_path, "x = eval(user_input)\n")
    findings = run_analyzer(fake_bandit_adapter, source)
    assert [f.rule_id for f in findings] == ["B307"]


def test_run_analyzer_missing_binary(tmp_path):
    adapter = AdapterConfig(
        name="ghost", command=["definitely-not-a-real-binary-xyz", "{file}"], format="sarif"
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(ToolMissingError) as exc_info:
        run_analyzer(adapter, source)
    assert "definitely-not-a-real-binary-xyz" in str(exc_info.value)


def test_run_analyzer_missing_source_file(fake_bandit_adapter, tmp_path):
    with pytest.raises(SosecError):
        run_analyzer(fake_bandit_adapter, tmp_path / "nope.py")


def test_run_analyzer_timeout(tmp_path):
    adapter = AdapterConfig(
        name="sleepy",
        command=[sys.executable, "-c", "import time; time.sleep(10)"],
        format="bandit_json",
        timeout=0.3,
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(AdapterError):
        run_analyzer(adapter, source)


def test_run_analyzer_unexpected_exit_code(tmp_path):
    adapter = AdapterConfig(
        name="crashy",
        command=[sys.executable, "-c", "import sys; sys.exit(3)"],
        format="bandit_json",
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(AdapterError):
        run_analyzer(adapter, source)


def test_run_analyzer_unparseable_output(tmp_path):
    adapter = AdapterConfig(
        name="noisy",
        command=[sys.executable, "-c", "print('garbage')"],
        format="bandit_json",
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(AdapterError):
        run_analyzer(adapter, source)


def test_run_analyzer_output_that_is_not_utf8(tmp_path):
    # an AdapterError costs one sample in eval; a bare UnicodeDecodeError would end the run
    adapter = AdapterConfig(
        name="latin1",
        command=[sys.executable, "-c", "import sys; sys.stdout.buffer.write(b'{\"results\": []}\\xe9')"],
        format="bandit_json",
    )
    source = _write_source(tmp_path, "x = 1\n")
    with pytest.raises(AdapterError, match="adapter latin1 wrote output that is not UTF-8"):
        run_analyzer(adapter, source)


def test_analyze_file_normalizes(tmp_path, fake_codeql_adapter, cwe_map):
    source = _write_source(tmp_path, "obj = pickle.loads(blob)\n")
    findings = analyze_file(fake_codeql_adapter, cwe_map, source)
    assert [f.cwe for f in findings] == ["CWE-502"]


def test_adapter_config_validation():
    with pytest.raises(ConfigError):
        AdapterConfig(name="x", command=["tool"], format="csv")
    with pytest.raises(ConfigError):
        AdapterConfig(name="x", command=[], format="sarif")


def _finding(cwe):
    return Finding("t", "r", "high", "m", "f.py", 1, cwe=cwe)


def test_diff_full_fix():
    diff = diff_cwe_sets(cwe_set([_finding("CWE-78")]), cwe_set([]))
    assert diff.fixed == {"CWE-78"}
    assert diff.persisted == set()
    assert diff.introduced == set()


def test_diff_persisted():
    diff = diff_cwe_sets(cwe_set([_finding("CWE-78")]), cwe_set([_finding("CWE-78")]))
    assert diff.persisted == {"CWE-78"}
    assert diff.fixed == set() and diff.introduced == set()


def test_diff_swap():
    diff = diff_cwe_sets(cwe_set([_finding("CWE-78")]), cwe_set([_finding("CWE-89")]))
    assert diff.fixed == {"CWE-78"}
    assert diff.introduced == {"CWE-89"}


def test_unmapped_findings_do_not_reach_cwe_level():
    assert cwe_set([_finding(None), _finding("CWE-78")]) == {"CWE-78"}


def test_diff_identities_on_random_sets():
    rng = random.Random(31)
    universe = [f"CWE-{n}" for n in (20, 22, 78, 79, 89, 94, 327, 502)]
    for _ in range(200):
        before = {c for c in universe if rng.random() < 0.4}
        after = {c for c in universe if rng.random() < 0.4}
        diff = diff_cwe_sets(before, after)
        assert diff.fixed & diff.persisted == set()
        assert diff.introduced & (diff.fixed | diff.persisted) == set()
        assert diff.fixed | diff.persisted == before
        # swapping before/after exchanges fixed and introduced
        swapped = diff_cwe_sets(after, before)
        assert swapped.fixed == diff.introduced
        assert swapped.introduced == diff.fixed
        assert swapped.persisted == diff.persisted
