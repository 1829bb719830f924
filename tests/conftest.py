from __future__ import annotations

import ast
import json
import math
import sys
from pathlib import Path

import pytest

from sosec import kb
from sosec.analysis import AdapterConfig
from sosec.kb import KnowledgeEntry, answer_url

FIXTURES = Path(__file__).parent / "fixtures"

# sha256 of the knowledge base that build-kb writes for the 20-row fixture dump
FIXTURE_KB_SHA256 = "f8968af3e5aef8f29083b548598cc4cbd1854be7bc0ca0aef5c3c392e29d53eb"

# A JSON document nested deeper than any parser's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def make_entry(
    answer_id: int,
    code_blocks: list[str],
    excerpt: str = "",
    comments: list[tuple[str, int]] | None = None,
    tags: list[str] | None = None,
    question_id: int = 0,
    score: int = 1,
) -> KnowledgeEntry:
    return KnowledgeEntry(
        answer_id=answer_id,
        question_id=question_id,
        answer_score=score,
        answer_excerpt=excerpt,
        code_blocks=code_blocks,
        comments=comments or [],
        tags=tags or [],
        url=answer_url(answer_id),
    )


@pytest.fixture
def entry_factory():
    return make_entry


def raise_in_body_parser_on(monkeypatch, marker: str) -> None:
    """Make the answer-body HTML parser raise on bodies that contain `marker`.

    Which real markup makes html.parser raise differs across Python versions.
    """
    feed = kb._BodyParser.feed

    def flaky_feed(self, data):
        if marker in data:
            raise AssertionError("unexpected markup")
        feed(self, data)

    monkeypatch.setattr(kb._BodyParser, "feed", flaky_feed)


def stub_adapter_specs() -> dict[str, dict]:
    """Adapter config entries that invoke the bundled stub analyzers."""
    return {
        "bandit": {
            "command": [sys.executable, str(FIXTURES / "fake_bandit.py"), "--ignore-nosec", "{file}"],
            "format": "bandit_json",
            "timeout": 60,
            "ok_returncodes": [0, 1],
            "languages": ["python"],
        },
        "codeql": {
            "command": [sys.executable, str(FIXTURES / "fake_codeql.py"), "{file}"],
            "format": "sarif",
            "timeout": 60,
            "ok_returncodes": [0],
            "languages": ["python", "c"],
        },
    }


def logged_adapter_specs(log_path: Path, fail_on: str = "", delay: float = 0.0) -> dict[str, dict]:
    """stub_adapter_specs() run through logging_analyzer.py.

    Every invocation appends one line to `log_path`; code containing a
    non-empty `fail_on` makes the adapter exit with an error.
    """
    specs = stub_adapter_specs()
    for name, spec in specs.items():
        stub, *stub_args = spec["command"][1:]
        spec["command"] = [
            sys.executable, str(FIXTURES / "logging_analyzer.py"),
            str(log_path), name, stub, str(delay), fail_on, *stub_args,
        ]
    return specs


def accounted_samples(report: dict) -> int:
    """An eval report's kept samples plus the samples its footnote tallies as dropped.

    Each sample is kept in every arm or dropped once, so this is the dataset size.
    """
    prefix = "excluded/tallied during the run: "
    tally = next((ast.literal_eval(n[len(prefix):]) for n in report["footnotes"] if n.startswith(prefix)), {})
    return report["counts"]["samples"] + sum(n for reason, n in tally.items() if reason != "unreadable_revisions")


@pytest.fixture
def fake_bandit_adapter() -> AdapterConfig:
    return AdapterConfig.from_dict("bandit", stub_adapter_specs()["bandit"])


@pytest.fixture
def fake_codeql_adapter() -> AdapterConfig:
    return AdapterConfig.from_dict("codeql", stub_adapter_specs()["codeql"])


@pytest.fixture
def stub_adapters_file(tmp_path) -> Path:
    path = tmp_path / "adapters.json"
    path.write_text(json.dumps({"adapters": stub_adapter_specs()}), encoding="utf-8")
    return path


def bm25_brute_force(
    docs_tokens: list[list[str]],
    query_tokens: list[str],
    k1: float,
    b: float,
) -> list[float]:
    """Independent BM25 scorer: plain loops over every document, no index."""
    n = len(docs_tokens)
    avgdl = sum(len(d) for d in docs_tokens) / n
    scores = []
    for tokens in docs_tokens:
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        dl = len(tokens)
        score = 0.0
        seen: list[str] = []
        for term in query_tokens:
            if term in seen:
                continue
            seen.append(term)
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            df = sum(1 for d in docs_tokens if term in d)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            score += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        scores.append(score)
    return scores
