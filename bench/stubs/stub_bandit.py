#!/usr/bin/env python3
"""Benchmark stub analyzer: a tiny pattern linter emitting a Bandit-style JSON report.

The benchmark writes its own copy of this file into each run directory, so
the numbers do not depend on the test fixtures. Keep the rule set fixed:
the eval workload's expected metrics are derived from it.
"""
import json
import re
import sys

RULES = [
    (re.compile(r"shell\s*=\s*True"), "B602", "HIGH",
     "subprocess call with shell=True identified, security issue."),
    (re.compile(r"pickle\.loads"), "B301", "MEDIUM",
     "deserialization with pickle.loads of possibly untrusted data."),
    (re.compile(r"\beval\("), "B307", "MEDIUM",
     "use of eval detected."),
    (re.compile(r"tempfile\.mktemp"), "B306", "MEDIUM",
     "use of insecure and deprecated tempfile.mktemp."),
]


def main():
    path = sys.argv[-1]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    results = []
    for lineno, line in enumerate(lines, start=1):
        for pattern, rule, severity, text in RULES:
            if pattern.search(line):
                results.append({
                    "filename": path,
                    "line_number": lineno,
                    "test_id": rule,
                    "issue_severity": severity,
                    "issue_confidence": "HIGH",
                    "issue_text": text,
                })
    json.dump({"errors": [], "results": results}, sys.stdout)
    return 1 if results else 0


if __name__ == "__main__":
    sys.exit(main())
