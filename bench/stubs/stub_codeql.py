#!/usr/bin/env python3
"""Benchmark stub analyzer: a tiny pattern linter emitting a SARIF 2.1.0 log.

The benchmark writes its own copy of this file into each run directory, so
the numbers do not depend on the test fixtures. Keep the rule set fixed:
the eval workload's expected metrics are derived from it.
"""
import json
import re
import sys

RULES = [
    (re.compile(r"shell\s*=\s*True"), "py/command-line-injection", "error",
     "This command line depends on an unsanitized value."),
    (re.compile(r"pickle\.loads"), "py/unsafe-deserialization", "error",
     "Deserializing untrusted input can lead to arbitrary code execution."),
    (re.compile(r"\beval\("), "py/code-injection", "error",
     "Interpreting unsanitized input as code."),
    (re.compile(r"random\.random\("), "py/insecure-randomness", "warning",
     "Standard pseudo-random generators are not suitable for security purposes."),
]


def main():
    path = sys.argv[-1]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    results = []
    for lineno, line in enumerate(lines, start=1):
        for pattern, rule, level, text in RULES:
            if pattern.search(line):
                results.append({
                    "ruleId": rule,
                    "level": level,
                    "message": {"text": text},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {"uri": path},
                            "region": {"startLine": lineno},
                        }
                    }],
                })
    sarif = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": "fake-codeql"}},
            "results": results,
        }],
    }
    json.dump(sarif, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
