#!/usr/bin/env python3
"""Miniature pattern-based linter emitting a Bandit-style JSON report.

Stands in for the real Python security linter in offline tests: same report
shape, same exit-code convention (1 when findings exist), tiny rule set.
Like the real linter, it reports a `.py` file it cannot parse under
`errors` with no results, and exits 0, and it skips a line marked `# nosec`
unless it is given `--ignore-nosec`.

Usage: fake_bandit.py [--ignore-nosec] FILE
"""
import ast
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
    (re.compile(r"\bmark_safe\("), "B703", "MEDIUM",
     "Potential XSS on mark_safe function."),
]
NOSEC = re.compile(r"#\s*nosec\b")


def main():
    path = sys.argv[-1]
    ignore_nosec = "--ignore-nosec" in sys.argv[1:-1]
    with open(path, encoding="utf-8") as fh:
        code = fh.read()
    try:
        if path.endswith(".py"):
            ast.parse(code)
    except (SyntaxError, ValueError):
        json.dump({"errors": [{"filename": path, "reason": "syntax error while parsing AST from file"}],
                   "results": []}, sys.stdout)
        return 0
    lines = code.splitlines()
    results = []
    for lineno, line in enumerate(lines, start=1):
        if not ignore_nosec and NOSEC.search(line):
            continue
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
