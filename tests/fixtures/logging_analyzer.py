#!/usr/bin/env python3
"""Runs another stub analyzer after logging the call, for counting subprocesses.

Usage: logging_analyzer.py LOG NAME STUB DELAY FAIL_ON [STUB_ARG...] FILE

Appends one line (NAME and the file's SHA-256) to LOG, sleeps DELAY
seconds, exits 3 when FAIL_ON is non-empty and occurs in FILE, and
otherwise runs STUB with the STUB_ARGs on FILE as if STUB had been invoked
directly.
"""
import hashlib
import runpy
import sys
import time


def main():
    log, name, stub, delay, fail_on = sys.argv[1:6]
    path = sys.argv[-1]
    with open(path, encoding="utf-8") as fh:
        code = fh.read()
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"{name} {hashlib.sha256(code.encode('utf-8')).hexdigest()}\n")
    time.sleep(float(delay))
    if fail_on and fail_on in code:
        print("analysis failed", file=sys.stderr)
        sys.exit(3)
    sys.argv = [stub, *sys.argv[6:]]
    runpy.run_path(stub, run_name="__main__")


if __name__ == "__main__":
    main()
