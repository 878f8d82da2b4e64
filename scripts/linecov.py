#!/usr/bin/env python3
"""Line coverage of src/sewkit under the tier-1 tests, with the standard library only.

Runs ``pytest -q tests`` in this process with ``sys.settrace`` and
``threading.settrace`` set, records every line run in a frame whose file
lies under src/sewkit, and prints each executable line that never ran as
``path:line: source``.  A module's executable lines are the line numbers
that the ``co_lines()`` of its compiled code objects, nested ones
included, give.  Lines run only in a subprocess (the scripts' tests) do
not count.

Exits with pytest's code when the tests fail, else 1 when a line outside
``ALLOWED`` never ran, else 0.  Tracing about doubles the suite's time.

Usage: python scripts/linecov.py
"""
from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sewkit"

#: (file under src/sewkit, stripped source) of the lines no in-process test can
#: run: the entry point's call under ``if __name__ == "__main__":``
ALLOWED = {("cli.py", "main()")}


def executable_lines(code: CodeType) -> set[int]:
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on ``args`` and the lines run per resolved file
    under src/sewkit."""
    prefix = str(SRC) + os.sep
    inside: dict[str, bool] = {}
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return local(frame, event, arg) if inside[name] else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    resolved: dict[str, set[int]] = defaultdict(set)
    for name, lines in hits.items():
        resolved[os.path.realpath(name)] |= lines
    return int(status), resolved


def main() -> int:
    status, hits = run_traced(["-q", str(ROOT / "tests")])
    if status != 0:
        print(f"linecov: pytest exited {status}", file=sys.stderr)
        return status
    missed = allowed = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        unrun = executable_lines(compile(source, str(path), "exec")) - hits[str(path.resolve())]
        for line in sorted(unrun):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            if (path.name, text[line - 1].strip()) in ALLOWED:
                allowed += 1
            else:
                missed += 1
    print(f"linecov: {missed} line(s) of src/sewkit never run, besides {allowed} allowed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
