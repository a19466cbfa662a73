"""Library lines that the tier-1 suite never runs.

Runs the suite in this process under ``sys.settrace`` and
``threading.settrace``, tracing only frames whose code lives under
``src/equilib``, then prints each executable line of the package that
never ran, as ``module.py:line  source``.  A module's executable lines are
the line numbers that ``co_lines()`` gives over its compiled code objects,
nested ones included.  The CLI subprocesses that some tests start are not
traced, so a line that only they run is listed.

Run from a checkout::

    python tests/unrun_lines.py

The exit status is pytest's.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "equilib"


def _code_lines(code):
    """Line numbers of ``code`` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _trace_package(ran):
    """A global trace function that adds ``(path, line)`` to ``ran`` for
    each line run in a package frame, ``path`` resolved."""
    resolved = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = Path(os.path.realpath(name))
            resolved[name] = path if path.parent == PACKAGE else None
        path = resolved[name]
        if path is None:
            return None
        ran.add((path, frame.f_lineno))

        def local(frame, event, arg):
            if event == "line":
                ran.add((path, frame.f_lineno))
            return local

        return local

    return tracer


def main():
    ran = set()
    tracer = _trace_package(ran)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = 0
    print("library lines that never ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(_code_lines(compile(source, str(path), "exec"))):
            if (path, line) not in ran:
                unrun += 1
                print(f"{path.name}:{line}  {text[line - 1].strip()}")
    print(f"{unrun} unrun")
    return status


if __name__ == "__main__":
    sys.exit(main())
