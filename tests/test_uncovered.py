"""The line tracer of ``tests/uncovered.py`` on a branch never taken."""

from __future__ import annotations

import sys

import uncovered


def _sign(x):
    if x >= 0:
        return "+"
    return "-"


def test_the_tracer_names_only_the_branch_never_taken():
    code = _sign.__code__
    before = sys.gettrace()
    hits = uncovered.trace(code.co_filename, lambda: _sign(1))
    assert sys.gettrace() is before
    ran = {line for filename, line in hits if filename == code.co_filename}
    missed = uncovered.executable_lines(code) - ran
    assert missed == {code.co_firstlineno + 3}  # return "-"


def test_module_lines_include_nested_code_and_skip_line_zero():
    code = compile("x = 1\ndef f():\n    return 2\n", "<module>", "exec")
    assert uncovered.executable_lines(code) == {1, 2, 3}
