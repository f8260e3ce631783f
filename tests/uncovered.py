"""Line coverage of ``src/opetokit`` under the tier-1 tests, standard library only.

    python tests/uncovered.py [pytest arguments]

runs the tier-1 suite in this process under a ``sys.settrace`` tracer that
follows only frames whose code lives under ``src/opetokit/``, then prints
``module:line: source`` for every executable line (per ``code.co_lines()``,
nested code objects included) that never ran, and on stderr how many there
were and how long the run took.  The exit status is pytest's.

Only this process is traced: a test's child process runs untraced, so the
lines only a child runs are listed too.  Tracing slows the suite several
times over.  The file name keeps pytest from collecting this module.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opetokit"


def trace(root: str, run) -> set[tuple[str, int]]:
    """Call ``run()``; the (file, line) pairs it ran in files under ``root``.

    A frame's call counts its first line; the tracer set before is restored
    afterwards.
    """
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(root):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    previous, previous_threads = sys.gettrace(), threading.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    return hits


def executable_lines(code: CodeType) -> set[int]:
    """The lines of ``code`` and of the code objects nested in it.

    A module's first instruction sits on line 0, which no event reports.
    """
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def main(argv: list[str]) -> int:
    import pytest

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    status = []
    start = time.perf_counter()
    hits = trace(str(PACKAGE) + os.sep, lambda: status.append(
        pytest.main(["-q", "--continue-on-collection-errors", *argv])
    ))
    seconds = time.perf_counter() - start
    missed = 0
    for module in sorted(PACKAGE.glob("*.py")):
        source = module.read_text()
        lines = source.splitlines()
        ran = {line for filename, line in hits if filename == str(module)}
        for line in sorted(executable_lines(compile(source, str(module), "exec")) - ran):
            print(f"{module.name}:{line}: {lines[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines never ran; traced run took {seconds:.0f} s", file=sys.stderr)
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
