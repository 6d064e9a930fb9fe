"""List the lines of ``src/gxplain`` that the tier-1 tests never run.

    python3 tools/uncovered.py [PYTEST_ARGS...]

Runs pytest in this process (``-q --continue-on-collection-errors`` plus
``PYTEST_ARGS``, from the repository root, on this checkout's ``src``)
under a ``sys.settrace`` line tracer that watches only the package's
files, then prints every executable line that never ran as
``path:line: source``, file by file, and a count.  A line is executable
when its compiled code holds an instruction for it.  Lines that run only
in another process (``python -m gxplain``, a ``--jobs`` worker) are not
seen.  Hypothesis deadlines and its too-slow health check are off, as
tracing slows every test.  The exit code is pytest's.
"""

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gxplain"


def executable_lines(path: Path, text: str) -> set[int]:
    """The lines of ``path``, whose source is ``text``, that some
    instruction of its compiled code (or of a code object nested in it)
    is attributed to."""
    lines = set()
    stack = [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += (c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class _Untimed:
    """A pytest plugin that loads a Hypothesis profile without deadlines
    or the too-slow health check, once pytest has imported Hypothesis."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import HealthCheck, settings

        settings.register_profile(
            "traced",
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        settings.load_profile("traced")


def main(argv) -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    # read before the run, so an edit during it moves no line
    sources = {str(p): p.read_text() for p in paths}
    executable = {n: executable_lines(Path(n), t) for n, t in sources.items()}
    ran = {str(p): set() for p in paths}
    lines_of = {}  # co_filename -> its set in ran, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = ran.get(os.path.realpath(name))
        lines = lines_of[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    sys.settrace(trace)
    try:
        code = pytest.main(
            ["-q", "--continue-on-collection-errors", *argv],
            plugins=[_Untimed()],
        )
    finally:
        sys.settrace(None)

    total = 0
    for name, seen in ran.items():
        missed = sorted(executable[name] - seen)
        total += len(missed)
        where = Path(name).relative_to(ROOT)
        for line in missed:
            text = sources[name].splitlines()[line - 1].strip()
            print(f"{where}:{line}: {text}")
    print(f"{total} executable lines of {PACKAGE.relative_to(ROOT)} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
