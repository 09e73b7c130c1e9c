"""Opt-in pytest plugin: the ``raise`` sites in ``src/oclab`` that no test reaches.

Run it from the repository root, with ``tests`` on the import path so that
``-p`` finds it::

    PYTHONPATH=src:tests python -m pytest -q -p linehits tests

pytest collects only ``test_*.py`` files, so a plain run never loads it.
While the session runs, :func:`sys.settrace` (and :func:`threading.settrace`
for new threads) records the lines of ``src/oclab`` that execute; a run
in a subprocess is not seen.  Another tracer can replace or clear the
trace function (Hypothesis' ``Tracer.__exit__`` clears it on Python <
3.12), so before each test the plugin installs it again if it is gone,
and the summary says how many times it had to.  At the end, every
``raise`` statement whose first line never ran is listed, grouped by the
exception class it names.
The plugin itself never changes a test's outcome or the exit status, but
CI's Python 3.11 job fails unless its first summary line reads ``0 of N
unreached``.  Tracing makes the run about two and a half times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oclab"


def raise_sites(path: Path) -> list:
    """(line, exception class) of each ``raise`` statement in ``path``; a
    bare ``raise`` names ``re-raise``."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            sites.append((node.lineno, "re-raise" if exc is None else ast.unparse(exc)))
    return sorted(sites)


class LineHits:
    """The lines of each ``src/oclab`` file that ran, by absolute path."""

    def __init__(self):
        self.files = {str(p): p for p in sorted(SRC.glob("*.py"))}
        self.hits = defaultdict(set)
        self.reinstalls = 0

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename in self.files else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def ensure(self):
        """Install the trace function again if another tracer replaced or
        cleared it."""
        if sys.gettrace() != self._call:
            self.reinstalls += 1
            self.start()

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def by_class(self) -> dict:
        """exception class -> [(file name, line, whether it ran)] of its raise sites."""
        out = defaultdict(list)
        for name, path in self.files.items():
            for line, cls in raise_sites(path):
                out[cls].append((path.name, line, line in self.hits[name]))
        return out


_TRACER = LineHits()


def pytest_configure(config):
    _TRACER.start()


def pytest_runtest_setup(item):
    _TRACER.ensure()


def pytest_terminal_summary(terminalreporter):
    _TRACER.stop()
    sites = _TRACER.by_class()
    missed = {cls: [(name, line) for name, line, ran in found if not ran] for cls, found in sites.items()}
    write = terminalreporter.write_line
    terminalreporter.section("raise sites in src/oclab that no test reaches")
    write(f"{sum(map(len, missed.values()))} of {sum(map(len, sites.values()))} unreached")
    write(f"trace function re-installed before {_TRACER.reinstalls} tests")
    for cls in sorted(sites):
        write(f"{cls}: {len(missed[cls])} of {len(sites[cls])} unreached")
        for name, line in missed[cls]:
            write(f"    {name}:{line}")
