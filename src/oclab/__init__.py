"""Exact-arithmetic toolkit for overcompleteness experiments in finite
truncations of sequence spaces: rational linear algebra with replayable
elimination traces, certified constructions, and a seeded scenario
harness."""

from ._version import __version__

__all__ = ["__version__"]
