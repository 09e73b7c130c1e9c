"""Exception hierarchy for the toolkit.

Every error raised by this package derives from :class:`OclabError`, so
callers can catch one type at the boundary.  The subclasses map onto the
CLI exit codes: config problems exit 2, certification failures exit 4,
and every other toolkit error (construction, domain, precondition, mode)
exits 3.
"""

__all__ = [
    "OclabError",
    "DomainError",
    "ModeError",
    "PreconditionError",
    "ConstructionError",
    "CertificationError",
    "ExtractionError",
    "ScheduleError",
    "ConfigError",
]


class OclabError(Exception):
    """Base class for all toolkit errors."""


class DomainError(OclabError):
    """A parameter lies outside its mathematical domain."""


class ModeError(OclabError):
    """A float reached exact arithmetic, or the exact answer is irrational."""


class PreconditionError(OclabError):
    """An input violates a documented precondition."""


class ConstructionError(OclabError):
    """A constructive procedure could not produce its object."""


class CertificationError(OclabError):
    """A certificate check failed on the given witness."""


class ExtractionError(ConstructionError):
    """A subsequence/subfamily extraction ran out of admissible choices."""


class ScheduleError(DomainError):
    """A decay schedule fails its rate condition."""


class ConfigError(OclabError):
    """A scenario configuration is malformed or inconsistent."""
