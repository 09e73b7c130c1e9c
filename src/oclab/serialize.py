"""Canonical JSON wire format and content digests: the one module that
knows how a value is written.

Callers hand over toolkit objects as they are; the standard JSON encoder
writes every byte and asks the hook ``_encode`` to convert, one level at
a time, what it does not know.  Rationals become the ASCII string "p/q"
(denominator omitted when it is 1, matching ``str(Fraction)``), vectors
arrays of such strings, dataclasses objects with a kebab-case ``kind``,
sets sorted arrays; floats (diagnostics only) stay JSON numbers.
Canonical form sorts keys and strips whitespace, so equal objects have
equal bytes and digests are tamper-evident.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from enum import Enum
from fractions import Fraction

from .linalg import Matrix, Vector

__all__ = [
    "frac_str",
    "parse_frac",
    "to_jsonable",
    "canonical_json",
    "digest",
    "certificate",
]


def frac_str(value) -> str:
    return str(Fraction(value))


_FRAC = re.compile(r"-?\d+(?:/[1-9]\d*)?$")


def parse_frac(text: str) -> Fraction:
    """Parse the wire form of a rational: 'p/q', or bare 'p' when q is 1."""
    if not isinstance(text, str) or not _FRAC.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


_KEBAB = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def _encode(obj):
    """Convert one level of an object the JSON encoder does not know."""
    cls = type(obj)
    if cls is Fraction:
        return str(obj)
    if cls is Vector:
        return [str(c) for c in obj.coords]
    if cls is Matrix:
        return obj.rows
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(cls):
        out = {"kind": _KEBAB.sub("-", cls.__name__).lower()}  # a field named kind wins
        for f in dataclasses.fields(cls):
            out[f.name] = getattr(obj, f.name)
        return out
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot serialize {cls.__name__}")


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, default=_encode)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def to_jsonable(obj):
    """The JSON data that ``canonical_json`` writes for ``obj``."""
    return json.loads(canonical_json(obj))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def certificate(kind: str, verdict: str, witness=None, pivot_log=None, inputs=None, subset=None) -> dict:
    """Assemble the standard certificate record; ``witness`` and
    ``pivot_log`` are kept as given.  ``inputs_digest`` hashes the canonical serialization of
    whatever the certificate was computed from, so a report edited after
    the fact no longer matches its own digests.
    """
    record = {
        "kind": kind,
        "verdict": verdict,
        "witness": witness,
        "pivot_log": pivot_log,
        "inputs_digest": digest(inputs),
    }
    if subset is not None:
        record["subset"] = [int(i) for i in subset]
    return record
