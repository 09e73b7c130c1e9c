"""Canonical JSON wire format and content digests.

Wire rules: rationals become the ASCII string "p/q" (denominator
omitted when it is 1, matching ``str(Fraction)``), vectors become arrays
of such strings, and floats (diagnostics only) stay JSON numbers.
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


def _kind_name(cls) -> str:
    return _KEBAB.sub("-", cls.__name__).lower()


def to_jsonable(obj):
    """Recursively convert toolkit objects to JSON-serializable data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, Vector):
        return [frac_str(c) for c in obj.coords]
    if isinstance(obj, Matrix):
        return [to_jsonable(row) for row in obj.rows]
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"kind": _kind_name(type(obj))}
        for f in dataclasses.fields(obj):
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return [to_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(
        to_jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def certificate(kind: str, verdict: str, witness=None, pivot_log=None, inputs=None, subset=None) -> dict:
    """Assemble the standard certificate record.

    ``inputs_digest`` hashes the canonical serialization of whatever the
    certificate was computed from, so a report edited after the fact no
    longer matches its own digests.
    """
    record = {
        "kind": kind,
        "verdict": verdict,
        "witness": to_jsonable(witness),
        "pivot_log": to_jsonable(pivot_log),
        "inputs_digest": digest(inputs),
    }
    if subset is not None:
        record["subset"] = [int(i) for i in subset]
    return record
