"""Canonical JSON wire format and content digests: the one module that
knows how a value is written.

Callers hand over toolkit objects as they are; the standard JSON encoder
writes every byte and asks the hook ``_encode`` to convert, one level at
a time, what it does not know.  Rationals become the ASCII string "p/q"
(denominator omitted when it is 1, matching ``str(Fraction)``), vectors
arrays of such strings, dataclasses objects with a kebab-case ``kind``,
and any other type raises ``TypeError``; a norm tag is a ``str``, and
floats (diagnostics only) stay JSON numbers, both written by the encoder
itself.  Canonical form sorts keys and strips whitespace, so equal
objects have equal bytes and digests are tamper-evident.  The encoder
skips its cycle scan, because every value it writes is a tree that the
toolkit built; a value that contains itself still raises, as
``RecursionError``.

Many certificates, each written once: a canonical text can be hashed as
it is (:func:`digest_text`) and spliced into a larger record
(:func:`canonical_json_spliced`) without encoding it again, and a family
of inputs that differ only in their last key is digested from one hashed
prefix (:func:`prefix_digest`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
from fractions import Fraction

from .linalg import Vector

__all__ = [
    "to_jsonable",
    "canonical_json",
    "canonical_json_spliced",
    "digest",
    "digest_text",
    "prefix_digest",
    "certificate",
]


_KEBAB = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


@functools.lru_cache(maxsize=None)
def _layout(cls) -> tuple:
    """A dataclass's kebab-case kind and its field names, read once."""
    return _KEBAB.sub("-", cls.__name__).lower(), tuple(f.name for f in dataclasses.fields(cls))


def _encode(obj):
    """Convert one level of an object the JSON encoder does not know."""
    cls = type(obj)
    if cls is Fraction:
        return str(obj)
    if cls is Vector:
        return [str(c) for c in obj.coords]
    if dataclasses.is_dataclass(cls):
        kind, names = _layout(cls)
        out = {"kind": kind}  # a field named kind wins
        for name in names:
            out[name] = getattr(obj, name)
        return out
    raise TypeError(f"cannot serialize {cls.__name__}")


_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False, default=_encode
)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def to_jsonable(obj):
    """The JSON data that ``canonical_json`` writes for ``obj``."""
    return json.loads(canonical_json(obj))


def canonical_json_spliced(record: dict, key: str, texts) -> str:
    """``canonical_json(record)`` with ``record[key]`` written as the list
    of the canonical ``texts`` of its items, which are not encoded again.

    ``key`` must sort before every other key of ``record``, so that the
    texts go at the head of what the encoder writes for the rest.
    """
    rest = canonical_json({**record, key: []})
    head = canonical_json({key: []})[:-2]
    if not rest.startswith(head):
        raise ValueError(f"{key!r} does not sort before every other key")
    return head + ",".join(texts) + rest[len(head):]


def digest_text(text: str) -> str:
    """SHA-256 of a canonical text, as :func:`digest` takes it."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(obj) -> str:
    return digest_text(canonical_json(obj))


def prefix_digest(shared: dict, key: str):
    """``value -> digest({**shared, key: value})`` for a family of inputs
    that share every key but ``key``.

    ``key`` must sort after every shared key, so the canonical text up to
    its value is the same for every value: that prefix is hashed once, and
    each value costs a copy of the hash state and its own encoding.
    """
    if any(k >= key for k in shared):
        raise ValueError(f"{key!r} does not sort after every shared key")
    opened = canonical_json(shared)[:-1] + ("," if shared else "")
    state = hashlib.sha256((opened + canonical_json(key) + ":").encode("utf-8"))

    def value_digest(value) -> str:
        h = state.copy()
        h.update((canonical_json(value) + "}").encode("utf-8"))
        return h.hexdigest()

    return value_digest


def certificate(
    kind: str, verdict: str, witness=None, pivot_log=None, inputs=None, subset=None, inputs_digest=None
) -> dict:
    """Assemble the standard certificate record; ``witness`` and
    ``pivot_log`` are kept as given.  ``inputs_digest`` hashes the canonical serialization of
    whatever the certificate was computed from, so a report edited after
    the fact no longer matches its own digests; a caller that has that
    digest already (from :func:`prefix_digest`) passes it instead of
    ``inputs``.
    """
    record = {
        "kind": kind,
        "verdict": verdict,
        "witness": witness,
        "pivot_log": pivot_log,
        "inputs_digest": digest(inputs) if inputs_digest is None else inputs_digest,
    }
    if subset is not None:
        record["subset"] = [int(i) for i in subset]
    return record
