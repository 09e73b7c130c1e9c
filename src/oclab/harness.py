"""Scenario harness: validated configs, seeded runs, canonical reports.

Each scenario wires a construction to its certifications and emits a
report whose canonical JSON is byte-reproducible for a fixed config
(the wall-time field is excluded from the canonical form).  Every
numeric claim in a report points at a certificate; anything the
underlying modules cannot verify raises instead of being reported.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._version import __version__
from .certify import (
    HyperplaneFunctional,
    annihilator_decay_check,
    coefficient_samples,
    density_certificate,
    density_certificates,
    hyperplane_cover,
    l1_lower_bound_certificate,
    free_set_extract,
    pigeonhole_majority,
    support_annihilator_witness,
    weak_norm_convergence_probe,
)
from .constructors import (
    GeometricSchedule,
    IncompleteModel,
    OpenBall,
    fd_overcomplete,
    geometric_variant_sequence,
    incomplete_space_sequence,
    klee_vectors,
    separated_overcomplete_fd,
    sliding_hump_extract,
    _unit_balls,
)
from .errors import CertificationError, ConfigError, DomainError, OclabError
from .linalg import (
    Matrix,
    NormTag,
    dual_norm,
    exact_vector,
    null_vector,
    unit_vector,
    zero_vector,
    _int_numerators,
    _vandermonde_int,
)
from .rng import rng_for, sample_subset
from .serialize import (
    canonical_json,
    canonical_json_spliced,
    certificate,
    digest,
    digest_text,
    prefix_digest,
)

__all__ = [
    "SCENARIO_NAMES",
    "scenario_schema",
    "parse_config",
    "load_config",
    "Report",
    "run_scenario",
    "emit_report",
]

_EXHAUSTIVE_GUARD = 200_000


# ---------------------------------------------------------------------------
# scenario schemas
# ---------------------------------------------------------------------------

_COMMON = {
    "seed": {"type": "integer", "minimum": 0, "default": 0},
}

# the target y(n) = c*rho^n of the incomplete, geometric-variant and probe scenarios
_MODEL = {
    "c": {"type": "string", "format": "rational", "exclusiveMinimum": 0, "default": "1/2"},
    "rho": {"type": "string", "format": "rational", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": "1/2"},
}

_SCHEMAS = {
    "klee": {
        "lambdas": {"type": "string", "format": "rationals"},
        "d": {"type": "integer", "minimum": 1},
        "subset_samples": {"type": "integer", "minimum": 0, "default": 0},
        **_COMMON,
    },
    "fd-dense": {
        "d": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "radius": {"type": "string", "format": "rational", "exclusiveMinimum": 0, "default": "1/2"},
        "targets": {"type": "string", "enum": ["auto", "none"], "default": "auto"},
        "subset_samples": {"type": "integer", "minimum": 0, "default": 0},
        **_COMMON,
    },
    "separated": {
        "d": {"type": "integer", "minimum": 1},
        "eps": {"type": "string", "format": "rational", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": "1/20"},
        "tag": {"type": "string", "enum": ["L1", "L2", "Linf"], "default": "L2"},
        **_COMMON,
    },
    "incomplete": {
        **_MODEL,
        "K": {"type": "integer", "minimum": 1, "default": 12},
        "ks": {"type": "string", "format": "integers", "minimum": 1, "default": "10,20,30,40"},
        "j_max": {"type": "integer", "minimum": 0, "default": 5},
        "tau": {"type": ["string", "number"], "format": "rational", "exclusiveMinimum": 0, "default": "1/1000"},
        **_COMMON,
    },
    "geometric-variant": {
        **_MODEL,
        "K": {"type": "integer", "minimum": 1, "default": 8},
        "j_max": {"type": "integer", "minimum": 0, "default": 3},
        "threshold": {"type": "string", "format": "rational", "exclusiveMinimum": 0, "default": "1"},
        "schedule": {"type": "string", "enum": ["harmonic", "dyadic"], "default": "harmonic"},
        **_COMMON,
    },
    "sliding-hump": {
        "family": {"type": "string", "enum": ["blocks", "disjoint"], "default": "blocks"},
        "L": {"type": "integer", "minimum": 2, "default": 200},
        "m": {"type": "integer", "minimum": 1, "default": 15},
        "left_mass": {"type": "string", "format": "rational", "minimum": 0, "exclusiveMaximum": 1, "default": "3/10"},
        "eps": {"type": "string", "format": "rational", "exclusiveMinimum": 0, "default": "1/20"},
        "samples": {"type": "integer", "minimum": 1, "default": 64},
        **_COMMON,
    },
    "free-set": {
        "n": {"type": "integer", "minimum": 1},
        "f": {"type": "string", "enum": ["chain", "self", "full", "random"], "default": "chain"},
        "max_deg": {"type": "integer", "minimum": 0, "default": 2},
        **_COMMON,
    },
    "cover": {
        "mode": {"type": "string", "enum": ["grid", "escape"], "default": "grid"},
        "h": {"type": "integer", "minimum": 1, "default": 3},
        "points": {"type": "integer", "minimum": 1, "default": 12},
        "d": {"type": "integer", "minimum": 1, "default": 4},
        "lambdas": {"type": "string", "format": "rationals", "default": "1/10,1/5,3/10,2/5,9/20"},
        **_COMMON,
    },
    "probe": {
        "variant": {"type": "string", "enum": ["gk", "basis"], "default": "gk"},
        **_MODEL,
        "K": {"type": "integer", "minimum": 1, "default": 25},
        "window": {"type": "integer", "minimum": 1, "default": 8},
        "tau": {"type": "number", "exclusiveMinimum": 0, "default": 1e-6},
        **_COMMON,
    },
}

SCENARIO_NAMES = tuple(sorted(_SCHEMAS))


def _specs(name: str) -> dict:
    if name not in _SCHEMAS:
        raise ConfigError(f"unknown scenario {name!r}; valid scenarios: {', '.join(SCENARIO_NAMES)}")
    return _SCHEMAS[name]


def scenario_schema(name: str) -> dict:
    """Full JSON schema for one scenario's parameter object."""
    props = _specs(name)
    required = [k for k, spec in props.items() if "default" not in spec]
    return {
        "type": "object",
        "properties": {k: {a: b for a, b in spec.items() if a != "default"} for k, spec in props.items()},
        "required": required,
        "additionalProperties": False,
    }


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def parse_config(text: str) -> dict:
    """Parse a config document: a JSON object or "key = value" lines.

    In the line-oriented form, blank lines and lines starting with '#'
    are skipped and values stay strings until schema coercion.  In both
    forms a repeated key is an error.
    """
    if text.lstrip().startswith("{"):
        # a document that opens with "{" is a JSON object or is not JSON at all
        try:
            return json.loads(text, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # invalid JSON, or an integer past the digit limit
            raise ConfigError(f"cannot read the JSON config: {exc}") from exc
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key {key!r} in the JSON config")
        out[key] = value
    return out


def _frac(text: str, key: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot read {key}={text!r} as a rational") from exc


def _frac_list(text: str, key: str) -> list:
    return [_frac(p.strip(), key) for p in text.split(",") if p.strip()]


def _int_list(text: str, key: str) -> list:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}={text!r} must be a comma-separated integer list") from exc


#: The readers of a string value by its schema ``format``.
_FORMATS = {"rational": _frac, "rationals": _frac_list, "integers": _int_list}

#: The numeric bounds of a schema entry, with the test each read value must pass.
_BOUNDS = (
    ("minimum", "at least", operator.ge),
    ("exclusiveMinimum", "above", operator.gt),
    ("exclusiveMaximum", "below", operator.lt),
)

_TYPE_NAMES = {"string": "a string", "integer": "an integer", "number": "a finite number"}


def _is_type(value, type_name: str) -> bool:
    if type_name == "string":
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    if type_name == "integer":
        return isinstance(value, int)
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


def _check_value(spec: dict, key: str, raw) -> tuple:
    """Coerce, read and check one config value against its schema entry.

    A ``key = value`` string is coerced to the key's first type; ``integer``
    excludes ``bool``, and ``number`` excludes NaN and the infinities.  A
    string is then read by the key's ``format`` and a number as a float.
    A list read has at least one item, and the bounds hold on the value
    read, on each item of a list.  Returns the coerced value, as the
    report echoes it, and the value read.
    """
    types = spec["type"] if isinstance(spec["type"], list) else [spec["type"]]
    value = raw
    if isinstance(raw, str) and types[0] != "string":
        try:
            value = int(raw) if types[0] == "integer" else float(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot read {key}={raw!r} as {types[0]}") from exc
    if not any(_is_type(value, t) for t in types):
        wanted = " or ".join(_TYPE_NAMES[t] for t in types)
        if spec.get("format", "").startswith("rational") and "string" in types:
            wanted += '; rationals are written as strings, such as "1/2"'
        raise ConfigError(f"{key}={value!r} is not {wanted}")
    if "enum" in spec and value not in spec["enum"]:
        raise ConfigError(f"{key}={value!r} is not one of {', '.join(spec['enum'])}")
    if isinstance(value, str):
        read = _FORMATS[spec["format"]](value, key) if "format" in spec else value
    else:
        read = float(value) if "number" in types else value
    items = read if isinstance(read, list) else [read]
    if not items:
        raise ConfigError(f"{key}={value!r} must list at least one item")
    for keyword, relation, holds in _BOUNDS:
        if keyword in spec and not all(holds(x, spec[keyword]) for x in items):
            each = "each item of " if isinstance(read, list) else ""
            raise ConfigError(f"{each}{key}={value!r} must be {relation} {spec[keyword]}")
    return value, read


def load_config(name: str, raw: dict) -> tuple:
    """Check the keys, then coerce, read and check every value, defaults too.

    Returns ``(params, values)``: ``params`` maps each key to its value as
    written, after coercion (the report echoes it), and ``values`` to the
    value read, a ``Fraction`` or a list where the key has a ``format``.
    """
    props = _specs(name)
    unknown = sorted(set(raw) - set(props))
    if unknown:
        raise ConfigError(
            f"unknown key(s) for scenario {name!r}: {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(props))}"
        )
    missing = [k for k, spec in props.items() if "default" not in spec and k not in raw]
    if missing:
        raise ConfigError(f"scenario {name!r}: missing required key(s): {', '.join(missing)}")
    params, values = {}, {}
    for key, spec in props.items():
        try:
            params[key], values[key] = _check_value(spec, key, raw[key] if key in raw else spec["default"])
        except ConfigError as exc:
            raise ConfigError(f"scenario {name!r}: {exc}") from exc
    return params, values


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _klee_vectors(lambdas, d) -> tuple:
    """:func:`klee_vectors` of the config's lambdas; a node outside
    (0, 1/2) or a repeated one is a config error."""
    try:
        return klee_vectors(lambdas, d)
    except DomainError as exc:
        raise ConfigError(f"lambdas={_written(lambdas)!r}: {exc}") from exc


def _written(items) -> str:
    """A list of rationals as a config writes it."""
    return ", ".join(map(str, items))


def _spot_density(vectors, d: int, spot=None) -> str:
    """The density certificate of the first d vectors, written from
    ``spot``, their :func:`density_certificate` when a builder already
    holds it (the separated builder's carried state), or computed here."""
    if spot is None:
        spot = density_certificate(vectors, range(d), d)
    return certificate(
        "density",
        "Full",
        pivot_log=spot.log,
        inputs={"subset": list(range(d))},
        subset=range(d),
    )


def _run_klee(values, seed):
    lambdas, d = values["lambdas"], values["d"]
    if d > len(lambdas):
        raise ConfigError(f"klee needs at least d={d} lambdas, got {len(lambdas)}")
    vectors = _klee_vectors(lambdas, d)
    n = len(vectors)
    samples = values["subset_samples"]
    if samples == 0:
        if math.comb(n, d) > _EXHAUSTIVE_GUARD:
            raise ConfigError(f"subset_samples=0: C({n},{d}) subsets is too many to enumerate; set subset_samples")
        subsets = list(itertools.combinations(range(n), d))
    else:
        # each sampled subset gets its own elimination and certificate
        _guard_products(values, (("subset_samples", "d"),))
        rng = rng_for(seed, "klee-subsets")
        subsets = [sample_subset(rng, n, d) for _ in range(samples)]
    inputs_digest = prefix_digest({"lambdas": lambdas, "d": d}, "subset")
    # the nodes over their common denominator D, so each subset's product
    # formula is its integer product over D^C(d, 2)
    nodes, den = _int_numerators(lambdas)
    den_power = den ** math.comb(d, 2)
    certs = []
    for sub, cert in zip(subsets, density_certificates(vectors, subsets, d)):
        # each certificate is of rank d, and distinct nodes make its det the
        # product formula's, product / den_power, cross-multiplied to stay
        # integral; once that holds both witness fields take det
        det, product = cert.det, _vandermonde_int([nodes[i] for i in sub])
        if det.numerator * den_power != product * det.denominator:
            raise CertificationError(
                f"certificate is not Full with the determinant of the product formula on {sub}"
            )
        certs.append(
            certificate(
                "density",
                "Full",
                witness={"det_elimination": det, "det_product": det},
                pivot_log=cert.log,
                inputs_digest=inputs_digest(sub),
                subset=sub,
            )
        )
    constructed = {"vectors": vectors}
    return constructed, certs


def _run_fd_dense(values, seed):
    d, n = values["d"], values["n"]
    if n < d:
        raise ConfigError(f"n={n} must be at least d={d}")
    # the construction decides all C(n, d) subsets whatever subset_samples says
    if math.comb(n, d) > _EXHAUSTIVE_GUARD:
        raise ConfigError(f"C({n},{d}) subsets is too many to enumerate")
    if values["targets"] == "auto":
        rng = rng_for(seed, "fd-targets")
        targets = []
        for _ in range(n):
            center = exact_vector(
                Fraction(rng.randrange(-(1 << 8) + 1, 1 << 8), 1 << 8) for _ in range(d)
            )
            targets.append(OpenBall(center, values["radius"]))
    else:
        targets = _unit_balls(d, n)
    # fd_overcomplete accepts a candidate only once its target ball contains it
    vectors = fd_overcomplete(d, n, targets=targets, seed=seed)
    certs = []
    for j, (v, ball) in enumerate(zip(vectors, targets)):
        certs.append(
            certificate(
                "ball-membership",
                "Inside",
                witness={"index": j, "center": ball.center, "radius": ball.radius},
                inputs={"vector": v, "center": ball.center, "radius": ball.radius},
            )
        )
    # fd_overcomplete returns only after deciding every d-subset nonsingular
    # at its last member, so its walk is the sweep and no subset can fail
    # (a sampled config still reports its sample count)
    checked = values["subset_samples"] or math.comb(n, d)
    certs.append(
        certificate(
            "subset-rank-sweep",
            "Full",
            witness={"subsets_checked": checked, "failures": []},
            inputs={"d": d, "n": n, "seed": seed},
        )
    )
    certs.append(_spot_density(vectors, d))
    constructed = {"vectors": vectors}
    return constructed, certs


def _run_separated(values, seed):
    d, eps, tag = values["d"], values["eps"], NormTag(values["tag"])
    # the family holds d*d exact coordinates
    _guard_products(values, (("d", "d"),))
    vectors, spot = separated_overcomplete_fd(d, eps, tag, seed=seed)
    n = len(vectors)
    # the builder decided each step's Riesz witness, which puts every pair
    # above 1 - eps (oclab.verify's check_separated measures the pairs)
    certs = [
        certificate(
            "separation",
            "Separated",
            witness={
                "pairs_checked": math.comb(n, 2),
                "lower_bound": 1 - eps,
                "greedy_selects_all": True,
            },
            inputs={"d": d, "eps": eps, "tag": tag.value},
        )
    ]
    certs.append(_spot_density(vectors, d, spot))
    constructed = {"vectors": vectors}
    return constructed, certs


def _make_annihilator(model, sequence, ks, seed):
    dim = sequence[0].dim
    rows = [sequence[k] for k in ks] + [model.y_truncation(dim)]
    rng = rng_for(seed, "annihilator")
    weights = [rng.randrange(1, 17) for _ in range(dim)]
    combo = null_vector(Matrix.from_rows(rows), weights)
    if combo is None:
        raise ConfigError(f"ks={_written(ks)!r}: no annihilator exists at this truncation; raise K")
    scale = dual_norm(combo, NormTag.L1)
    return exact_vector(c / scale for c in combo.coords)


def _run_incomplete(values, seed):
    model = IncompleteModel(values["c"], values["rho"])
    ks, tau = values["ks"], values["tau"]
    K = max([values["K"]] + ks)
    j_max, dim = values["j_max"], model.ambient_dim(K)
    if j_max >= dim:
        raise ConfigError(f"j_max={j_max} must be below the truncation dimension {dim} at K={K}")
    gaps, sequence = incomplete_space_sequence(model, K)
    certs = []
    for k, (lhs, rhs) in enumerate(gaps):
        certs.append(
            certificate(
                "approximation-bound",
                "Holds",
                witness={"k": k, "distance": lhs, "bound": rhs},
                inputs={"c": model.c, "rho": model.rho, "k": k},
            )
        )
    e_star = _make_annihilator(model, sequence, ks, seed)
    report = annihilator_decay_check(model, sequence, ks, [e_star], j_max, tau)
    certs.append(
        certificate(
            "annihilator-decay",
            "Verified",
            witness=report,
            inputs={"functional": e_star, "ks": ks, "j_max": j_max},
        )
    )
    constructed = {"vectors": sequence, "annihilator": e_star}
    return constructed, certs


def _run_geometric_variant(values, seed):
    model = IncompleteModel(values["c"], values["rho"])
    K = values["K"]
    if values["schedule"] == "harmonic":
        lambdas = [Fraction(1, n + 2) for n in range(K + 1)]
    else:
        lambdas = [Fraction(1, 2 ** (n + 1)) for n in range(K + 1)]
    schedule = GeometricSchedule(tuple(lambdas), values["j_max"], values["threshold"])
    onsets, sequence = geometric_variant_sequence(model, schedule, K)
    certs = [
        certificate(
            "schedule-rate",
            "Verified",
            witness={"onsets": onsets, "j_max": values["j_max"]},
            inputs={"lambdas": lambdas, "c": model.c, "rho": model.rho},
        )
    ]
    constructed = {"vectors": sequence}
    return constructed, certs


def block_family(L: int, m: int, left_mass: Fraction) -> list:
    """Unit-mass family sharing a left block, with disjoint tail blocks."""
    lead = 3 if left_mass > 0 else 0
    width = (L - lead) // m
    if width < 1:
        raise ConfigError(f"m={m}: cannot fit {m} disjoint blocks into [0, {L})")
    members = []
    left = [left_mass / lead] * lead if lead else []
    tail = [(1 - left_mass) / width] * width
    for j in range(m):
        coords = left + [Fraction(0)] * (L - lead)
        coords[lead + j * width:lead + (j + 1) * width] = tail
        members.append(exact_vector(coords))
    return members


def _guard_products(values, pairs):
    """Refuse a config where ``values[a] * values[b]`` exceeds the
    enumeration guard for some ``(a, b)`` in ``pairs``."""
    for a, b in pairs:
        product = values[a] * values[b]
        if product > _EXHAUSTIVE_GUARD:
            raise ConfigError(
                f"{a}={values[a]} times {b}={values[b]} is {product}, "
                f"above the limit of {_EXHAUSTIVE_GUARD}"
            )


def _run_sliding_hump(values, seed):
    L, m, eps = values["L"], values["m"], values["eps"]
    _guard_products(values, (("L", "m"), ("samples", "m")))
    left = values["left_mass"] if values["family"] == "blocks" else Fraction(0)
    if eps > (1 - left) / 4:
        raise ConfigError(
            f"eps={eps} must be at most (1-N)/4 = {(1 - left) / 4} for the left-mass floor N={left}"
        )
    family = block_family(L, m, left)
    data = sliding_hump_extract(family, eps)
    samples = coefficient_samples(len(data.extracted), values["samples"], seed)
    cert = l1_lower_bound_certificate(data, samples)
    certs = [
        certificate(
            "l1-lower-bound",
            "Certified",
            witness=cert,
            inputs={"members": data.members, "cuts": data.cuts, "eps": eps},
        )
    ]
    constructed = {
        "vectors": data.extracted,
        "n_table": data.n_table,
        "n_value": data.n_value,
        "alpha0": data.alpha0,
        "alpha0_rule": data.alpha0_rule,
        "members": data.members,
        "cuts": data.cuts,
    }
    return constructed, certs


def _free_map(n: int, kind: str, max_deg: int, seed: int) -> list:
    if kind == "chain":
        return [{i + 1} if i + 1 < n else {i} for i in range(n)]
    if kind == "self":
        return [{i} for i in range(n)]
    if kind == "full":
        return [set(range(n)) for _ in range(n)]
    rng = rng_for(seed, "free-set")
    return [{rng.randrange(n) for _ in range(max_deg)} for _ in range(n)]


def _run_free_set(values, seed):
    n = values["n"]
    # the family holds n*n exact entries, and a random map draws n*max_deg times
    pairs = (("n", "n"), ("n", "max_deg")) if values["f"] == "random" else (("n", "n"),)
    _guard_products(values, pairs)
    fmap = _free_map(n, values["f"], values["max_deg"], seed)
    H = free_set_extract(n, fmap)
    rng = rng_for(seed, "free-weights")
    family = []
    for a in range(n):
        coords = [Fraction(0)] * n
        for i in sorted(fmap[a]):
            coords[i] = Fraction(rng.randrange(1, 17))
        family.append(exact_vector(coords))
    certs = [
        certificate(
            "free-set",
            "Free",
            witness={"H": H, "n": n},
            inputs={"f": [sorted(s) for s in fmap]},
        )
    ]
    for gamma in H:
        record = support_annihilator_witness(family, H, gamma)
        certs.append(
            certificate(
                "support-witness",
                "Verified",
                witness=record,
                inputs={"gamma": gamma, "H": H},
            )
        )
    constructed = {"vectors": family, "H": H}
    return constructed, certs


def _run_cover(values, seed):
    if values["mode"] == "grid":
        h, count, d = values["h"], values["points"], values["d"]
        if h > d:
            raise ConfigError(f"grid mode needs h={h} to be at most d={d} coordinate hyperplanes")
        # the points hold points*d exact coordinates
        _guard_products(values, (("points", "d"),))
        points = []
        for t in range(count):
            coords = [Fraction(t + i + 1) for i in range(d)]
            coords[t % h] = Fraction(0)
            points.append(exact_vector(coords))
        planes = [HyperplaneFunctional(unit_vector(j, d)) for j in range(h)]
        majority = pigeonhole_majority(points, planes)
        certs = [
            certificate(
                "hyperplane-cover",
                majority.cover.verdict,
                witness={"assignment": majority.cover.assignment},
                inputs={"points": points, "h": h},
            ),
            certificate(
                "pigeonhole-majority",
                "Quota",
                witness={
                    "hyperplane": majority.hyperplane_index,
                    "members": majority.members,
                    "quota": majority.quota,
                },
                inputs={"points": points, "h": h},
            ),
        ]
    else:
        lambdas = values["lambdas"]
        points = list(_klee_vectors(lambdas, 3))
        if len(points) < 3:
            raise ConfigError(f"escape mode needs at least three lambdas, got lambdas={_written(lambdas)!r}")
        span_two = Matrix.from_rows(points[:2])
        witness_fn = null_vector(span_two, (1,))
        planes = [HyperplaneFunctional(witness_fn)]
        # any three moment-curve points are independent, so the third escapes
        cover = hyperplane_cover(points, planes)
        certs = [
            certificate(
                "hyperplane-cover",
                cover.verdict,
                witness={
                    "escape_index": cover.escape_index,
                    "pairings": cover.escape_pairings,
                },
                inputs={"points": points, "plane": witness_fn},
            )
        ]
    constructed = {"vectors": points}
    return constructed, certs


def _run_probe(values, seed):
    window, tau, K, gk = values["window"], values["tau"], values["K"], values["variant"] == "gk"
    model = IncompleteModel(values["c"], values["rho"])
    dim = model.ambient_dim(K) if gk else K + 1
    if window > dim:
        raise ConfigError(f"window={window} exceeds the dimension {dim} at K={K}")
    if gk:
        _, sequence = incomplete_space_sequence(model, K)
        limit = model.y_truncation(dim)
    else:
        sequence = [unit_vector(k, dim) for k in range(dim)]
        limit = zero_vector(dim)
    report = weak_norm_convergence_probe(sequence, limit, window, tau)
    certs = [
        certificate(
            "convergence-probe",
            report.classification,
            witness=report,
            inputs={"window": window, "tau": tau, "variant": values["variant"]},
        )
    ]
    constructed = {"vectors": sequence}
    return constructed, certs


_RUNNERS = {
    "klee": _run_klee,
    "fd-dense": _run_fd_dense,
    "separated": _run_separated,
    "incomplete": _run_incomplete,
    "geometric-variant": _run_geometric_variant,
    "sliding-hump": _run_sliding_hump,
    "free-set": _run_free_set,
    "cover": _run_cover,
    "probe": _run_probe,
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """One run's record; ``certificates`` holds each certificate's canonical
    text, written as the runner made it, which the report hashes and splices."""

    scenario: str
    params: dict
    seed: int
    toolkit_version: str
    constructed: dict
    certificates: tuple
    wall_time_s: float

    def _record(self) -> dict:
        """Everything but the wall time; the certificates as their texts."""
        return {
            "scenario": self.scenario,
            "params": self.params,
            "seed": self.seed,
            "toolkit_version": self.toolkit_version,
            "constructed": self.constructed,
            "certificates": self.certificates,
        }

    @cached_property
    def canonical_text(self) -> str:
        """The canonical JSON of the record, with each certificate spliced
        in from its text; written once per report."""
        return canonical_json_spliced(self._record(), "certificates", self.certificates)

    def canonical_bytes(self) -> bytes:
        return self.canonical_text.encode("utf-8")


def run_scenario(name: str, raw_config: dict, seed: Optional[int] = None, tol: Optional[float] = None) -> Report:
    """Load the config, with ``seed`` and ``tol`` taking the place of its
    ``seed`` and ``tau``, run the scenario and assemble the report.

    A toolkit error raised inside the runner is re-raised as the same
    type, its message prefixed with the scenario's name.
    """
    raw = dict(raw_config)
    if seed is not None:
        raw["seed"] = seed
    if tol is not None:
        if "tau" not in _specs(name):
            raise ConfigError(f"scenario {name!r} has no tolerance parameter")
        raw["tau"] = float(tol)
    params, values = load_config(name, raw)
    start = time.perf_counter()
    try:
        extras, certs = _RUNNERS[name](values, params["seed"])
    except OclabError as exc:
        raise type(exc)(f"scenario {name!r}: {exc}") from exc
    wall = time.perf_counter() - start
    constructed = {"kind": name, "params": params, "seed": params["seed"]}
    report = Report(
        scenario=name,
        params=params,
        seed=params["seed"],
        toolkit_version=__version__,
        constructed=constructed,
        certificates=tuple(certs),
        wall_time_s=wall,
    )
    constructed["certificate_refs"] = [digest_text(t) for t in report.certificates]
    constructed.update(extras)
    return report


def emit_report(report: Report, fmt: str = "json") -> str:
    """Render a report: canonical JSON plus wall time, or flat CSV."""
    if fmt == "json":
        # "wall_time_s" sorts after every record key, so it closes the text
        return report.canonical_text[:-1] + ',"wall_time_s":' + canonical_json(report.wall_time_s) + "}"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario", "subset", "verdict", "witness_digest"])
        for cert in map(json.loads, report.certificates):
            subset = ";".join(str(i) for i in cert.get("subset", ()))
            writer.writerow([report.scenario, subset, cert["verdict"], digest(cert["witness"])])
        return buf.getvalue()
    raise ConfigError(f"unknown report format {fmt!r}; valid formats: csv, json")
