"""Workload definitions: named lists of (label, scenario, config text).

Every item goes through the same path as ``oclab SCENARIO --config``:
config text, ``parse_config``, ``run_scenario`` and ``emit_report``.
The seed is not part of the config text; the benchmark hands it to
``run_scenario(seed=...)``.
"""

import json
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 2026
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _nodes(count: int) -> str:
    return ",".join(str(Fraction(i + 1, 81)) for i in range(count))


def _item(label, scenario, **params):
    text = "".join(f"{key} = {value}\n" for key, value in params.items())
    return (label, scenario, text)


# The sizes keep one pass near 2 s on a 2-core Xeon VM, so that a
# 20-second run times several passes.
WORKLOADS = {
    # Small-integer elimination: the d-subset rank sweep and the
    # span-avoidance test inside fd_overcomplete.  Five items of 0.2 to
    # 0.5 s rather than two long ones, so that the reference loops timed
    # around each item follow the machine's speed closely.
    "sweep": [
        _item("fd-dense-d4-n26", "fd-dense", d=4, n=26),
        _item("fd-dense-d4-n28", "fd-dense", d=4, n=28),
        _item("fd-dense-d5-n18", "fd-dense", d=5, n=18),
        _item("fd-dense-d5-n20", "fd-dense", d=5, n=20),
        _item("fd-dense-d5-n21", "fd-dense", d=5, n=21),
    ],
    # Large-rational elimination: Fraction Gauss-Jordan on an incomplete-space
    # matrix, chained Vector construction and L2 Riesz steps.
    "bitgrowth": [
        _item("incomplete-K28", "incomplete", K=28, ks=",".join(str(k) for k in range(6, 29)), j_max=5),
        _item("probe-K24", "probe", K=24, window=8),
        _item("geometric-variant-K20", "geometric-variant", K=20, j_max=5),
        _item("separated-L2-d11", "separated", d=11, tag="L2"),
    ],
    # Many small certificates: tiny eliminations, heavy serialization.
    "certificates": [
        _item("klee-d3-exhaustive", "klee", lambdas=_nodes(24), d=3),
        _item("klee-d8-sampled", "klee", lambdas=_nodes(40), d=8, subset_samples=150),
        _item("sliding-hump-L200", "sliding-hump", L=200, m=15, samples=3000),
    ],
    # Cheap scenarios where config loading is a large share of the run.
    "small-configs": [
        _item("separated-d6", "separated", d=6),
        _item("geometric-variant-default", "geometric-variant"),
        _item("free-set-n12", "free-set", n=12, f="random"),
        _item("cover-grid", "cover", mode="grid"),
        _item("cover-escape", "cover", mode="escape"),
    ],
}

# Runs of each item per pass.  One pass of small-configs is otherwise a few
# tens of milliseconds, too short to time steadily.
REPEATS = {"small-configs": 40}

# The separated L2 family at d=12 raises ValueError inside serialize.digest
# (a Bareiss pivot beyond int-to-str's 4300-digit limit).  It is kept out of
# the timed workloads, which must run without failures, and is exercised by
# the failure-accounting self-test instead.
KNOWN_FAILURE = _item("separated-L2-d12", "separated", d=12, tag="L2")


def recorded_digests() -> dict:
    """SHA-256 of every item's canonical bytes at ``DEFAULT_SEED``, by label."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]
