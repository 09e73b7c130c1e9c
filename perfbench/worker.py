"""One benchmark worker: runs a workload's passes in a fresh process.

Run by ``run.py``; prints one JSON object as its last line of output.
Each item goes config text -> parse_config -> run_scenario -> emit_report
and is timed together with the SHA-256 of ``canonical_bytes()``.  A fixed
reference loop is timed before and after each item's runs, so that an item's
time can be read against the machine's speed at that moment.  A first,
untimed pass also re-checks every report; timed passes then repeat until
``--seconds`` have gone by and at least ``MIN_PASSES`` have run.  With
``--trace 1`` one more pass runs with the tracer installed, and its spans
are written to ``traces/<workload>-seed<seed>.json`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, bindings  # noqa: E402
from workloads import DEFAULT_SEED, REPEATS, WORKLOADS, recorded_digests  # noqa: E402

MIN_PASSES = 5


# A fixed 14 x 14 rational matrix for the reference loop's elimination.
_REF_RNG = random.Random(14)
REF_MATRIX = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9)) for _ in range(14)]
              for _ in range(14)]


def reference_loop() -> str:
    """Fixed pure-Python work, 15 to 30 ms on a 2-core Xeon VM.

    Its mix follows the program's: about two thirds exact Gauss-Jordan
    elimination over ``Fraction`` (the kernels of sweep and bitgrowth), the
    rest rational sums, dict and str building, canonical JSON and SHA-256
    (the reports of certificates and small-configs).  It touches no oclab
    code, so no change to the program changes its cost.
    """
    rows = [row[:] for row in REF_MATRIX]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    total = sum(Fraction(1, i) for i in range(1, 400))
    table = {str(i): [i, i * i, str(total.denominator % (i + 7)), str(rows[i % 14][i % 14])]
             for i in range(1500)}
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode("utf-8")).hexdigest()


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def import_oclab():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    import oclab.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    import oclab.harness

    src = (ROOT / "src").resolve()
    if Path(oclab.__file__).resolve().parent.parent != src:
        raise ImportError(f"oclab was imported from {oclab.__file__}, not from {src}")
    return oclab.harness


def run_item(harness, scenario: str, text: str, seed: int):
    """Config text to report bytes, as ``oclab SCENARIO`` does it."""
    report = harness.run_scenario(scenario, harness.parse_config(text), seed=seed)
    payload = harness.emit_report(report)
    canonical = report.canonical_bytes()
    return payload, canonical, hashlib.sha256(canonical).hexdigest()


def check_report(payload: str, canonical: bytes, scenario: str, seed: int) -> list:
    """Re-check an emitted report with the standard library alone.

    The JSON report minus its wall time must re-serialize to the canonical
    bytes, and every ``certificate_refs`` entry must be the SHA-256 of the
    canonical JSON of the certificate it points at.
    """
    problems = []
    record = json.loads(payload)
    record.pop("wall_time_s", None)
    if json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8") != canonical:
        problems.append("emitted JSON differs from canonical_bytes()")
    if record.get("scenario") != scenario or record.get("seed") != seed:
        problems.append("report names the wrong scenario or seed")
    certs = record.get("certificates", [])
    refs = record.get("constructed", {}).get("certificate_refs", [])
    recomputed = [
        hashlib.sha256(json.dumps(c, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()
        for c in certs
    ]
    if not certs or refs != recomputed:
        problems.append("certificate_refs do not match the certificates")
    return problems


def run_pass(harness, items, seed: int, reference: dict, repeats: int = 1, tracer=None,
             check: bool = False) -> dict:
    """One pass over ``items``; an item that raises is recorded and skipped.

    Every run's digest is compared with ``reference[label]``; a label not yet
    in ``reference`` takes the digest of its first run.  Each run that raises
    or whose digest differs counts once in ``errors`` or ``mismatches``.
    ``ref[label]`` is the mean time of the reference loops run just before and
    just after the item's runs.
    """
    times, ref, digests, errors, problems = {}, {}, {}, [], []
    mismatches = 0
    before = time_reference()
    for index, (label, scenario, text) in enumerate(items):
        times[label] = 0.0
        for repeat in range(repeats):
            if tracer is not None:
                tracer.item = index
            start = time.perf_counter()
            try:
                payload, canonical, digest = run_item(harness, scenario, text, seed)
            except Exception as exc:  # the pass goes on; the run is counted as failed
                errors.append([label, type(exc).__name__, str(exc)[:200]])
                continue
            times[label] += time.perf_counter() - start
            digests.setdefault(label, digest)
            wanted = reference.setdefault(label, digest)
            if digest != wanted:
                mismatches += 1
                problems.append(f"{label}: digest {digest} differs from {wanted}")
            if check and repeat == 0:
                problems.extend(f"{label}: {p}" for p in check_report(payload, canonical, scenario, seed))
        after = time_reference()
        ref[label] = (before + after) / 2
        before = after
    return {"times": times, "ref": ref, "digests": digests, "errors": errors, "mismatches": mismatches,
            "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness = import_oclab()
    import numpy

    items = WORKLOADS[args.workload]
    repeats = REPEATS.get(args.workload, 1)
    recorded = args.seed == DEFAULT_SEED
    reference = {label: recorded_digests()[label] for label, _, _ in items} if recorded else {}
    first = run_pass(harness, items, args.seed, reference, repeats, check=True)
    passes = []
    began = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - began < args.seconds:
        passes.append(run_pass(harness, items, args.seed, reference, repeats))
    out = {
        "first": first,
        "passes": passes,
        "reference": reference,
        "recorded": recorded,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "repeats": repeats,
    }
    if args.trace:
        before = bindings()
        tracer = Tracer()
        with tracer:
            out["traced"] = run_pass(harness, items, args.seed, reference, repeats, tracer=tracer)
        out["trace"] = tracer.summary()
        out["trace"]["restored"] = bindings() == before
        (HERE / "traces").mkdir(exist_ok=True)
        tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.json",
                     [label for label, _, _ in items])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
