"""oclab benchmark: end-to-end and per-layer timings of config-to-report runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 2026 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, traced

Each run starts fresh processes one at a time: a few that only import
``oclab`` (``setup_s``), then one worker that runs the workload's items in a
closed loop with one caller, as ``oclab SCENARIO`` is used.  ``--trace 1``
adds one traced pass in the same worker and prints the per-layer table.
The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or its
per-layer metrics with ``--trace 1``).  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# A run may take its measured seconds three times over (the first, checked
# pass, the overshoot of the last timed pass, the traced pass) plus this.
RUN_MARGIN_S = 120.0
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import oclab.cli\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _run(cmd, deadline: float, env=None) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget used up before " + " ".join(cmd[:3]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{' '.join(cmd[:3])} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(deadline: float) -> list:
    """Import time of ``oclab`` (with click, jsonschema, numpy) in fresh processes."""
    return [float(_run([sys.executable, "-c", SETUP_PROBE], deadline).strip().splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def per_layer_values(trace: dict, traced: dict, untraced_pass_s: float) -> dict:
    """Every per-layer value the traced pass yields, by metric name."""
    traced_pass_s = sum(traced["times"].values())
    values = {}
    for name, rec in trace["functions"].items():
        values[f"{name}.s"] = rec["s"]
        values[f"{name}.calls"] = rec["calls"]
    for layer in LAYERS:
        values[f"{layer}.s"] = trace["layers"][layer]
    counts = trace["counts"]
    for key in ("certify.all_subsets_full_rank.subsets", "linalg.nullspace_exact.max_bits",
                "linalg.rank_exact.max_pivot_bits", "serialize.report_bytes"):
        values[key] = counts.get(key, 0)
    attempts = counts.get("linalg.scaled_int_coords@constructors", 0)
    accepted = counts.get("constructors.fd_overcomplete.accepted", 0)
    values["constructors.fd_overcomplete.accept_ratio"] = accepted / attempts if attempts else 0.0
    values["trace.pass_s"] = traced_pass_s
    values["trace.overhead_s"] = traced_pass_s - untraced_pass_s
    values["trace.residual_s"] = traced_pass_s - sum(values[f"{layer}.s"] for layer in LAYERS)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, out=print) -> dict:
    """One benchmark run of one workload; returns the result object."""
    deadline = time.monotonic() + 3 * seconds + RUN_MARGIN_S
    if not (ROOT / "src" / "oclab" / "__init__.py").is_file():
        raise BenchError(f"no oclab sources under {ROOT / 'src'}")
    setup = setup_seconds(deadline)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    # A fixed str hash seed gives every worker the same dict and set layouts.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    result = json.loads(_run(cmd, deadline, env).strip().splitlines()[-1])

    items = WORKLOADS[name]
    passes = result["passes"]
    repeats = result["repeats"]
    runs = [result["first"]] + passes + ([result["traced"]] if trace else [])
    attempted = len(runs) * len(items) * repeats
    failed = sum(len(p["errors"]) + p["mismatches"] for p in runs)
    out(f"# workload {name}: seed {seed}, 1 checked pass, then {len(passes)} timed passes "
        f"of {len(items)} items x {repeats} runs, closed loop, one caller")
    out(f"# python {result['python']}, numpy {result['numpy']}, nproc {os.cpu_count()}, cpu {cpu_model()}")
    problems = [x for p in runs for x in p["problems"]]
    problems += [f"{label}: raised {etype}: {msg}" for p in runs for label, etype, msg in p["errors"]]
    reference = result["reference"]
    for label, _, _ in items:
        digest = result["first"]["digests"].get(label)
        if digest is None:
            status = "raised"
        elif result["recorded"]:
            status = "matches recorded" if digest == reference[label] else "DIFFERS from recorded"
        else:
            status = "not recorded for this seed"
        out(f"digest {label} {digest} ({status})")

    pass_times = [sum(p["times"].values()) for p in passes]
    pass_refs = [sum(p["times"][lb] / p["ref"][lb] for lb in p["times"]) for p in passes]
    pass_s = statistics.median(pass_times)
    e2e = {
        "pass_ref": statistics.median(pass_refs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "pass_s": pass_s,
        "reference_loop_s": statistics.median(r for p in passes for r in p["ref"].values()),
    }
    by_scenario = {}
    for label, scenario, _ in items:
        by_scenario.setdefault(scenario, []).append(label)
    for scenario, labels in by_scenario.items():
        e2e[f"{scenario}_ref"] = statistics.median(sum(p["times"][lb] / p["ref"][lb] for lb in labels)
                                                   for p in passes)
        e2e[f"{scenario}_s"] = statistics.median(sum(p["times"][lb] for lb in labels) for p in passes)
    e2e["failed_ratio"] = failed / attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for metric, value in e2e.items():
        unit = units.get(metric, "s" if metric.endswith("_s") else "ref" if metric.endswith("_ref") else "ratio")
        out(f"{metric:<24} {value:12.6f} {unit}")
    out(f"# per timed pass, seconds: {', '.join(f'{t:.4f}' for t in pass_times)}; "
        f"in ref units: {', '.join(f'{t:.2f}' for t in pass_refs)}; "
        f"per set-up process, seconds: {', '.join(f'{t:.4f}' for t in setup)}")

    if trace:
        values = per_layer_values(result["trace"], result["traced"], pass_s)
        traced_s = values["trace.pass_s"]
        share = 1 / traced_s if traced_s else 0.0
        if not result["trace"]["restored"]:
            problems.append("tracer left a patched name behind")
        out(f"# traced pass {traced_s:.4f} s, untraced median {pass_s:.4f} s, "
            f"tracing overhead {values['trace.overhead_s']:+.4f} s")
        out(f"{'self seconds per layer':<44} {'self_s':>10} {'share':>7}")
        for layer in LAYERS:
            out(f"{layer:<44} {values[layer + '.s']:10.4f} {values[layer + '.s'] * share:7.1%}")
        out(f"{'(residual: benchmark loop, sha256)':<44} {values['trace.residual_s']:10.4f} "
            f"{values['trace.residual_s'] * share:7.1%}")
        out(f"{'function':<44} {'self_s':>10} {'calls':>9}")
        functions = result["trace"]["functions"]
        for fname, rec in sorted(functions.items(), key=lambda kv: -kv[1]["s"]):
            if rec["calls"]:
                out(f"{fname:<44} {values[fname + '.s']:10.4f} {rec['calls']:9d}")
        layer_spec = spec["per_layer"]
        missing = [m["name"] for m in layer_spec if m["name"] not in values]
        if missing:
            raise BenchError(f"per-layer metrics not produced: {', '.join(missing)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in layer_spec}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    for problem in problems:
        out(f"# problem: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics,
            "end_to_end": {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}}


def _stop(signum, frame):
    # Raising here makes subprocess.run kill and reap the running child.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of untraced passes (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
            del result["end_to_end"]
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in WORKLOADS:
                one = run_workload(name, args.seed, seconds, True, spec)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for key, value in {**one["end_to_end"], **one["metrics"]}.items():
                    result["metrics"][f"{name}.{key}"] = value
                print()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
