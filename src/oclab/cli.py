"""Command-line entry point.

Exit codes: 0 success, 2 config error (a usage error too), 3
construction error (or any other toolkit error), 4 certification
failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CertificationError, ConfigError, OclabError
from .harness import SCENARIO_NAMES, emit_report, parse_config, run_scenario


def main(argv=None) -> int:
    """Run one scenario and emit its certificate report; return the exit code.

    A usage error exits 2 from inside argument parsing.
    """
    parser = argparse.ArgumentParser(prog="oclab", description="Run one scenario and emit its certificate report.")
    parser.add_argument("scenario", choices=SCENARIO_NAMES)
    parser.add_argument("--config", dest="config_path", required=True, metavar="PATH", help="Config file: key = value lines or a JSON object.")
    parser.add_argument("--seed", type=int, metavar="INTEGER", help="Override the config seed.")
    parser.add_argument("--out", dest="out_path", metavar="PATH", help="Write the report here instead of stdout.")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json", help="Report format (default: %(default)s).")
    parser.add_argument("--tol", type=float, metavar="FLOAT", help="Override the scenario's tolerance parameter.")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config_path).read_text(encoding="utf-8")
    except OSError as exc:
        return _fail(f"error: cannot read config: {exc}", 5)
    except UnicodeDecodeError as exc:
        return _fail(f"config error: cannot read {args.config_path} as UTF-8 text: {exc}", 2)
    try:
        raw = parse_config(text)
        report = run_scenario(args.scenario, raw, seed=args.seed, tol=args.tol)
        payload = emit_report(report, args.fmt)
    except ConfigError as exc:
        return _fail(f"config error: {exc}", 2)
    except CertificationError as exc:
        return _fail(f"certification failure: {exc}", 4)
    except OclabError as exc:
        return _fail(f"construction error: {exc}", 3)
    except ValueError as exc:
        # an exact integer outgrew the interpreter's decimal-conversion limit
        if "integer string conversion" not in str(exc):
            raise
        return _fail(
            f"construction error: scenario {args.scenario!r}: an exact number exceeds the "
            f"limit of {sys.get_int_max_str_digits()} digits for integer string conversion",
            3,
        )
    if not payload.endswith("\n"):
        payload += "\n"
    if args.out_path is None:
        sys.stdout.write(payload)
        return 0
    try:
        Path(args.out_path).write_text(payload, encoding="utf-8")
    except OSError as exc:
        return _fail(f"error: cannot write report: {exc}", 5)
    return 0


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
