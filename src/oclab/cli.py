"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 construction error (or any
other toolkit error), 4 certification failure, 5 I/O error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .errors import CertificationError, ConfigError, OclabError
from .harness import SCENARIO_NAMES, emit_report, parse_config, run_scenario


@click.command(name="oclab")
@click.argument("scenario", type=click.Choice(SCENARIO_NAMES))
@click.option("--config", "config_path", required=True, metavar="PATH", help="Config file: key = value lines or a JSON object.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_path", metavar="PATH", default=None, help="Write the report here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--tol", type=float, default=None, help="Override the scenario's tolerance parameter.")
def main(scenario, config_path, seed, out_path, fmt, tol):
    """Run one scenario and emit its certificate report."""
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        click.echo(f"error: cannot read config: {exc}", err=True)
        sys.exit(5)
    try:
        raw = parse_config(text)
        report = run_scenario(scenario, raw, seed=seed, tol=tol)
        payload = emit_report(report, fmt)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except CertificationError as exc:
        click.echo(f"certification failure: {exc}", err=True)
        sys.exit(4)
    except OclabError as exc:
        click.echo(f"construction error: {exc}", err=True)
        sys.exit(3)
    if not payload.endswith("\n"):
        payload += "\n"
    if out_path is None:
        click.echo(payload, nl=False)
    else:
        try:
            Path(out_path).write_text(payload, encoding="utf-8")
        except OSError as exc:
            click.echo(f"error: cannot write report: {exc}", err=True)
            sys.exit(5)


if __name__ == "__main__":
    main()
