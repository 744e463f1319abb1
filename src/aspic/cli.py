"""Command-line entry points: run, sweep, export.

Output directory resolution: --out flag, else the ASPIC_OUTDIR environment
variable, else ./aspic_results.  Exit code is 1 if any run failed, 2 if the
config or the sweep values are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .runner import (ExperimentConfig, RunError, RunResult, export,
                     run_aspic, sweep)


def _outdir(args) -> str:
    return args.out or os.environ.get("ASPIC_OUTDIR", "aspic_results")


def _export_result(result: RunResult, fmt: str, outdir: str) -> None:
    for path in export(result, fmt, outdir):
        print(path)


def cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    try:
        result = run_aspic(config)
    except RunError as exc:
        _export_result(exc.partial, args.format, _outdir(args))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _export_result(result, args.format, _outdir(args))
    return 0


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    values = raw.pop("sweep_values", None)
    if args.values:
        values = json.loads(args.values)
    if not values:
        print("error: no sweep values (--values or 'sweep_values' in config)",
              file=sys.stderr)
        return 2
    if args.axis == "grid":
        values = [tuple(v) for v in values]
    cells = sweep(ExperimentConfig.from_dict(raw), args.axis, values)
    failed = False
    base = _outdir(args)
    for label, cell in cells.items():
        if isinstance(cell, Exception):
            print(f"cell {label} failed: {cell}", file=sys.stderr)
            failed = True
            if isinstance(cell, RunError) and cell.partial.records:
                _export_result(cell.partial, args.format,
                               os.path.join(base, label))
        else:
            _export_result(cell, args.format, os.path.join(base, label))
    return 1 if failed else 0


def cmd_export(args) -> int:
    # Re-print a summary written by a previous run, its config validated.
    with open(args.summary) as fh:
        payload = json.load(fh)
    config = ExperimentConfig.from_dict(payload["config"])
    print(json.dumps({"config_hash": payload["config_hash"],
                      "final_costs": payload["final_costs"],
                      "config": config.to_dict()}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspic",
        description="Adaptively smoothed trust-region policy optimization "
                    "for path-integral control benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=["csv", "json", "both"],
                       default="both")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one axis of a config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", choices=["delta", "n", "grid"],
                         required=True)
    p_sweep.add_argument("--values", default=None,
                         help="JSON list of cell values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=["csv", "json", "both"],
                         default="both")
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser("export", help="re-print a saved summary as JSON")
    p_exp.add_argument("summary")
    p_exp.add_argument("--format", choices=["json"], default="json")
    p_exp.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # an invalid config or values list
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
