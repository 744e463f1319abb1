"""Command-line entry points: run, sweep, export.

Output directory resolution: --out flag, else the ASPIC_OUTDIR environment
variable when it is not empty, else ./aspic_results; it is created before any
run starts.  Exit 1 if any run failed; exit 2 if an input cannot be read, the
config or sweep values are invalid (two values with one cell label
included), or the output directory cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .runner import (ExperimentConfig, RunError, export, run_aspic, sweep,
                     sweep_cells)


def _read_json(path):
    """The JSON in ``path``; a ``ValueError`` if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}")


def _outdir(args) -> str:
    """The output directory, created; a ``ValueError`` naming it if it
    cannot be."""
    out = args.out or os.environ.get("ASPIC_OUTDIR") or "aspic_results"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}")
    return out


def _write(cells: dict, base: str) -> int:
    """Export each cell under ``base/<label>``: its result, or the partial
    result of a failed run with its error (a cell that could not be built
    writes nothing).
    Returns 1 if any cell failed, else 0."""
    failed = False
    for label, cell in cells.items():
        error = None
        if isinstance(cell, Exception):
            failed = True
            what = f"cell {label} failed" if label else "error"
            print(f"{what}: {cell}", file=sys.stderr)
            if not isinstance(cell, RunError):
                continue
            error, cell = str(cell), cell.partial
        for path in export(cell, os.path.join(base, label), error):
            print(path)
    return 1 if failed else 0


def cmd_run(args) -> int:
    config = ExperimentConfig.from_dict(_read_json(args.config))
    out = _outdir(args)
    try:
        result = run_aspic(config)
    except RunError as exc:
        result = exc
    return _write({"": result}, out)


def cmd_sweep(args) -> int:
    config = ExperimentConfig.from_dict(_read_json(args.config))
    values = json.loads(args.values or "[]")
    if not isinstance(values, list) or not values:
        raise ValueError("sweep values must be a non-empty JSON list, "
                         f"got {values!r}")
    sweep_cells(config, args.axis, values)  # invalid labels exit 2 here
    out = _outdir(args)
    return _write(sweep(config, args.axis, values), out)


def cmd_export(args) -> int:
    # Re-print a summary written by a previous run, its config validated.
    payload = _read_json(args.summary)
    if not isinstance(payload, dict):
        raise ValueError(f"summary must be a JSON object, got {payload!r}")
    missing = sorted({"config", "config_hash", "final_costs"} - set(payload))
    if missing:
        raise ValueError(f"summary is missing keys {missing}")
    payload["config"] = ExperimentConfig.from_dict(payload["config"]).to_dict()
    # An older summary lacks these two keys; they export as null.
    payload.setdefault("error", None)
    payload.setdefault("iterations_to_threshold", None)
    print(json.dumps(payload, indent=2))
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
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one axis of a config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", choices=["delta", "n", "grid"],
                         required=True)
    p_sweep.add_argument("--values", default=None,
                         help="JSON list of cell values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser("export", help="re-print a saved summary as JSON")
    p_exp.add_argument("summary")
    p_exp.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # unreadable or invalid input, bad outdir
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
