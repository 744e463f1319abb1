"""Workload definitions, output checks and statistics for the aspic benchmark.

The benchmark drives aspic only through its public API (``ExperimentConfig``,
``run_aspic``, ``sweep``, ``make_env``).  It imports the package from the
``src/`` directory of the checkout it lives in, never from anywhere else, so a
copy of the benchmark without the program fails instead of measuring some
other installation.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "aspic" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no aspic sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import aspic  # noqa: E402
import aspic.runner  # noqa: E402

if Path(aspic.__file__).resolve().parent != SRC / "aspic":
    raise SystemExit(f"benchmark: imported aspic from {aspic.__file__}, "
                     f"expected {SRC / 'aspic'}")

# Ladder of tail percentiles; a workload reports the highest one that keeps
# at least TAIL_BEYOND of its minimum iteration count above it.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
KL_REL_TOL = 0.1          # |achieved_kl - epsilon| <= 0.1 * epsilon


@dataclass(frozen=True)
class Workload:
    """One benchmark input family; ``config`` is ExperimentConfig kwargs.

    A unit is one call into the public API: ``run_aspic`` on the config, or
    ``sweep`` over ``sweep_deltas`` when that is set.  A measurement runs at
    least ``min_iterations`` iterations and reports the tail percentile
    those allow.  ``prefix_iterations`` caps the untraced reference run of a
    traced measurement.
    """

    name: str
    config: dict
    min_iterations: int
    prefix_iterations: int
    sweep_deltas: tuple | None = None

    @property
    def threshold(self) -> float | None:
        return self.config.get("cost_threshold")


# Why each workload was chosen: bench/README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="lq_sweep_n100",
        config=dict(env="lq_viapoints", n_rollouts=100, iterations=2000,
                    epsilon=0.1, gamma=1.0, delta={"lognfrac": 0.2},
                    estimator="smoothed",
                    solver={"kind": "per_timestep_pinv", "rcond": 1e-4},
                    policy="linear", cost_threshold=2e4),
        sweep_deltas=(0, {"lognfrac": 0.2}),
        min_iterations=1000, prefix_iterations=150),
    Workload(
        name="pendulum_mlp_cg_n50",
        config=dict(env="pendulum", n_rollouts=50, iterations=10,
                    epsilon=0.1, gamma=1.0, delta={"absolute": 0.5},
                    estimator="smoothed", solver={"kind": "cg", "iters": 10},
                    policy="mlp"),
        min_iterations=40, prefix_iterations=10),
)}


def unit_seed(seed: int, unit: int) -> int:
    """Master seed of unit ``unit`` of a measurement started with ``seed``."""
    return 1000 * seed + unit


def unit_config(workload: Workload, seed: int, unit: int,
                iterations: int | None = None) -> "aspic.ExperimentConfig":
    cfg = dict(workload.config, seed=unit_seed(seed, unit), repeats=1)
    if iterations is not None:
        cfg["iterations"] = iterations
    return aspic.ExperimentConfig(**cfg)


@dataclass
class RunOutcome:
    """Records of one repeat, and the exception that ended it, if any."""

    label: str
    records: list
    error: str | None = None


@dataclass
class UnitOutcome:
    wall_s: float
    runs: list = field(default_factory=list)


def run_unit(workload: Workload, config) -> UnitOutcome:
    """One timed call into the public API.

    Names are looked up on ``aspic.runner`` at call time, so a traced
    measurement sees the wrapped functions and an untraced one the originals.
    """
    runner = aspic.runner
    t0 = time.perf_counter()
    if workload.sweep_deltas is not None:
        cells = runner.sweep(config, "delta", list(workload.sweep_deltas))
    else:
        try:
            cells = {"run": runner.run_aspic(config)}
        except runner.RunError as exc:
            cells = {"run": exc}
    wall = time.perf_counter() - t0
    out = UnitOutcome(wall_s=wall)
    for label, cell in cells.items():
        if isinstance(cell, runner.RunError):
            partial = cell.partial.records
            out.runs.extend(RunOutcome(label, recs) for recs in partial)
            out.runs.append(RunOutcome(label, [], error=repr(cell.cause)))
        elif isinstance(cell, Exception):
            out.runs.append(RunOutcome(label, [], error=repr(cell)))
        else:
            out.runs.extend(RunOutcome(label, recs) for recs in cell.records)
    return out


# ---------------------------------------------------------------------------
# Output checks and digest
# ---------------------------------------------------------------------------

_NUMERIC = ("mean_cost", "std_cost", "alpha", "kl_est", "eta",
            "achieved_kl", "wall_ms")


def record_problems(record, epsilon: float) -> list:
    """Reasons one IterationRecord fails the output checks (empty if none)."""
    problems = []
    for name in _NUMERIC:
        value = getattr(record, name)
        if value is not None and not math.isfinite(value):
            problems.append(f"{name} is not finite")
    eta, kl = record.eta, record.achieved_kl
    if (math.isfinite(eta) and eta > 0 and math.isfinite(kl)
            and abs(kl - epsilon) > KL_REL_TOL * epsilon):
        problems.append(f"achieved_kl {kl!r} outside the band around "
                        f"epsilon {epsilon!r}")
    return problems


def check_runs(runs, epsilon: float, threshold: float | None):
    """Count (attempted, failed, problems) iterations over a list of runs.

    An iteration fails when its record is non-finite or misses the KL band.
    A run that ended in an exception adds one attempted, failed iteration.
    With a threshold, a run whose last record is above it fails that record.
    """
    attempted = failed = 0
    problems = []
    for run in runs:
        for i, rec in enumerate(run.records):
            bad = record_problems(rec, epsilon)
            if (threshold is not None and run.error is None
                    and i == len(run.records) - 1
                    and not rec.mean_cost <= threshold):
                bad.append(f"run ended at mean cost {rec.mean_cost!r} "
                           f"above the threshold {threshold!r}")
            attempted += 1
            if bad:
                failed += 1
                problems.extend(f"{run.label} run {rec.run} iteration "
                                f"{rec.iteration}: {p}" for p in bad)
        if run.error is not None:
            attempted += 1
            failed += 1
            problems.append(f"{run.label}: {run.error}")
    return attempted, failed, problems


def digest(runs, max_iterations: int | None = None) -> str:
    """sha256 of the record stream without ``wall_ms``.

    ``max_iterations`` keeps only each run's first iterations, so a capped
    run can be compared with the start of a full one.
    """
    h = hashlib.sha256()
    names = [f.name for f in fields(aspic.IterationRecord)
             if f.name != "wall_ms"]
    for run in runs:
        h.update(run.label.encode())
        for rec in run.records[:max_iterations]:
            h.update(repr(tuple(getattr(rec, n) for n in names)).encode())
        if run.error is not None and max_iterations is None:
            h.update(run.error.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100 - pct) >= 100 * TAIL_BEYOND:
            best = pct
    return best


# ---------------------------------------------------------------------------
# Machine fingerprint
# ---------------------------------------------------------------------------

def _blas() -> tuple[str, int | str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown", "unknown"
    name = blas.get("name", "unknown")
    # Wheels bundle the library next to the package; source builds link
    # the one in the configured lib directory.
    dirs = [Path(np.__file__).parent.parent / "numpy.libs",
            Path(blas.get("lib directory") or "/nonexistent")]
    import ctypes
    for lib_dir in dirs:
        for lib in sorted(lib_dir.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return name, int(fn())
    return name, "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    blas, threads = _blas()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "machine": platform.machine(), "commit": _git_commit()}
