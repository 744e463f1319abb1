"""Experiment loop, sweeps, and result export.

One iteration: sample a batch under the current policy, pick the smoothing
level by the weight-entropy constraint (smoothed estimator only), form the
whitened ascent direction, and take a trust-region natural-gradient step.
Seeding is a splittable chain master seed -> repeat -> iteration (one noise
generator per batch), so the record stream is a pure function of the config.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields

import numpy as np

from ._numbers import number
from .environments import make_env, sample_batch
from .gradients import direct_gradient, pice_gradient, smoothed_gradient
from .natural_gradient import solver_options, trust_region_step
from .policies import MlpPolicy, TimeVaryingLinearPolicy
from .smoothing import find_alpha

__all__ = ["ExperimentConfig", "IterationRecord", "RunResult", "RunError",
           "run_aspic", "sweep", "sweep_cells", "export", "resolve_delta",
           "config_hash"]

# Top-level numbers: key -> (type, least value, None allowed).
_NUMBERS = {"n_rollouts": (int, 2, False), "iterations": (int, 1, False),
            "repeats": (int, 1, False), "seed": (int, 0, False),
            "epsilon": (float, None, False), "gamma": (float, 0, False),
            "cost_threshold": (float, None, True),
            "rollout_budget": (int, 1, True)}


@dataclass
class ExperimentConfig:
    env: str
    n_rollouts: int
    iterations: int
    epsilon: float
    gamma: float
    delta: dict | float | None = None  # {"absolute": v} | {"lognfrac": c}
    estimator: str = "smoothed"        # smoothed | direct | pice
    solver: dict = field(default_factory=lambda: {"kind": "cg", "iters": 10})
    policy: str = "linear"             # linear | mlp
    env_overrides: dict = field(default_factory=dict)
    seed: int = 0
    repeats: int = 1
    cost_threshold: float | None = None  # optional early stop
    rollout_budget: int | None = None    # used by the N-axis sweep

    def __post_init__(self):
        for key, (typ, least, optional) in _NUMBERS.items():
            value = getattr(self, key)
            if not (optional and value is None):
                setattr(self, key, number(key, value, typ, least))
        if not isinstance(self.solver, dict):
            raise ValueError(f"solver must be a dict, got {self.solver!r}")
        options = dict(self.solver)
        kind = options.pop("kind", "cg")
        self.solver = {**self.solver,
                       **solver_options(kind, options, "solver.")}
        for key, value, allowed in (
                ("policy", self.policy, ("linear", "mlp")),
                ("estimator", self.estimator, ("smoothed", "direct", "pice"))):
            if not isinstance(value, str) or value not in allowed:
                raise ValueError(f"unknown {key} {value!r}; "
                                 f"choose from {sorted(allowed)}")
        make_env(self.env)  # an unknown name is its own ValueError
        try:
            make_env(self.env, self.env_overrides)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid env_overrides "
                             f"{self.env_overrides!r}: {exc}") from exc
        for key, ok, rule in (
                ("epsilon", self.epsilon > 0, "> 0"),
                ("gamma", self.gamma > 0 or self.estimator != "pice",
                 "> 0 for the pice estimator")):
            if not ok:
                raise ValueError(f"{key} must be {rule}")
        if self.policy == "mlp" and kind == "per_timestep_pinv":
            raise ValueError("policy 'mlp' cannot use solver kind "
                             "'per_timestep_pinv'")
        delta = resolve_delta(self.delta, self.n_rollouts)  # checks its type
        if self.estimator == "smoothed" and delta <= 0:
            raise ValueError("the smoothed estimator needs delta > 0")
        if self.estimator != "smoothed" and self.delta is not None:
            raise ValueError(f"delta is for the smoothed estimator only, "
                             f"got {self.delta!r} with {self.estimator}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from a dict; an unknown or a missing key is a ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        known = {f.name: f for f in fields(cls)}
        missing = [name for name, f in known.items() if name not in d
                   and f.default is MISSING and f.default_factory is MISSING]
        for what, keys in (("unknown", sorted(set(d) - set(known))),
                           ("missing", missing)):
            if keys:
                raise ValueError(f"{what} config keys {keys}")
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)

    def replace(self, **kwargs) -> "ExperimentConfig":
        d = self.to_dict()
        d.update(kwargs)
        return ExperimentConfig.from_dict(d)


def resolve_delta(delta, n: int) -> float:
    """Accepts an absolute value or a multiple of log N; a ValueError naming
    delta for any other value."""
    if delta is None:
        return 0.0
    if isinstance(delta, dict):
        if len(delta) != 1 or delta.keys() - {"absolute", "lognfrac"}:
            raise ValueError("delta dict needs one key, 'absolute' or "
                             f"'lognfrac', got {delta!r}")
        if "absolute" in delta:
            return number("delta", delta["absolute"])
        frac = number("delta", delta["lognfrac"])
        return number("delta (lognfrac*log N)", frac * math.log(n))
    return number("delta", delta)


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True, slots=True)  # no per-record dict: runs keep many
class IterationRecord:
    run: int
    iteration: int
    mean_cost: float
    std_cost: float
    alpha: float | None
    kl_est: float | None
    eta: float
    achieved_kl: float
    wall_ms: float
    seed: int


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list  # list per repeat of list[IterationRecord]

    def final_costs(self) -> list[float]:
        return [run[-1].mean_cost for run in self.records]

    def iterations_to_threshold(self, threshold: float) -> list:
        """First 1-based iteration whose mean cost reaches the threshold."""
        return [next((r.iteration + 1 for r in run
                      if r.mean_cost <= threshold), None)
                for run in self.records]


def _make_policy(config: ExperimentConfig, env, run_rng) -> object:
    if config.policy == "linear":
        return TimeVaryingLinearPolicy(*env.linear_basis, env.num_steps,
                                       env.noise_var)
    return MlpPolicy([env.state_dim, 32, 32, 1],
                     env.noise_var, rng=run_rng)


def _run_single(config: ExperimentConfig, run_index: int,
                records: list) -> None:
    """Append repeat ``run_index``'s records to ``records`` as they are made."""
    env = make_env(config.env, config.env_overrides)
    run_seed = int(np.random.SeedSequence(
        (config.seed, run_index)).generate_state(1)[0])
    policy = _make_policy(config, env, np.random.default_rng(run_seed))
    delta = resolve_delta(config.delta, config.n_rollouts)

    for it in range(config.iterations):
        t0 = time.perf_counter()
        batch = sample_batch(env, policy, config.n_rollouts,
                             (config.seed, run_index, it), config.gamma)
        mean_cost = float(np.mean(batch.stochastic_costs))
        std_cost = float(np.std(batch.stochastic_costs))

        alpha = kl_est = None
        if config.estimator == "smoothed":
            sr = find_alpha(batch.stochastic_costs, batch.gamma, delta)
            grad = smoothed_gradient(batch, policy, sr.alpha)
            alpha, kl_est = sr.alpha, sr.kl_estimate
        elif config.estimator == "direct":
            grad = direct_gradient(batch, policy)
        else:
            grad = pice_gradient(batch, policy)

        update = trust_region_step(batch, policy, grad, config.epsilon,
                                   **config.solver)
        policy = policy.with_params(update.new_params)

        records.append(IterationRecord(
            run=run_index, iteration=it, mean_cost=mean_cost,
            std_cost=std_cost, alpha=alpha, kl_est=kl_est, eta=update.eta,
            achieved_kl=update.achieved_kl,
            wall_ms=(time.perf_counter() - t0) * 1e3, seed=run_seed))

        if (config.cost_threshold is not None
                and mean_cost <= config.cost_threshold):
            break


class RunError(RuntimeError):
    """Repeat ``run`` failed in ``iteration``; ``partial`` holds the repeats
    recorded before it."""

    def __init__(self, cause: Exception, partial: "RunResult", run: int,
                 iteration: int):
        super().__init__(f"run terminated in repeat {run} at iteration "
                         f"{iteration}: {cause}")
        self.cause = cause
        self.partial = partial
        self.run = run
        self.iteration = iteration

    def __reduce__(self):
        return type(self), (self.cause, self.partial, self.run,
                            self.iteration)


def run_aspic(config: ExperimentConfig) -> RunResult:
    """Execute all repeats; a failing repeat raises with partial records."""
    records = []
    for r in range(config.repeats):
        current = []
        try:
            _run_single(config, r, current)
        except Exception as exc:
            raise RunError(exc, RunResult(config=config, records=records), r,
                           len(current))
        records.append(current)
    return RunResult(config=config, records=records)


def _with_delta(config: ExperimentConfig, delta, **kwargs):
    """``config`` at smoothing budget ``delta`` (0: direct estimator)."""
    if resolve_delta(delta, config.n_rollouts) == 0.0:
        return config.replace(estimator="direct", delta=None, **kwargs)
    return config.replace(estimator="smoothed", delta=delta, **kwargs)


def _sweep_cell(config: ExperimentConfig, axis: str, v):
    """(label, config) of the sweep cell at value ``v`` on ``axis``."""
    if axis == "n":
        n = number("n", v, int)
        iters = (config.rollout_budget // n if config.rollout_budget
                 else config.iterations)
        return f"n={n}", config.replace(n_rollouts=n, iterations=max(1, iters))
    if axis == "delta":
        return (f"delta={resolve_delta(v, config.n_rollouts):.6g}",
                _with_delta(config, v))
    dv, eps = v
    eps = number("eps", eps)
    label = f"delta={resolve_delta(dv, config.n_rollouts):.6g},eps={eps:g}"
    return label, _with_delta(config, dv, epsilon=eps)


def sweep_cells(config: ExperimentConfig, axis: str, values) -> dict:
    """Each sweep cell's label -> its config, built before any cell runs.

    ``axis``: "delta" (values are delta specs), "n" (values are batch sizes;
    with ``rollout_budget`` set the iteration count adjusts to keep the
    budget), or "grid" (values are (delta, epsilon) pairs).  On both delta
    axes a delta of 0 switches the cell to the direct estimator.  A value
    whose cell cannot be built maps ``"<axis>=<value>"`` to its exception.
    Two values with one label are a ValueError naming it.
    """
    if not values:
        raise ValueError("sweep needs a non-empty value list")
    if axis not in ("delta", "n", "grid"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    cells = {}
    for v in values:
        try:
            label, cell = _sweep_cell(config, axis, v)
        except Exception as exc:  # recorded, not fatal
            label, cell = f"{axis}={v}", exc
        if label in cells:
            raise ValueError(f"two sweep values give the cell label {label!r}")
        cells[label] = cell
    return cells


def sweep(config: ExperimentConfig, axis: str, values) -> dict:
    """Each label of ``sweep_cells`` -> its ``RunResult``, or the exception
    of a cell that could not be built or whose run failed; a failed cell
    does not stop the sweep."""
    cells = sweep_cells(config, axis, values)
    for label, cell in cells.items():
        if not isinstance(cell, Exception):
            try:
                cells[label] = run_aspic(cell)
            except Exception as exc:  # keep sweeping, record the failure
                cells[label] = exc
    return cells


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _write_csv(path, records) -> None:
    """The record's field names, then its fields: repr, or empty for None."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in fields(IterationRecord))
        for run in records:
            for r in run:
                writer.writerow(["" if v is None else repr(v)
                                 for v in astuple(r)])


def _summary(result: RunResult, error: str | None) -> dict:
    threshold = result.config.cost_threshold
    return {
        "error": error,
        "config": result.config.to_dict(),
        "config_hash": config_hash(result.config),
        "final_costs": result.final_costs(),
        "iterations_to_threshold": (result.iterations_to_threshold(threshold)
                                    if threshold is not None else None),
    }


def export(result: RunResult, outdir, error: str | None = None) -> list:
    """Write records.csv and summary.json under ``outdir``; their paths.

    ``error`` is the message of the failure that cut a partial result short.
    """
    csv_path = os.path.join(outdir, "records.csv")
    json_path = os.path.join(outdir, "summary.json")
    try:
        os.makedirs(outdir, exist_ok=True)
        _write_csv(csv_path, result.records)
        with open(json_path, "w") as fh:
            json.dump(_summary(result, error), fh, indent=2)
    except OSError as exc:
        raise OSError(f"failed writing results under {outdir}: {exc}") from exc
    return [csv_path, json_path]
