"""Experiment loop, sweeps, and result export.

One iteration: sample a batch under the current policy, pick the smoothing
level by the weight-entropy constraint (smoothed estimator only), form the
whitened ascent direction, and take a trust-region natural-gradient step.
Seeding is a splittable chain master seed -> repeat -> iteration -> rollout,
so the full record stream is a pure function of the config.
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

from .environments import make_env, sample_batch
from .gradients import direct_gradient, pice_gradient, smoothed_gradient
from .natural_gradient import trust_region_step
from .policies import (MlpPolicy, TimeVaryingLinearPolicy, acrobot_features,
                       lq_features, pendulum_features)
from .smoothing import find_alpha
from .trajectory import batch_mean_cost

__all__ = ["ExperimentConfig", "IterationRecord", "RunResult", "RunError",
           "run_aspic", "sweep", "export", "resolve_delta", "config_hash"]

CSV_COLUMNS = ("run", "iter", "mean_cost", "std_cost", "alpha", "kl_est",
               "eta", "achieved_kl", "wall_ms", "seed")

# env -> (feature map, number of features) of its linear policy.
_FEATURES = {"lq_viapoints": (lq_features, 2),
             "pendulum": (pendulum_features, 4),
             "acrobot": (acrobot_features, 9)}

# Solver kind -> {trust_region_step keyword: type}.
_SOLVER_KEYS = {"cg": {"iters": int, "damping": float},
                "per_timestep_pinv": {"rcond": float}}

# Top-level numbers: key -> (type, None allowed).
_NUMBERS = {"n_rollouts": (int, False), "iterations": (int, False),
            "repeats": (int, False), "seed": (int, False),
            "epsilon": (float, False), "gamma": (float, False),
            "cost_threshold": (float, True), "rollout_budget": (int, True)}


def _typed(name: str, value, typ):
    """``value`` as ``typ`` (a float must be finite); a ValueError naming
    ``name`` if it is not one."""
    try:
        out = typ(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if (out is None or isinstance(value, bool) or out != value
            or (typ is float and not math.isfinite(out))):
        what = "a finite float" if typ is float else "an int"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return out


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
    whiten: bool = True
    cost_threshold: float | None = None  # optional early stop
    rollout_budget: int | None = None    # used by the N-axis sweep

    def __post_init__(self):
        for key, (typ, optional) in _NUMBERS.items():
            value = getattr(self, key)
            if not (optional and value is None):
                setattr(self, key, _typed(key, value, typ))
        if not isinstance(self.whiten, bool):
            raise ValueError(f"whiten must be a bool, got {self.whiten!r}")
        if not isinstance(self.solver, dict):
            raise ValueError(f"solver must be a dict, got {self.solver!r}")
        kind = self.solver.get("kind", "cg")
        for key, value, allowed in (
                ("env", self.env, _FEATURES),
                ("policy", self.policy, ("linear", "mlp")),
                ("estimator", self.estimator, ("smoothed", "direct", "pice")),
                ("solver kind", kind, _SOLVER_KEYS)):
            if not isinstance(value, str) or value not in allowed:
                raise ValueError(f"unknown {key} {value!r}; "
                                 f"choose from {sorted(allowed)}")
        try:
            make_env(self.env, self.env_overrides)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid env_overrides "
                             f"{self.env_overrides!r}: {exc}") from exc
        spec = _SOLVER_KEYS[kind]
        unknown = sorted(set(self.solver) - {"kind", *spec})
        if unknown:
            raise ValueError(f"unknown solver keys {unknown} "
                             f"for kind {kind!r}")
        self.solver = {key: value if key == "kind"
                       else _typed(f"solver.{key}", value, spec[key])
                       for key, value in self.solver.items()}
        solver, budget = self.solver, self.rollout_budget
        for key, ok, rule in (
                ("n_rollouts", self.n_rollouts >= 2, ">= 2"),
                ("iterations", self.iterations >= 1, ">= 1"),
                ("repeats", self.repeats >= 1, ">= 1"),
                ("epsilon", self.epsilon > 0, "> 0"),
                ("gamma", self.gamma >= 0, ">= 0"),
                ("gamma", self.gamma > 0 or self.estimator != "pice",
                 "> 0 for the pice estimator"),
                ("rollout_budget", budget is None or budget >= 1, ">= 1"),
                ("solver.iters", solver.get("iters", 1) >= 1, ">= 1"),
                ("solver.damping", solver.get("damping", 0.0) >= 0, ">= 0"),
                ("solver.rcond", solver.get("rcond", 0.0) >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{key} must be {rule}")
        if self.policy == "mlp" and kind == "per_timestep_pinv":
            raise ValueError("policy 'mlp' cannot use solver kind "
                             "'per_timestep_pinv'")
        delta = resolve_delta(self.delta, self.n_rollouts)  # checks its type
        if self.estimator == "smoothed" and delta <= 0:
            raise ValueError("the smoothed estimator needs delta > 0")

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
            return _typed("delta", delta["absolute"], float)
        return _typed("delta", delta["lognfrac"], float) * math.log(n)
    return _typed("delta", delta, float)


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
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
        feature_fn, num_features = _FEATURES[config.env]
        return TimeVaryingLinearPolicy(feature_fn, num_features,
                                       env.num_steps, env.noise_var)
    return MlpPolicy([env.state_dim, 32, 32, env.action_dim],
                     env.noise_var, rng=run_rng)


def _run_single(config: ExperimentConfig, run_index: int) -> list:
    env = make_env(config.env, config.env_overrides)
    run_seed = int(np.random.SeedSequence(
        (config.seed, run_index)).generate_state(1)[0])
    policy = _make_policy(config, env, np.random.default_rng(run_seed))

    solver_kwargs = dict(config.solver)
    kind = solver_kwargs.pop("kind", "cg")

    records = []
    for it in range(config.iterations):
        t0 = time.perf_counter()
        batch = sample_batch(env, policy, config.n_rollouts,
                             (config.seed, run_index, it), config.gamma)
        mean_cost = batch_mean_cost(batch)
        std_cost = float(np.std(batch.stochastic_costs))

        alpha = kl_est = None
        if config.estimator == "smoothed":
            delta = resolve_delta(config.delta, config.n_rollouts)
            sr = find_alpha(batch.stochastic_costs, config.gamma, delta)
            grad = smoothed_gradient(batch, policy, sr.alpha,
                                     whiten=config.whiten)
            alpha, kl_est = sr.alpha, sr.kl_estimate
        elif config.estimator == "direct":
            grad = direct_gradient(batch, policy, whiten=config.whiten)
        else:
            grad = pice_gradient(batch, policy)

        update = trust_region_step(batch, policy, grad, config.epsilon, kind,
                                   **solver_kwargs)
        policy = policy.with_params(update.new_params)

        records.append(IterationRecord(
            run=run_index, iteration=it, mean_cost=mean_cost,
            std_cost=std_cost, alpha=alpha, kl_est=kl_est, eta=update.eta,
            achieved_kl=update.achieved_kl,
            wall_ms=(time.perf_counter() - t0) * 1e3, seed=run_seed))

        if (config.cost_threshold is not None
                and mean_cost <= config.cost_threshold):
            break
    return records


class RunError(RuntimeError):
    """A repeat failed; ``partial`` holds everything recorded before that."""

    def __init__(self, cause: Exception, partial: "RunResult"):
        super().__init__(f"run terminated: {cause}")
        self.cause = cause
        self.partial = partial


def run_aspic(config: ExperimentConfig) -> RunResult:
    """Execute all repeats; a failing repeat raises with partial records."""
    records = []
    for r in range(config.repeats):
        try:
            records.append(_run_single(config, r))
        except Exception as exc:
            raise RunError(exc, RunResult(config=config, records=records))
    return RunResult(config=config, records=records)


def _with_delta(config: ExperimentConfig, delta, **kwargs):
    """``config`` at smoothing budget ``delta`` (0: direct estimator)."""
    if resolve_delta(delta, config.n_rollouts) == 0.0:
        return config.replace(estimator="direct", delta=None, **kwargs)
    return config.replace(estimator="smoothed", delta=delta, **kwargs)


def _sweep_cell(config: ExperimentConfig, axis: str, v):
    """(label, config) of the sweep cell at value ``v`` on ``axis``."""
    if axis == "n":
        n = _typed("n", v, int)
        iters = (config.rollout_budget // n if config.rollout_budget
                 else config.iterations)
        return f"n={n}", config.replace(n_rollouts=n, iterations=max(1, iters))
    if axis == "delta":
        return (f"delta={resolve_delta(v, config.n_rollouts):.6g}",
                _with_delta(config, v))
    dv, eps = v
    eps = _typed("eps", eps, float)
    label = f"delta={resolve_delta(dv, config.n_rollouts):.6g},eps={eps:g}"
    return label, _with_delta(config, dv, epsilon=eps)


def sweep(config: ExperimentConfig, axis: str, values) -> dict:
    """Run one cell per value; per-cell failures are recorded, not fatal.

    ``axis``: "delta" (values are delta specs), "n" (values are batch sizes;
    with ``rollout_budget`` set the iteration count adjusts to keep the
    budget), or "grid" (values are (delta, epsilon) pairs).  On both delta
    axes a delta of 0 switches the cell to the direct estimator.  A value
    whose cell cannot be built is recorded under ``"<axis>=<value>"``.
    """
    if not values:
        raise ValueError("sweep needs a non-empty value list")
    if axis not in ("delta", "n", "grid"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    cells = {}
    for v in values:
        label = f"{axis}={v}"
        try:
            label, cfg = _sweep_cell(config, axis, v)
            cells[label] = run_aspic(cfg)
        except Exception as exc:  # keep sweeping, record the failure
            cells[label] = exc
    return cells


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _write_csv(path, records) -> None:
    """One row per record, its fields in order: repr, or empty for None."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for run in records:
            for r in run:
                writer.writerow(["" if v is None else repr(v)
                                 for v in astuple(r)])


def _summary(result: RunResult) -> dict:
    threshold = result.config.cost_threshold
    return {
        "config": result.config.to_dict(),
        "config_hash": config_hash(result.config),
        "final_costs": result.final_costs(),
        "iterations_to_threshold": (result.iterations_to_threshold(threshold)
                                    if threshold is not None else None),
    }


def export(result: RunResult, outdir) -> list:
    """Write records.csv and summary.json under ``outdir``; their paths."""
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "records.csv")
    json_path = os.path.join(outdir, "summary.json")
    try:
        _write_csv(csv_path, result.records)
        with open(json_path, "w") as fh:
            json.dump(_summary(result), fh, indent=2)
    except OSError as exc:
        raise OSError(f"failed writing results under {outdir}: {exc}") from exc
    return [csv_path, json_path]
