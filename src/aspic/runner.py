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
from dataclasses import asdict, dataclass, field

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

_FEATURES = {"lq_viapoints": lq_features, "pendulum": pendulum_features,
             "acrobot": acrobot_features}

# Solver kind -> {config key: (trust_region_step keyword, type)}.
_SOLVER_KEYS = {"cg": {"iters": ("cg_iters", int),
                       "damping": ("damping", float)},
                "per_timestep_pinv": {"rcond": ("rcond", float)}}


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
        kind = self.solver.get("kind", "cg")
        for key, value, allowed in (
                ("env", self.env, _FEATURES),
                ("policy", self.policy, ("linear", "mlp")),
                ("estimator", self.estimator, ("smoothed", "direct", "pice")),
                ("solver kind", kind, _SOLVER_KEYS)):
            if value not in allowed:
                raise ValueError(f"unknown {key} {value!r}; "
                                 f"choose from {sorted(allowed)}")
        for key, ok, rule in (("n_rollouts", self.n_rollouts >= 2, ">= 2"),
                              ("iterations", self.iterations >= 1, ">= 1"),
                              ("repeats", self.repeats >= 1, ">= 1"),
                              ("epsilon", self.epsilon > 0, "> 0"),
                              ("gamma", self.gamma >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{key} must be {rule}, "
                                 f"got {getattr(self, key)!r}")
        unknown = sorted(set(self.solver) - {"kind", *_SOLVER_KEYS[kind]})
        if unknown:
            raise ValueError(f"unknown solver keys {unknown} "
                             f"for kind {kind!r}")
        if self.policy == "mlp" and kind == "per_timestep_pinv":
            raise ValueError("policy 'mlp' cannot use solver kind "
                             "'per_timestep_pinv'")
        if (self.estimator == "smoothed"
                and resolve_delta(self.delta, self.n_rollouts) <= 0):
            raise ValueError("the smoothed estimator needs delta > 0")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
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
    """Accepts an absolute value or a multiple of log N."""
    if delta is None:
        return 0.0
    if isinstance(delta, dict):
        if "absolute" in delta:
            return float(delta["absolute"])
        if "lognfrac" in delta:
            return float(delta["lognfrac"]) * math.log(n)
        raise ValueError("delta dict needs an 'absolute' or 'lognfrac' key")
    return float(delta)


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
        feats = _FEATURES[config.env]
        pol = TimeVaryingLinearPolicy(feats, env.num_steps, env.noise_var)
        pol.features(env.x0)  # fixes the parameter count; theta starts at 0
        return pol
    return MlpPolicy([env.state_dim, 32, 32, env.action_dim],
                     env.noise_var, rng=run_rng)


def _run_single(config: ExperimentConfig, run_index: int) -> list:
    env = make_env(config.env, config.env_overrides)
    run_seed = int(np.random.SeedSequence(
        (config.seed, run_index)).generate_state(1)[0])
    policy = _make_policy(config, env, np.random.default_rng(run_seed))

    kind = config.solver.get("kind", "cg")
    solver_kwargs = {kw: cast(config.solver[key])
                     for key, (kw, cast) in _SOLVER_KEYS[kind].items()
                     if key in config.solver}

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

        update = trust_region_step(batch, policy, grad.direction,
                                   config.epsilon, kind, **solver_kwargs)
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
        n = int(v)
        iters = (config.rollout_budget // n if config.rollout_budget
                 else config.iterations)
        return f"n={n}", config.replace(n_rollouts=n, iterations=max(1, iters))
    if axis == "delta":
        return (f"delta={resolve_delta(v, config.n_rollouts):.6g}",
                _with_delta(config, v))
    dv, eps = v
    label = f"delta={resolve_delta(dv, config.n_rollouts):.6g},eps={eps:g}"
    return label, _with_delta(config, dv, epsilon=float(eps))


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for run in records:
            for r in run:
                writer.writerow([
                    r.run, r.iteration, repr(r.mean_cost), repr(r.std_cost),
                    "" if r.alpha is None else repr(r.alpha),
                    "" if r.kl_est is None else repr(r.kl_est),
                    repr(r.eta), repr(r.achieved_kl), repr(r.wall_ms), r.seed])


def _summary(result: RunResult) -> dict:
    threshold = result.config.cost_threshold
    return {
        "config": result.config.to_dict(),
        "config_hash": config_hash(result.config),
        "final_costs": result.final_costs(),
        "iterations_to_threshold": (result.iterations_to_threshold(threshold)
                                    if threshold is not None else None),
    }


def export(result: RunResult, fmt: str, outdir) -> list:
    """Write records.csv and/or summary.json under ``outdir``."""
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"unknown export format {fmt!r}")
    os.makedirs(outdir, exist_ok=True)
    written = []
    try:
        if fmt in ("csv", "both"):
            path = os.path.join(outdir, "records.csv")
            _write_csv(path, result.records)
            written.append(path)
        if fmt in ("json", "both"):
            path = os.path.join(outdir, "summary.json")
            with open(path, "w") as fh:
                json.dump(_summary(result), fh, indent=2)
            written.append(path)
    except OSError as exc:
        raise OSError(f"failed writing results under {outdir}: {exc}") from exc
    return written
