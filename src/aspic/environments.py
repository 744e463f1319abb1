"""Benchmark control problems and the rollout sampler.

All three environments are control-affine with additive white noise on the
action channel and Euler-discretized dynamics:

    x_{k+1} = x_k + dt * (f(x_k) + g(x_k) * a_k),   a_k = u(x_k, k) + xi_k

with xi_k ~ N(0, nu/dt) per action dimension.  State costs are delta events
at the grid indices an environment lists in ``event_indices`` (added once,
without a dt factor); there are no running costs.  The base policy is the
zero-mean Gaussian with the same variance, so the per-step log-prob ratio is
the discretized Girsanov quadratic control cost.

``sample_batch`` simulates N rollouts in lockstep straight into the arrays
of a ``RolloutBatch``; ``rollout`` returns one rollout as a ``Trajectory``.
Both draw rollout i's noise from child i of the seed, so ``rollout`` replays
rollout 0 of ``sample_batch`` with the same seed, with the same noise bit for
bit (a policy mean computed by a BLAS matmul may round differently in the
last bit at another row count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .policies import gaussian_log_prob
from .trajectory import RolloutBatch, Trajectory

__all__ = ["Environment", "LqViapoints", "Pendulum", "Acrobot",
           "rollout", "sample_batch", "RolloutBlowupError", "make_env"]

BLOWUP_THRESHOLD = 1e8

# Viapoint schedule (time, target) of the Brownian-particle task.
LQ_VIAPOINTS = ((1.0, -10.0), (2.0, 10.0), (3.0, -10.0), (4.0, -20.0),
                (5.0, -100.0), (6.0, -50.0), (7.0, 10.0), (8.0, 20.0),
                (9.0, 30.0))


class RolloutBlowupError(RuntimeError):
    """A rollout left the numerically sane region."""

    def __init__(self, step: int, index: int | None = None):
        self.step = step
        self.index = index
        where = f"rollout {index}, " if index is not None else ""
        super().__init__(f"state blow-up at {where}step {step}")


@dataclass(kw_only=True, eq=False)
class Environment:
    """Base class: a task is its parameters, its rate and its cost events.

    The fields are the task's parameters, the keys ``env_overrides`` takes.
    Building a task sets ``num_steps``, ``noise_var = nu/dt`` and the start
    ``x0``, at rest at the origin unless the task sets another.  ``xdot`` and
    ``event_cost`` are vectorized over leading batch dimensions of the state.
    Event costs are keyed by grid index (1..num_steps), with event times
    snapped to the nearest grid point; ``event_indices`` lists the indices
    that carry one, by default the final index only.
    """

    state_dim: ClassVar[int]
    action_dim: ClassVar[int] = 1
    dt: float
    horizon: float
    nu: float = 1.0

    def __post_init__(self):
        for name in ("dt", "horizon", "nu"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, "
                                 f"got {getattr(self, name)!r}")
        steps = self.horizon / self.dt
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be a whole number of steps, >= 1")
        self.num_steps = int(round(steps))
        self.noise_var = self.nu / self.dt
        self.event_indices = (self.num_steps,)
        self.x0 = np.zeros(self.state_dim)

    def xdot(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The rate f(x) + g(x) a, in state space."""
        raise NotImplementedError

    def step(self, x: np.ndarray, a: np.ndarray, t: int) -> np.ndarray:
        """Euler step x + dt * xdot(x, a); raises ``RolloutBlowupError``
        naming the first row whose next state is non-finite or too large."""
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        nxt = x + self.dt * self.xdot(x, a)
        ok = np.abs(nxt) <= BLOWUP_THRESHOLD
        if not ok.all():
            raise RolloutBlowupError(t, int(np.argmin(ok.all(axis=-1))))
        return nxt

    def event_cost(self, index: int, x: np.ndarray) -> np.ndarray:
        """Delta-cost contribution at grid index ``index``: the task's
        ``_event_cost(index, x)`` at ``event_indices``, 0 elsewhere."""
        x = np.asarray(x, dtype=float)
        if index not in self.event_indices:
            return np.zeros(x.shape[:-1])
        return self._event_cost(index, x)


@dataclass(kw_only=True, eq=False)
class LqViapoints(Environment):
    """1-D Brownian particle steered through quadratic viapoint penalties."""

    state_dim: ClassVar[int] = 1
    dt: float = 0.1
    horizon: float = 10.0
    sigma: float = 0.1
    viapoints: tuple = LQ_VIAPOINTS

    def __post_init__(self):
        super().__post_init__()
        if self.sigma == 0:
            raise ValueError("sigma must be != 0")
        # Viapoint times snap to the nearest grid index.
        self._events = {int(round(t / self.dt)): target
                        for t, target in self.viapoints}
        self.event_indices = tuple(sorted(self._events))

    def xdot(self, x, a):
        return a

    def _event_cost(self, index, x):
        return (x[..., 0] - self._events[index]) ** 2 / (2.0 * self.sigma ** 2)


@dataclass(kw_only=True, eq=False)
class Pendulum(Environment):
    """Damped pendulum swing-up; state (angle, angular velocity).

    Terminal cost rewards tip height Y = -cos(angle) and penalizes residual
    speed: -500 Y + 10 vel^2, applied once at the final grid index.
    """

    state_dim: ClassVar[int] = 2
    dt: float = 0.01
    horizon: float = 3.0
    c_omega0: float = 0.1
    omega0_sq: float = 10.0
    lam: float = 0.2

    def xdot(self, x, a):
        ang, vel = x[..., 0], x[..., 1]
        acc = -self.c_omega0 * vel - self.omega0_sq * np.sin(ang)
        return np.stack([vel, acc + self.lam * a[..., 0]], axis=-1)

    def _event_cost(self, index, x):
        height = -np.cos(x[..., 0])
        return -500.0 * height + 10.0 * x[..., 1] ** 2

    def energy(self, x) -> np.ndarray:
        """0.5 vel^2 - omega0^2 cos(angle); conserved when undamped."""
        x = np.asarray(x, dtype=float)
        return 0.5 * x[..., 1] ** 2 - self.omega0_sq * np.cos(x[..., 0])


@dataclass(kw_only=True, eq=False)
class Acrobot(Environment):
    """Two-link underactuated arm, torque on the second joint only.

    State (x1, x2, xdot1, xdot2); accelerations come from the closed-form
    inverse of the 2x2 mass matrix each step.  Starts hanging straight down
    (x1 = -pi/2).
    """

    state_dim: ClassVar[int] = 4
    dt: float = 0.01
    horizon: float = 3.0
    lam: float = 0.2
    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 2.0
    lc1: float = 0.5
    lc2: float = 1.0
    i1: float = 0.083
    i2: float = 0.33
    gravity: float = 9.8

    def __post_init__(self):
        super().__post_init__()
        self.x0 = np.array([-0.5 * np.pi, 0.0, 0.0, 0.0])

    def mass_matrix_terms(self, x):
        x2 = x[..., 1]
        c2 = np.cos(x2)
        d11 = (self.m1 * self.lc1 ** 2
               + self.m2 * (self.l1 ** 2 + self.lc2 ** 2
                            + 2.0 * self.l1 * self.lc2 * c2)
               + self.i1 + self.i2)
        d12 = self.m2 * (self.lc2 ** 2 + self.l1 * self.lc2 * c2) + self.i2
        d22 = self.m2 * self.lc2 ** 2 + self.i2
        return d11, d12, d22

    def accelerations(self, x, torque):
        """Solve the 2x2 linear system for (xddot1, xddot2)."""
        x = np.asarray(x, dtype=float)
        x1, x2, v1, v2 = (x[..., i] for i in range(4))
        s2 = np.sin(x2)
        d11, d12, d22 = self.mass_matrix_terms(x)
        h1 = -self.m2 * self.l1 * self.lc2 * s2 * (v2 ** 2 + 2.0 * v1 * v2)
        h2 = self.m2 * self.l1 * self.lc2 * s2 * v1 ** 2
        phi2 = self.m2 * self.lc2 * self.gravity * np.cos(x1 + x2)
        phi1 = (self.m1 * self.lc1 + self.m2 * self.l1) * self.gravity * np.cos(x1) + phi2
        rhs1 = -h1 - phi1
        rhs2 = torque - h2 - phi2
        det = d11 * d22 - d12 ** 2
        acc1 = (d22 * rhs1 - d12 * rhs2) / det
        acc2 = (d11 * rhs2 - d12 * rhs1) / det
        return acc1, acc2

    def xdot(self, x, a):
        acc1, acc2 = self.accelerations(x, 0.0)
        # Torque enters through the same mass-matrix solve as the torque-free
        # accelerations; by linearity its contribution is M^-1 (0, lam a).
        d11, d12, d22 = self.mass_matrix_terms(x)
        det = d11 * d22 - d12 ** 2
        torque = self.lam * a[..., 0]
        return np.stack([x[..., 2], x[..., 3], acc1 - d12 * torque / det,
                         acc2 + d11 * torque / det], axis=-1)

    def _event_cost(self, index, x):
        height = (-self.l1 * np.cos(x[..., 0])
                  - self.l2 * np.cos(x[..., 0] + x[..., 1]))
        return -500.0 * height + 10.0 * (x[..., 2] ** 2 + x[..., 3] ** 2)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _simulate(env: Environment, policy, noises: np.ndarray) -> dict:
    """Run n rollouts in lockstep; noises is (n, T, adim).

    Returns the ``RolloutBatch`` sequences as a dict of stacked arrays.
    """
    n, t_steps, _ = noises.shape
    states = np.empty((n, t_steps + 1, env.state_dim))
    actions = np.empty((n, t_steps, env.action_dim))
    costs = np.zeros((n, t_steps))
    x = np.broadcast_to(env.x0, (n, env.state_dim)).copy()
    states[:, 0] = x
    for k in range(t_steps):
        a = policy.mean(x, k) + noises[:, k]
        actions[:, k] = a
        x = env.step(x, a, k)
        states[:, k + 1] = x
        if k + 1 in env.event_indices:
            costs[:, k] += env.event_cost(k + 1, x)
    return dict(states=states, actions=actions, noises=noises,
                state_costs=costs,
                logp_policy=gaussian_log_prob(noises, env.noise_var),
                logp_base=gaussian_log_prob(actions, env.noise_var))


def _noises(env: Environment, n: int, rng_seed,
            noise_scale: float) -> np.ndarray:
    """(n, T, adim) action noise; row i from child i of ``rng_seed``."""
    noises = np.empty((n, env.num_steps, env.action_dim))
    sd = np.sqrt(env.noise_var)
    for i, child in enumerate(np.random.SeedSequence(rng_seed).spawn(n)):
        noises[i] = np.random.default_rng(child).normal(
            0.0, sd, size=noises.shape[1:])
    noises *= noise_scale
    return noises


def rollout(env: Environment, policy, rng_seed, *,
            noise_scale: float = 1.0) -> Trajectory:
    """One seeded rollout, rollout 0 of ``sample_batch`` with the same seed;
    ``noise_scale=0`` gives the deterministic path."""
    seqs = _simulate(env, policy, _noises(env, 1, rng_seed, noise_scale))
    return Trajectory(**{name: arr[0] for name, arr in seqs.items()})


def sample_batch(env: Environment, policy, n: int, rng_seed, gamma: float, *,
                 noise_scale: float = 1.0) -> RolloutBatch:
    """N rollouts with per-rollout seeds spawned from ``rng_seed``."""
    if n < 2:
        raise ValueError("need at least 2 rollouts per batch")
    noises = _noises(env, n, rng_seed, noise_scale)
    return RolloutBatch(**_simulate(env, policy, noises), gamma=gamma)


_ENVS = {"lq_viapoints": LqViapoints, "pendulum": Pendulum, "acrobot": Acrobot}


def make_env(name: str, overrides: dict | None = None) -> Environment:
    if name not in _ENVS:
        raise ValueError(f"unknown environment {name!r}; "
                         f"choose from {sorted(_ENVS)}")
    return _ENVS[name](**(overrides or {}))
