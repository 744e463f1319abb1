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
"""

from __future__ import annotations

import numpy as np

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


class Environment:
    """Base class: concrete tasks fill in dynamics and cost events.

    ``step`` and ``event_cost`` are vectorized over leading batch dimensions
    of the state.  Event costs are keyed by grid index (1..num_steps), with
    event times snapped to the nearest grid point; ``event_indices`` lists
    the indices that carry one.
    """

    state_dim: int
    action_dim: int = 1
    dt: float
    horizon: float
    nu: float
    x0: np.ndarray
    event_indices: tuple = ()

    def __init__(self):
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer number of steps")
        self.num_steps = int(round(steps))

    @property
    def noise_var(self) -> float:
        return self.nu / self.dt

    def drift(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def control_effect(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """g(x, t) a, mapped into state space."""
        raise NotImplementedError

    def step(self, x: np.ndarray, a: np.ndarray, t: int) -> np.ndarray:
        """Euler step x + dt * (f(x) + g(x) a); raises ``RolloutBlowupError``
        naming the first row whose next state is non-finite or too large."""
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        nxt = x + self.dt * (self.drift(x) + self.control_effect(x, a))
        ok = np.abs(nxt) <= BLOWUP_THRESHOLD
        if not ok.all():
            raise RolloutBlowupError(t, int(np.argmin(ok.all(axis=-1))))
        return nxt

    def event_cost(self, index: int, x: np.ndarray) -> np.ndarray:
        """Delta-cost contribution at grid index ``index`` (0 if none)."""
        return np.zeros(np.asarray(x).shape[:-1])


class LqViapoints(Environment):
    """1-D Brownian particle steered through quadratic viapoint penalties."""

    state_dim = 1

    def __init__(self, *, dt: float = 0.1, horizon: float = 10.0,
                 nu: float = 1.0, sigma: float = 0.1,
                 viapoints=LQ_VIAPOINTS):
        self.dt = dt
        self.horizon = horizon
        self.nu = nu
        self.sigma = sigma
        self.x0 = np.zeros(1)
        super().__init__()
        # Viapoint times snap to the nearest grid index.
        self._events = {int(round(t / dt)): target for t, target in viapoints}
        self.event_indices = tuple(sorted(self._events))

    def drift(self, x):
        return np.zeros_like(x)

    def control_effect(self, x, a):
        return a

    def event_cost(self, index, x):
        x = np.asarray(x, dtype=float)
        if index not in self._events:
            return np.zeros(x.shape[:-1])
        return (x[..., 0] - self._events[index]) ** 2 / (2.0 * self.sigma ** 2)


class Pendulum(Environment):
    """Damped pendulum swing-up; state (angle, angular velocity).

    Terminal cost rewards tip height Y = -cos(angle) and penalizes residual
    speed: -500 Y + 10 vel^2, applied once at the final grid index.
    """

    state_dim = 2

    def __init__(self, *, dt: float = 0.01, horizon: float = 3.0,
                 nu: float = 1.0, c_omega0: float = 0.1,
                 omega0_sq: float = 10.0, lam: float = 0.2):
        self.dt = dt
        self.horizon = horizon
        self.nu = nu
        self.c_omega0 = c_omega0
        self.omega0_sq = omega0_sq
        self.lam = lam
        self.x0 = np.zeros(2)
        super().__init__()
        self.event_indices = (self.num_steps,)

    def drift(self, x):
        ang, vel = x[..., 0], x[..., 1]
        acc = -self.c_omega0 * vel - self.omega0_sq * np.sin(ang)
        return np.stack([vel, acc], axis=-1)

    def control_effect(self, x, a):
        out = np.zeros_like(x)
        out[..., 1] = self.lam * a[..., 0]
        return out

    def event_cost(self, index, x):
        x = np.asarray(x, dtype=float)
        if index != self.num_steps:
            return np.zeros(x.shape[:-1])
        height = -np.cos(x[..., 0])
        return -500.0 * height + 10.0 * x[..., 1] ** 2

    def energy(self, x) -> np.ndarray:
        """0.5 vel^2 - omega0^2 cos(angle); conserved when undamped."""
        x = np.asarray(x, dtype=float)
        return 0.5 * x[..., 1] ** 2 - self.omega0_sq * np.cos(x[..., 0])


class Acrobot(Environment):
    """Two-link underactuated arm, torque on the second joint only.

    State (x1, x2, xdot1, xdot2); accelerations come from the closed-form
    inverse of the 2x2 mass matrix each step.  Starts hanging straight down
    (x1 = -pi/2).
    """

    state_dim = 4

    def __init__(self, *, dt: float = 0.01, horizon: float = 3.0,
                 nu: float = 1.0, lam: float = 0.2,
                 m1: float = 1.0, m2: float = 1.0,
                 l1: float = 1.0, l2: float = 2.0,
                 lc1: float = 0.5, lc2: float = 1.0,
                 i1: float = 0.083, i2: float = 0.33,
                 gravity: float = 9.8):
        self.dt = dt
        self.horizon = horizon
        self.nu = nu
        self.lam = lam
        self.m1, self.m2 = m1, m2
        self.l1, self.l2 = l1, l2
        self.lc1, self.lc2 = lc1, lc2
        self.i1, self.i2 = i1, i2
        self.gravity = gravity
        self.x0 = np.array([-0.5 * np.pi, 0.0, 0.0, 0.0])
        super().__init__()
        self.event_indices = (self.num_steps,)

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

    def drift(self, x):
        acc1, acc2 = self.accelerations(x, 0.0)
        return np.stack([x[..., 2], x[..., 3], acc1, acc2], axis=-1)

    def control_effect(self, x, a):
        # Torque enters through the same mass-matrix solve as the drift;
        # by linearity the control contribution is M^-1 (0, lam a).
        d11, d12, d22 = self.mass_matrix_terms(x)
        det = d11 * d22 - d12 ** 2
        torque = self.lam * a[..., 0]
        out = np.zeros_like(np.asarray(x, dtype=float))
        out[..., 2] = -d12 * torque / det
        out[..., 3] = d11 * torque / det
        return out

    def event_cost(self, index, x):
        x = np.asarray(x, dtype=float)
        if index != self.num_steps:
            return np.zeros(x.shape[:-1])
        height = (-self.l1 * np.cos(x[..., 0])
                  - self.l2 * np.cos(x[..., 0] + x[..., 1]))
        return -500.0 * height + 10.0 * (x[..., 2] ** 2 + x[..., 3] ** 2)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _base_log_prob(a: np.ndarray, noise_var: float) -> np.ndarray:
    d = a.shape[-1]
    return (-np.sum(a ** 2, axis=-1) / (2.0 * noise_var)
            - 0.5 * d * np.log(2.0 * np.pi * noise_var))


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
        a = np.atleast_2d(policy.mean(x, k)) + noises[:, k]
        actions[:, k] = a
        x = env.step(x, a, k)
        states[:, k + 1] = x
        if k + 1 in env.event_indices:
            costs[:, k] += env.event_cost(k + 1, x)
    return dict(states=states, actions=actions, noises=noises,
                state_costs=costs,
                logp_policy=_base_log_prob(noises, env.noise_var),
                logp_base=_base_log_prob(actions, env.noise_var))


def rollout(env: Environment, policy, rng_seed, *,
            noise_scale: float = 1.0) -> Trajectory:
    """One seeded rollout; ``noise_scale=0`` gives the deterministic path."""
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    noises = noise_scale * rng.normal(0.0, np.sqrt(env.noise_var),
                                      size=(1, env.num_steps, env.action_dim))
    seqs = _simulate(env, policy, noises)
    return Trajectory(**{name: arr[0] for name, arr in seqs.items()})


def sample_batch(env: Environment, policy, n: int, rng_seed, gamma: float, *,
                 noise_scale: float = 1.0) -> RolloutBatch:
    """N rollouts with per-rollout seeds spawned from ``rng_seed``."""
    if n < 2:
        raise ValueError("need at least 2 rollouts per batch")
    noises = np.empty((n, env.num_steps, env.action_dim))
    sd = np.sqrt(env.noise_var)
    for i, child in enumerate(np.random.SeedSequence(rng_seed).spawn(n)):
        noises[i] = np.random.default_rng(child).normal(
            0.0, sd, size=noises.shape[1:])
    noises *= noise_scale
    return RolloutBatch(**_simulate(env, policy, noises), gamma=gamma)


_ENVS = {"lq_viapoints": LqViapoints, "pendulum": Pendulum, "acrobot": Acrobot}


def make_env(name: str, overrides: dict | None = None) -> Environment:
    if name not in _ENVS:
        raise ValueError(f"unknown environment {name!r}; "
                         f"choose from {sorted(_ENVS)}")
    return _ENVS[name](**(overrides or {}))
