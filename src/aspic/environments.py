"""Benchmark control problems and the rollout sampler.

All three environments are control-affine with additive white noise on the
action channel and Euler-discretized dynamics:

    x_{k+1} = x_k + dt * (f(x_k) + g(x_k) * a_k),   a_k = u(x_k, k) + xi_k

with scalar a_k and xi_k ~ N(0, nu/dt).  State costs are delta events
at the grid indices an environment lists in ``event_indices`` (added once,
without a dt factor); there are no running costs.  The base policy is the
zero-mean Gaussian with the same variance, so the log-likelihood ratio of a
rollout, sum_t (a_t^2 - xi_t^2) / (2 nu/dt), is the discretized Girsanov
quadratic control cost.

``sample_batch`` simulates N rollouts in lockstep straight into the
step-major arrays of a ``RolloutBatch``, writing each step's states, actions
and linear-policy features once; ``rollout`` returns one rollout as a
``Trajectory``.  Both draw a batch's noise row-major, (N, T), from one
generator seeded by the seed, so ``rollout`` replays rollout 0 of
``sample_batch`` with the same seed, with the same noise bit for bit (a
policy mean computed by a BLAS matmul may round differently in the last bit
at another row count).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from ._numbers import number
from .policies import (TimeVaryingLinearPolicy, acrobot_features,
                       lq_features, pendulum_features)
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

    def __init__(self, step: int, index: int):
        self.step = step
        self.index = index
        super().__init__(f"state blow-up at rollout {index}, step {step}")

    def __reduce__(self):
        return type(self), (self.step, self.index)


@dataclass(kw_only=True, eq=False)
class Environment:
    """Base class: a task is its parameters, its rate and its cost events.

    The fields are the task's parameters, the keys ``env_overrides`` takes;
    each scalar one must be a finite number, not a bool.  Building a task
    sets ``num_steps``, ``noise_var = nu/dt`` and the start ``x0``, at rest
    at the origin unless the task sets another.  ``xdot`` and
    ``event_cost`` are vectorized over leading batch dimensions of the state;
    ``xdot`` writes the rate into ``out`` when given, else into a new array.
    Event costs are keyed by grid index (1..num_steps), with event times
    snapped to the nearest grid point; ``event_indices`` lists the indices
    that carry one, by default the final index only.  ``linear_basis`` is
    the task's linear-policy basis, (feature map, number of features).
    """

    state_dim: ClassVar[int]
    linear_basis: ClassVar[tuple]
    dt: float
    horizon: float
    nu: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float":
                number(f.name, getattr(self, f.name))
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

    def step(self, x: np.ndarray, a: np.ndarray, t: int) -> np.ndarray:
        """Euler step x + dt * xdot(x, a); raises ``RolloutBlowupError``
        naming the first row whose next state is non-finite or too large."""
        nxt = self._euler(np.asarray(x, dtype=float),
                          np.asarray(a, dtype=float))
        _raise_on_blowup(nxt.reshape(1, -1, nxt.shape[-1]), t)
        return nxt

    def _euler(self, x, a, out=None):
        nxt = self.xdot(x, a, out)
        nxt *= self.dt
        nxt += x
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
    linear_basis: ClassVar[tuple] = (lq_features, 2)
    dt: float = 0.1
    horizon: float = 10.0
    sigma: float = 0.1
    viapoints: tuple = LQ_VIAPOINTS

    def __post_init__(self):
        super().__post_init__()
        if self.sigma == 0:
            raise ValueError("sigma must be != 0")
        try:
            points = [tuple(point) for point in self.viapoints]
        except TypeError:
            points = None
        if points is None or any(len(point) != 2 for point in points):
            raise ValueError("viapoints must be a sequence of (time, target) "
                             f"pairs, got {self.viapoints!r}")
        # Viapoint times snap to the nearest grid index, one viapoint each.
        self._events = {}
        for t, target in points:
            number("viapoints time", t)
            number("viapoints target", target)
            index = int(round(t / self.dt))
            if index in self._events or not 1 <= index <= self.num_steps:
                raise ValueError(
                    f"viapoints: time {t!r} snaps to grid index {index}, "
                    f"outside 1..{self.num_steps} or already taken")
            self._events[index] = target
        self.event_indices = tuple(sorted(self._events))

    def xdot(self, x, a, out=None):
        out = np.empty(x.shape) if out is None else out
        out[..., 0] = a
        return out

    def _event_cost(self, index, x):
        return (x[..., 0] - self._events[index]) ** 2 / (2.0 * self.sigma ** 2)


@dataclass(kw_only=True, eq=False)
class Pendulum(Environment):
    """Damped pendulum swing-up; state (angle, angular velocity).

    Terminal cost rewards tip height Y = -cos(angle) and penalizes residual
    speed: -500 Y + 10 vel^2, applied once at the final grid index.
    """

    state_dim: ClassVar[int] = 2
    linear_basis: ClassVar[tuple] = (pendulum_features, 4)
    dt: float = 0.01
    horizon: float = 3.0
    c_omega0: float = 0.1
    omega0_sq: float = 10.0
    lam: float = 0.2

    def xdot(self, x, a, out=None):
        out = np.empty(x.shape) if out is None else out
        ang, vel = x[..., 0], x[..., 1]
        acc = -self.c_omega0 * vel - self.omega0_sq * np.sin(ang)
        np.add(acc, self.lam * a, out=out[..., 1])
        out[..., 0] = vel
        return out

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
    linear_basis: ClassVar[tuple] = (acrobot_features, 9)
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

    def xdot(self, x, a, out=None):
        out = np.empty(x.shape) if out is None else out
        out[..., 2], out[..., 3] = self.accelerations(x, self.lam * a)
        out[..., :2] = x[..., 2:]
        return out

    def _event_cost(self, index, x):
        height = (-self.l1 * np.cos(x[..., 0])
                  - self.l2 * np.cos(x[..., 0] + x[..., 1]))
        return -500.0 * height + 10.0 * (x[..., 2] ** 2 + x[..., 3] ** 2)


def _raise_on_blowup(states: np.ndarray, first_step: int) -> None:
    """Raise ``RolloutBlowupError`` at the first step, then the first row,
    of ``states`` (steps, rows, state_dim) whose state is non-finite or
    beyond ``BLOWUP_THRESHOLD``; step 0 of ``states`` is ``first_step``."""
    if not (states.max() <= BLOWUP_THRESHOLD  # NaN fails both
            and states.min() >= -BLOWUP_THRESHOLD):
        bad = ~(np.abs(states) <= BLOWUP_THRESHOLD).all(axis=-1)
        k = int(np.argmax(bad.any(axis=1)))
        raise RolloutBlowupError(first_step + k, int(np.argmax(bad[k])))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_batch(env: Environment, policy, n: int, rng_seed, gamma: float, *,
                 noise_scale: float = 1.0) -> RolloutBatch:
    """N rollouts in lockstep; rollout i takes row i of the (N, T) noise of
    one ``default_rng(rng_seed)`` draw, times ``noise_scale``.

    Each step writes its states, actions and a linear policy's features
    once, into contiguous slices: a linear mean goes straight into the
    action buffer and the noise is added in place.  The state costs are
    charged after the loop, in ``event_indices`` order, on the stored
    states.  Rows are independent, so the blow-up check after the loop
    names the step and row a check after every step would.  A linear
    policy of another ``num_steps`` than the task's is refused first."""
    if n < 2:
        raise ValueError("need at least 2 rollouts per batch")
    t_steps = env.num_steps
    linear = isinstance(policy, TimeVaryingLinearPolicy)
    if linear and policy.num_steps != t_steps:
        raise ValueError(f"the policy has num_steps {policy.num_steps}, "
                         f"the task {t_steps}")
    noises = noise_scale * np.random.default_rng(rng_seed).normal(
        0.0, np.sqrt(env.noise_var), size=(n, t_steps))
    step_noises = noises.T
    states = np.empty((t_steps + 1, n, env.state_dim))
    actions = np.empty((t_steps, n))
    state_cost = np.zeros(n)
    phi = np.empty((t_steps, n, policy.num_features)) if linear else None
    states[0] = env.x0
    with np.errstate(all="ignore"):  # non-finite states raise below
        for k in range(t_steps):
            a = actions[k]
            if phi is None:
                np.add(policy.mean(states[k], k), step_noises[k], out=a)
            else:
                policy.mean(states[k], k, features=phi[k], out=a)
                a += step_noises[k]
            env._euler(states[k], a, out=states[k + 1])
        for k in env.event_indices:
            state_cost += env.event_cost(k, states[k])
    _raise_on_blowup(states[1:], 0)
    # sum_t (a^2 - xi^2) / (2 sigma^2), the sum of log pi - log p_base
    log_ratio = (np.einsum("tn,tn->n", actions, actions) - np.einsum(
        "nt,nt->n", noises, noises)) / (2.0 * env.noise_var)
    return RolloutBatch(states=states, actions=actions, state_cost=state_cost,
                        log_ratio=log_ratio, gamma=gamma, features=phi)


def rollout(env: Environment, policy, rng_seed, *,
            noise_scale: float = 1.0) -> Trajectory:
    """One seeded rollout, rollout 0 of ``sample_batch`` with the same seed;
    ``noise_scale=0`` gives the deterministic path.  It is rollout 0 of two,
    whose row sums run as any batch's do (numpy sums one column in another
    order)."""
    b = sample_batch(env, policy, 2, rng_seed, 0.0, noise_scale=noise_scale)
    return Trajectory(b.states[:, 0], b.actions[:, 0], b.state_cost[0],
                      b.log_ratio[0])


_ENVS = {"lq_viapoints": LqViapoints, "pendulum": Pendulum, "acrobot": Acrobot}


def make_env(name: str, overrides: dict | None = None) -> Environment:
    if not isinstance(name, str) or name not in _ENVS:
        raise ValueError(f"unknown environment {name!r}; "
                         f"choose from {sorted(_ENVS)}")
    return _ENVS[name](**(overrides or {}))
