"""Rollout containers and the stochastic path cost.

Arrays are step-major, time first.  A ``Trajectory`` is one rollout: its
states, its scalar actions, its summed state cost (delta events added once
at their grid index) and its Girsanov log-likelihood ratio against the
uncontrolled base policy, log_ratio = sum_t (a_t^2 - xi_t^2) / (2 sigma^2)
with a_t = u_t + xi_t: all the stochastic path cost needs.  A
``RolloutBatch`` is the same schema with a rollout axis after the time
axis, plus the stochastic costs it derives from them and a linear policy's
feature matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = ["Trajectory", "RolloutBatch", "stochastic_cost"]


def _frozen(a) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Trajectory:
    """One rollout of a controlled system.

    Shapes: ``states`` is (T+1, state_dim) including the initial state,
    ``actions`` is (T,), one scalar per control step; ``state_cost`` and
    ``log_ratio`` are scalars (0-d arrays).
    """

    states: np.ndarray
    actions: np.ndarray
    state_cost: np.ndarray
    log_ratio: np.ndarray
    _batch_axes: ClassVar[int] = 0  # rollout axes after the time axis

    def __post_init__(self):
        """Freeze and fully check the arrays: T+1 states, T actions."""
        t_states, *batch = np.shape(self.states)[:self._batch_axes + 1]
        for name, want in (
                ("states", (t_states, *batch, np.shape(self.states)[-1])),
                ("actions", (t_states - 1, *batch)),
                ("state_cost", tuple(batch)), ("log_ratio", tuple(batch))):
            a = _frozen(getattr(self, name))
            if a.shape != want:
                raise ValueError(f"{name} has shape {a.shape}, expected {want}")
            object.__setattr__(self, name, a)


def stochastic_cost(traj: Trajectory, gamma: float):
    """State cost plus gamma times the policy/base log-likelihood ratio: a
    float for a ``Trajectory``, the per-rollout costs for a
    ``RolloutBatch``."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    cost = traj.state_cost + gamma * traj.log_ratio
    return cost if traj._batch_axes else float(cost)


@dataclass(frozen=True)
class RolloutBatch(Trajectory):
    """N rollouts as step-major read-only arrays.

    Shapes: ``states`` (T+1, N, state_dim); ``actions`` (T, N);
    ``state_cost`` and ``log_ratio`` (N,).  Derived, not passed, so that
    every ``replace`` derives them again: ``xs``, the view ``states[:-1]``
    (T, N, state_dim), and ``stochastic_costs``, ``stochastic_cost(batch,
    gamma)`` (N,).  ``features`` is the (T, N, K) feature matrix of the
    linear policy that sampled the batch, equal to ``policy.features(xs)``
    (None for other policies).  A ``replace`` with new ``states`` must pass
    new features or None.
    """

    gamma: float
    features: np.ndarray | None = field(default=None, repr=False)
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    stochastic_costs: np.ndarray = field(init=False, repr=False,
                                         compare=False)
    _batch_axes: ClassVar[int] = 1

    def __post_init__(self):
        super().__post_init__()
        if self.n < 2:
            raise ValueError("a rollout batch needs at least 2 trajectories")
        object.__setattr__(self, "xs", self.states[:-1])
        object.__setattr__(self, "stochastic_costs",
                           _frozen(stochastic_cost(self, self.gamma)))
        if self.features is not None:
            object.__setattr__(self, "features", _frozen(self.features))
            if self.features.shape[:2] != self.actions.shape:
                raise ValueError(
                    f"features lead with {self.features.shape[:2]}, "
                    f"expected (T, N) = {self.actions.shape}")

    @property
    def n(self) -> int:
        return self.states.shape[1]
