"""Rollout containers and the stochastic path cost.

A ``RolloutBatch`` is a ``Trajectory`` with a leading batch axis: it holds
everything the estimators need as stacked read-only arrays over N rollouts:
visited states, and scalar per-step actions, noise, state costs and
log-probabilities under the sampling policy and the uncontrolled base policy.
The sampler fills them in lockstep; ``xs`` and the stochastic costs are
computed once when the batch is built.  State costs are already the per-step
contribution to the path cost (delta events added once at their grid index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = ["Trajectory", "RolloutBatch", "stochastic_cost"]

_SEQUENCES = ("states", "actions", "noises", "state_costs", "logp_policy",
              "logp_base")


def _frozen(a) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Trajectory:
    """One rollout of a controlled system.

    Shapes: ``states`` is (T+1, state_dim) including the initial state,
    every other sequence is (T,), one scalar per control step.  The sampler
    sets ``actions[k] = mean(states[k], k) + noises[k]``, rounded.
    """

    states: np.ndarray
    actions: np.ndarray
    noises: np.ndarray
    state_costs: np.ndarray
    logp_policy: np.ndarray
    logp_base: np.ndarray
    _batch_axes: ClassVar[int] = 0  # leading axes before the time axis

    def __post_init__(self):
        """Freeze and fully check the sequences: T+1 states, T scalars."""
        for name in _SEQUENCES:
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        *batch, t_states = self.states.shape[:self._batch_axes + 1]
        for name in _SEQUENCES:
            want = ((*batch, t_states, self.states.shape[-1])
                    if name == "states" else (*batch, t_states - 1))
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")


def stochastic_cost(traj: Trajectory, gamma: float):
    """Path cost plus gamma times the policy/base log-likelihood ratio,
    summed over time: a float for a ``Trajectory``, the row costs for a
    ``RolloutBatch``."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    cost = (np.sum(traj.state_costs, axis=-1)
            + gamma * np.sum(traj.logp_policy - traj.logp_base, axis=-1))
    return cost if traj._batch_axes else float(cost)


@dataclass(frozen=True)
class RolloutBatch(Trajectory):
    """N rollouts as stacked read-only arrays, with their stochastic costs.

    Shapes: ``states`` (N, T+1, state_dim); ``actions``, ``noises``,
    ``state_costs``, ``logp_policy`` and ``logp_base`` (N, T).
    ``xs`` is a contiguous copy of ``states[:, :-1]``.  Stochastic costs
    default to ``stochastic_cost(batch, gamma)``.  ``features`` is the
    feature matrix of the linear policy that sampled the batch, stored
    step-major as (T, N, K): equal to ``policy.features(xs).swapaxes(0, 1)``
    (None for other policies).  A ``replace`` with new ``states`` must pass
    new features or None.
    """

    gamma: float
    stochastic_costs: np.ndarray = field(default=None)  # type: ignore[assignment]
    features: np.ndarray | None = field(default=None, repr=False)
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    _batch_axes: ClassVar[int] = 1

    def __post_init__(self):
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        super().__post_init__()
        if self.n < 2:
            raise ValueError("a rollout batch needs at least 2 trajectories")
        object.__setattr__(self, "xs", _frozen(
            np.ascontiguousarray(self.states[:, :-1])))
        object.__setattr__(self, "stochastic_costs", _frozen(
            stochastic_cost(self, self.gamma) if self.stochastic_costs is None
            else self.stochastic_costs))
        if self.stochastic_costs.shape != (self.n,):
            raise ValueError("stochastic_costs length does not match "
                             "the batch size")
        if self.features is not None:
            object.__setattr__(self, "features", _frozen(self.features))
            want = (self.actions.shape[1], self.n)
            if self.features.shape[:2] != want:
                raise ValueError(
                    f"features lead with {self.features.shape[:2]}, "
                    f"expected (T, N) = {want}")

    @property
    def n(self) -> int:
        return self.states.shape[0]
