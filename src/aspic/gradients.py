"""Score-function gradient estimators over a rollout batch.

All three estimators return the ASCENT direction used in the update
theta <- theta + eta * (natural-preconditioned direction):

* ``smoothed_gradient``  -- exponential weights at a finite smoothing level,
  optionally whitened (the whitened form drops the leading alpha factor;
  the trust-region line search fixes the update magnitude anyway).
* ``direct_gradient``    -- plain cost-weighted score (the no-smoothing
  baseline), negated so the conventions match.
* ``pice_gradient``      -- the strong-smoothing (alpha -> 0) limit.

``smoothed_cost_value`` is the matching value estimator,
-(gamma+alpha) log mean exp(-S/(gamma+alpha)).
"""

from __future__ import annotations

import numpy as np

from .smoothing import normalized_weights
from .trajectory import RolloutBatch

__all__ = ["smoothed_gradient", "direct_gradient", "pice_gradient",
           "smoothed_cost_value"]

_WHITEN_EPS = 1e-12


def _whiten(values: np.ndarray) -> np.ndarray:
    """(v - mean) / std with population std; zeros (all-equal values) if
    the std is below ``_WHITEN_EPS``."""
    centered = values - values.mean()
    std = values.std()
    if std < _WHITEN_EPS:
        return np.zeros_like(centered)
    return centered / std


def _weighted_score_sum(batch: RolloutBatch, policy,
                        coeffs: np.ndarray) -> np.ndarray:
    """sum_i c_i sum_t score(a_ti, x_ti, t), vectorized over the batch,
    with the (N,) coefficients broadcast along the rollout axis of the
    (T, N) residual; zero coefficients give the zero vector."""
    resid = (batch.actions - policy.mean_steps(batch)) / policy.noise_var
    return policy.jac_t_v_steps(batch, coeffs * resid)


def smoothed_gradient(batch: RolloutBatch, policy, alpha: float,
                      whiten: bool = True) -> np.ndarray:
    """Ascent direction of the smoothed-cost estimator at smoothing alpha.

    With ``whiten`` the normalized weights are replaced by
    (w - mean(w)) / std(w); all-equal weights then give the zero vector.
    Without whitening the estimator is alpha * sum_i w_i sum_t score_it.
    """
    w = normalized_weights(batch.stochastic_costs, batch.gamma, alpha)
    coeffs = _whiten(w) if whiten else alpha * w
    return _weighted_score_sum(batch, policy, coeffs)


def direct_gradient(batch: RolloutBatch, policy,
                    whiten: bool = True) -> np.ndarray:
    """Ascent direction of the plain cost gradient (negated score estimator)."""
    s = np.asarray(batch.stochastic_costs, dtype=float)
    coeffs = _whiten(-s) if whiten else -s / batch.n
    return _weighted_score_sum(batch, policy, coeffs)


def pice_gradient(batch: RolloutBatch, policy) -> np.ndarray:
    """Strong-smoothing limit: normalized exp(-S/gamma) weighted scores."""
    if not batch.gamma > 0:
        raise ValueError("the alpha -> 0 limit needs gamma > 0")
    w = normalized_weights(batch.stochastic_costs, batch.gamma, 0.0)
    return _weighted_score_sum(batch, policy, w)


def smoothed_cost_value(batch: RolloutBatch, alpha: float) -> float:
    """-(gamma+alpha) log mean exp(-S/(gamma+alpha)), max-shift stabilized."""
    s = np.asarray(batch.stochastic_costs, dtype=float)
    scale = batch.gamma + alpha
    if not scale > 0:
        raise ValueError(f"gamma + alpha must be positive, got {scale}")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite stochastic cost")
    m = s.min()
    return float(m - scale * np.log(np.mean(np.exp(-(s - m) / scale))))
