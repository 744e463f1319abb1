"""Exponential weights, weight entropy and the adaptive smoothing search.

The smoothing level alpha trades estimator reliability against smoothing
strength: small alpha concentrates the normalized weights
w_i ~ exp(-S_i / (gamma + alpha)) on few samples.  The sample-size-independent
degeneracy measure log N - H_N(w) converges to the KL divergence between the
reweighted path density and the sampling density, and is monotonically
decreasing in alpha, so the smallest alpha satisfying
log N - H_N(w) <= delta is found by bracketing and bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SmoothingResult", "normalized_weights", "weight_entropy",
           "kl_estimate", "find_alpha"]

# Relative width at which the alpha bisection stops.
ALPHA_REL_TOL = 1e-3


@dataclass(frozen=True)
class SmoothingResult:
    alpha: float
    weights: np.ndarray
    entropy: float
    kl_estimate: float


def normalized_weights(costs, gamma: float, alpha: float) -> np.ndarray:
    """Softmax weights w_i of -costs_i / (gamma + alpha), summing to 1.

    Stabilized by subtracting min(costs) before exponentiation, which leaves
    the weights unchanged (shift invariance of the softmax).
    """
    costs = np.asarray(costs, dtype=float)
    if gamma + alpha <= 0:
        raise ValueError(f"gamma + alpha must be positive, got {gamma + alpha}")
    if not np.all(np.isfinite(costs)):
        raise ValueError("non-finite cost in weight computation")
    # An overflow sends z to -inf, whose weight exp(-inf) = 0 is right.
    with np.errstate(over="ignore"):
        z = -(costs - costs.min()) / (gamma + alpha)
    w = np.exp(z)
    return w / w.sum()


def weight_entropy(weights) -> float:
    """Shannon entropy -sum w log w in nats, with 0*log(0) := 0."""
    w = np.asarray(weights, dtype=float)
    if not abs(w.sum() - 1.0) <= 1e-9:  # NaN weights fail too
        raise ValueError(f"weights not normalized: sum = {w.sum()}")
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def kl_estimate(weights) -> float:
    """Sample-size-independent weight degeneracy, log N - H_N(w), >= 0."""
    w = np.asarray(weights, dtype=float)
    return max(0.0, float(np.log(w.size)) - weight_entropy(w))


def _kl_at(costs: np.ndarray, gamma: float, alpha: float) -> float:
    return kl_estimate(normalized_weights(costs, gamma, alpha))


def find_alpha(costs, gamma: float, delta: float) -> SmoothingResult:
    """Smallest alpha with kl_estimate(weights(costs, gamma, alpha)) <= delta.

    Monotonicity of the KL estimate in alpha makes bracket-then-bisect exact:
    alpha doubles from max(1, 2 * floor) until the constraint holds, then the
    interval from the last alpha known to violate it (at first the floor) is
    bisected to relative tolerance ``ALPHA_REL_TOL``.
    """
    costs = np.asarray(costs, dtype=float)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if costs.size < 2:
        raise ValueError("need at least 2 costs to adapt alpha")
    with np.errstate(over="ignore"):
        spread = float(costs.max() - costs.min())
    if not np.isfinite(spread):
        raise ValueError(f"cost spread is not finite: {spread}")

    # gamma = 0 needs a strictly positive divisor; scale with the cost spread.
    floor = 0.0 if gamma > 0 else 1e-8 * (spread + 1.0)
    if _kl_at(costs, gamma, floor) <= delta:
        alpha = floor
    else:
        # Finite even when 1e12 * spread overflows, so the doubling stops.
        ceiling = min(1e12 * max(1.0, spread), np.finfo(float).max)
        lo, hi = floor, max(1.0, 2.0 * floor)
        while _kl_at(costs, gamma, hi) > delta:
            lo, hi = hi, 2.0 * hi
            if hi > ceiling:
                raise ValueError("smoothing constraint unsatisfiable below the "
                                 "alpha ceiling; check the costs for outliers")
        while hi - lo > ALPHA_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            if _kl_at(costs, gamma, mid) <= delta:
                hi = mid
            else:
                lo = mid
        alpha = hi

    w = normalized_weights(costs, gamma, alpha)
    return SmoothingResult(alpha=alpha, weights=w, entropy=weight_entropy(w),
                           kl_estimate=kl_estimate(w))
