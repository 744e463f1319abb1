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
# Bisection levels one pass of the search evaluates: 2**levels - 1 alphas.
BISECT_LEVELS = 4
# Ladder rungs the first pass evaluates, start * 2**0 .. 2**15 after the
# floor; the rest of the ladder only when none of them meets delta.
FIRST_RUNGS = 16


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
    if not gamma + alpha > 0:
        raise ValueError(f"gamma + alpha must be positive, got {gamma + alpha}")
    if not np.all(np.isfinite(costs)):
        raise ValueError("non-finite cost in weight computation")
    # An overflow sends z to -inf, whose weight exp(-inf) = 0 is right.
    with np.errstate(over="ignore"):
        z = -(costs - costs.min()) / (gamma + alpha)
    w = np.exp(z)
    return w / w.sum()


def weight_entropy(weights) -> float:
    """Shannon entropy -sum w log w in nats, with 0*log(0) := 0: a zero
    weight takes log 1 and adds an exact 0 to the sum."""
    w = np.asarray(weights, dtype=float)
    if not abs(w.sum() - 1.0) <= 1e-9:  # NaN weights fail too
        raise ValueError(f"weights not normalized: sum = {w.sum()}")
    return float(-np.sum(w * np.log(np.where(w > 0.0, w, 1.0))))


def kl_estimate(weights) -> float:
    """Sample-size-independent weight degeneracy, log N - H_N(w), >= 0."""
    w = np.asarray(weights, dtype=float)
    return max(0.0, float(np.log(w.size)) - weight_entropy(w))


def _kl_estimates(neg: np.ndarray, gamma: float, alphas) -> np.ndarray:
    """kl_estimate(normalized_weights(costs, gamma, alpha)) for each alpha,
    with the same float operations, from ``neg = -(costs - costs.min())``.

    A row reduction sums each row as the 1-D sum does, an underflowed
    weight's exact 0 term included, as ``weight_entropy``.
    """
    with np.errstate(over="ignore"):
        w = np.exp(neg / (gamma + np.asarray(alphas))[:, None])
    w /= w.sum(axis=1, keepdims=True)
    entropy = -(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=1)
    # As max(0.0, kl) in kl_estimate: kl is never NaN or -0.0 here.
    return np.maximum(np.log(neg.size) - entropy, 0.0)


def find_alpha(costs, gamma: float, delta: float) -> SmoothingResult:
    """Smallest alpha with kl_estimate(weights(costs, gamma, alpha)) <= delta.

    Monotonicity of the KL estimate in alpha makes bracket-then-bisect exact:
    alpha doubles from max(1, 2 * floor) until the constraint holds, then the
    interval from the last alpha known to violate it (at first the floor) is
    bisected to relative tolerance ``ALPHA_REL_TOL``.

    The costs are validated and shifted once.  One vectorized pass
    evaluates the floor and the first ``FIRST_RUNGS`` rungs of the doubling
    ladder, a second the rest of the ladder if none of them meets delta,
    and each further pass every midpoint of the next ``BISECT_LEVELS``
    levels.  Each evaluation has the float operations of
    ``kl_estimate(normalized_weights(...))``, so alpha is the one the
    step-by-step search finds, bit for bit.
    """
    costs = np.asarray(costs, dtype=float)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if costs.size < 2:
        raise ValueError("need at least 2 costs to adapt alpha")
    with np.errstate(over="ignore"):
        spread = float(costs.max() - costs.min())
    if not np.isfinite(spread):
        raise ValueError(f"cost spread is not finite: {spread}")
    neg = -(costs - costs.min())

    # gamma = 0 needs a strictly positive divisor; scale with the cost spread.
    floor = 0.0 if gamma > 0 else 1e-8 * (spread + 1.0)
    # Finite even when 1e12 * spread overflows, so the ladder is finite;
    # ldexp doubles exactly, as repeated doubling does.
    ceiling = min(1e12 * max(1.0, spread), np.finfo(float).max)
    start = max(1.0, 2.0 * floor)
    with np.errstate(over="ignore"):
        ladder = np.ldexp(start, np.arange(int(np.log2(ceiling / start)) + 2))
    alphas = np.concatenate([[floor], ladder[ladder <= ceiling]])
    ok = _kl_estimates(neg, gamma, alphas[:FIRST_RUNGS + 1]) <= delta
    if not ok.any():
        ok = np.concatenate([ok, _kl_estimates(
            neg, gamma, alphas[FIRST_RUNGS + 1:]) <= delta])
    if not ok.any():
        raise ValueError("smoothing constraint unsatisfiable below the "
                         "alpha ceiling; check the costs for outliers")
    i = int(np.argmax(ok))
    alpha = float(alphas[i])
    if i > 0:
        alpha = _bisect(neg, gamma, delta, float(alphas[i - 1]), alpha)

    w = normalized_weights(costs, gamma, alpha)
    return SmoothingResult(alpha=alpha, weights=w, entropy=weight_entropy(w),
                           kl_estimate=kl_estimate(w))


def _bisect(neg, gamma, delta, lo, hi) -> float:
    """Bisect [lo, hi], kl(lo) > delta >= kl(hi), until
    hi - lo <= ALPHA_REL_TOL * hi; one pass per ``BISECT_LEVELS`` levels."""
    while hi - lo > ALPHA_REL_TOL * hi:
        edges = [lo, hi]
        for _ in range(BISECT_LEVELS):  # each midpoint the walk may visit
            edges[1:] = [v for a, b in zip(edges, edges[1:])
                         for v in (0.5 * (a + b), b)]
        ok = (_kl_estimates(neg, gamma, edges[1:-1]) <= delta).tolist()
        i, j = 0, len(edges) - 1
        while j - i > 1 and edges[j] - edges[i] > ALPHA_REL_TOL * edges[j]:
            mid = (i + j) // 2
            i, j = (i, mid) if ok[mid - 1] else (mid, j)
        lo, hi = edges[i], edges[j]
    return hi
