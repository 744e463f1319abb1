"""Trust-region natural-gradient updates.

The Fisher matrix of a fixed-covariance Gaussian policy over the sampled
trajectories is the Gauss-Newton form

    F = (dt/nu) (1/N) sum_i sum_t J_u(x_it, t)^T J_u(x_it, t),

which is PSD sample-by-sample and needs only Jacobian-vector products of the
policy mean.  Two solvers turn the raw ascent direction g into F^-1 g: damped
truncated conjugate gradient, or an exact per-timestep pseudo-inverse for
policies whose parameters block-decompose by grid time.  The step size is then
adjusted so the sampled KL between consecutive policies hits the trust-region
target (the constraint is an equality, enforced to 10% by bisection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policies import TimeVaryingLinearPolicy
from .trajectory import RolloutBatch

__all__ = ["TrustRegionUpdate", "sample_policy_kl", "fisher_vector_product",
           "conjugate_gradient", "per_timestep_natural_direction",
           "trust_region_step", "LineSearchError"]

KL_REL_TOL = 0.1  # line-search exit: |achieved_kl - epsilon| <= 0.1 * epsilon
MAX_BRACKET = 50  # doublings (or halvings) of eta before the bracket fails


class LineSearchError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrustRegionUpdate:
    new_params: np.ndarray
    eta: float
    achieved_kl: float
    cg_iterations: int | None


def sample_policy_kl(batch: RolloutBatch, policy_old, policy_new) -> float:
    """(1/N) sum_i sum_t [log pi_old - log pi_new] on the stored actions.

    Evaluated on samples drawn under ``policy_old``; may come out slightly
    negative under sampling and is reported raw.
    """
    if policy_old.params.shape != policy_new.params.shape:
        raise ValueError("policies have mismatched parameter shapes")
    xs, acts = batch.xs, batch.actions
    return (float(np.sum(policy_old.log_prob_steps(xs, acts)))
            - float(np.sum(policy_new.log_prob_steps(xs, acts)))) / batch.n


def fisher_vector_product(batch: RolloutBatch, policy, y: np.ndarray) -> np.ndarray:
    """F y via Jacobian products, without materializing F."""
    y = np.asarray(y, dtype=float)
    if y.size != policy.params.size:
        raise ValueError("vector length does not match the parameter count")
    jy = policy.jac_y_steps(batch, y)
    return policy.jac_t_v_steps(batch, jy) / (batch.n * policy.noise_var)


def conjugate_gradient(apply_a, b: np.ndarray, max_iters: int,
                       tol: float = 1e-10) -> tuple[np.ndarray, int]:
    """Solve A x = b for a symmetric PSD operator.

    Stops when the residual norm drops below ``tol * ||b||`` or after
    ``max_iters`` iterations.  Returns (x, iterations used).
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rs = float(r @ r)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0
    for k in range(max_iters):
        if np.sqrt(rs) <= tol * b_norm:
            return x, k
        ap = apply_a(p)
        if not np.all(np.isfinite(ap)):
            raise RuntimeError("non-finite value in conjugate-gradient iterate")
        denom = float(p @ ap)
        if denom <= 0.0:
            # Numerically null direction; nothing more to extract.
            return x, k
        step = rs / denom
        x = x + step * p
        r = r - step * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, max_iters


def per_timestep_natural_direction(batch: RolloutBatch,
                                   policy: TimeVaryingLinearPolicy,
                                   g: np.ndarray,
                                   rcond: float = 1e-4) -> np.ndarray:
    """pinv(F_t, rcond) g_t per time block, concatenated.

    Exact for time-varying linear policies, whose Fisher matrix is
    block-diagonal with blocks (dt/nu) (1/N) sum_i phi_it phi_it^T.
    """
    if not isinstance(policy, TimeVaryingLinearPolicy):
        raise TypeError("per-timestep inversion needs a policy with "
                        "per-timestep parameter blocks")
    feats = policy.step_inputs(batch)  # (N, T, K)
    blocks = np.einsum("ntk,ntl->tkl", feats, feats) / (batch.n * policy.noise_var)
    g_blocks = np.asarray(g, dtype=float).reshape(policy.num_steps, -1)
    inv = np.linalg.pinv(blocks, rcond=rcond)
    return np.einsum("tkl,tl->tk", inv, g_blocks).ravel()


def _damping(fvp, dim: int, scale: float) -> float:
    """scale * trace(F)/dim, trace estimated with fixed Rademacher probes."""
    rng = np.random.default_rng(0)
    est = 0.0
    probes = 2
    for _ in range(probes):
        z = rng.integers(0, 2, size=dim) * 2.0 - 1.0
        est += float(z @ fvp(z)) / dim
    return scale * est / probes


def trust_region_step(batch: RolloutBatch, policy, g: np.ndarray,
                      epsilon: float, solver: str = "cg", *,
                      iters: int = 10, rcond: float = 1e-4,
                      damping: float = 1e-6) -> TrustRegionUpdate:
    """One natural-gradient update with the sampled KL pinned to epsilon.

    ``solver`` is "cg" (damped truncated conjugate gradient) or
    "per_timestep_pinv"; ``iters`` caps the CG iterations.  ``damping``
    scales the ridge added to the Fisher operator (relative to its mean
    eigenvalue); small values give the near-exact natural direction, large
    values shrink it toward the raw whitened gradient, which is more robust
    with small batches.  A vanishing natural direction returns the
    parameters unchanged with eta = 0, signalling convergence.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    g = np.asarray(g, dtype=float)
    theta = policy.params

    cg_used = None
    if solver == "cg":
        fvp = lambda y: fisher_vector_product(batch, policy, y)
        lam = _damping(fvp, g.size, damping)
        g_f, cg_used = conjugate_gradient(lambda y: fvp(y) + lam * y,
                                          g, max_iters=iters)
    elif solver == "per_timestep_pinv":
        g_f = per_timestep_natural_direction(batch, policy, g, rcond=rcond)
    else:
        raise ValueError(f"unknown solver {solver!r}")

    if np.linalg.norm(g_f) < 1e-12:
        return TrustRegionUpdate(theta, 0.0, 0.0, cg_used)

    if isinstance(policy, TimeVaryingLinearPolicy):
        # The mean is linear in the parameters, so the sampled KL along the
        # ray theta + eta * g_f is an exact quadratic in eta.
        resid = batch.actions - policy.mean_steps(batch)
        du = policy.jac_y_steps(batch, g_f)
        a2 = float(np.sum(du * du))
        rb = float(np.sum(resid * du))
        denom = 2.0 * policy.noise_var * batch.n

        def kl_at(eta: float) -> float:
            return (eta * eta * a2 - 2.0 * eta * rb) / denom
    else:
        def kl_at(eta: float) -> float:
            return sample_policy_kl(batch, policy,
                                    policy.with_params(theta + eta * g_f))

    # Quadratic KL model seeds the step size; bisection pins the equality.
    eta = float(np.sqrt(2.0 * epsilon / (abs(float(g @ g_f)) + 1e-300)))
    kl = kl_at(eta)
    if abs(kl - epsilon) > KL_REL_TOL * epsilon:
        # Double eta while the KL is short of epsilon, else halve it.
        grow = kl < epsilon
        edge = eta
        for _ in range(MAX_BRACKET):
            edge *= 2.0 if grow else 0.5
            edge_kl = kl_at(edge)
            if edge_kl >= epsilon if grow else edge_kl <= epsilon:
                break
        else:
            raise LineSearchError("failed to bracket the trust-region step "
                                  f"size from {'above' if grow else 'below'}")
        lo, hi = sorted((eta, edge))
        for _ in range(200):
            eta = 0.5 * (lo + hi)
            kl = kl_at(eta)
            if abs(kl - epsilon) <= KL_REL_TOL * epsilon:
                break
            if kl < epsilon:
                lo = eta
            else:
                hi = eta
        else:
            raise LineSearchError("step-size bisection failed to meet the "
                                  "trust-region tolerance")

    return TrustRegionUpdate(theta + eta * g_f, eta, kl, cg_used)
