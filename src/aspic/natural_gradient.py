"""Trust-region natural-gradient updates.

The Fisher matrix of a fixed-covariance Gaussian policy over the sampled
trajectories is the Gauss-Newton form

    F = (dt/nu) (1/N) sum_i sum_t J_u(x_it, t)^T J_u(x_it, t),

which is PSD sample-by-sample and needs only Jacobian-vector products of the
policy mean.  Two solvers turn the raw ascent direction g into F^-1 g: damped
truncated conjugate gradient, or an exact per-timestep pseudo-inverse for
policies whose parameters block-decompose by grid time.  The step size is then
adjusted so the sampled KL between consecutive policies hits the trust-region
target (the constraint is an equality): in closed form for a linear mean,
whose sampled KL is an exact quadratic in the step size, and to 10% by a
safeguarded model root for any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numbers import number
from .policies import TimeVaryingLinearPolicy
from .trajectory import RolloutBatch

__all__ = ["TrustRegionUpdate", "sample_policy_kl", "fisher_vector_product",
           "conjugate_gradient", "per_timestep_natural_direction",
           "trust_region_step", "LineSearchError", "SOLVERS",
           "solver_options"]

KL_REL_TOL = 0.1  # line-search exit: |achieved_kl - epsilon| <= 0.1 * epsilon
MAX_BRACKET = 50  # trials without a bracket before the line search fails
MAX_TRIALS = 200  # KL evaluations before the line search fails
GROWTH = 4.0  # largest step-size growth of a trial before any overshoots
EDGE = 0.05  # share of the bracket a model trial keeps from either end


# Solver kind -> {keyword: (type, least value, default)}: every keyword
# ``trust_region_step`` takes for that kind.
SOLVERS = {"cg": {"iters": (int, 1, 10), "damping": (float, 0.0, 1e-6)},
           "per_timestep_pinv": {"rcond": (float, 0.0, 1e-4)}}


def solver_options(kind, options: dict, prefix: str = "") -> dict:
    """``options`` of solver ``kind``, each value as its ``SOLVERS`` type; a
    ValueError for an unknown kind or key, or naming ``prefix + key`` for a
    value not of its type or below its least value."""
    if not isinstance(kind, str) or kind not in SOLVERS:
        raise ValueError(f"unknown solver kind {kind!r}; "
                         f"choose from {sorted(SOLVERS)}")
    spec = SOLVERS[kind]
    unknown = sorted(set(options) - set(spec))
    if unknown:
        raise ValueError(f"unknown solver keys {unknown} for kind {kind!r}")
    return {key: number(prefix + key, value, *spec[key][:2])
            for key, value in options.items()}


class LineSearchError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrustRegionUpdate:
    new_params: np.ndarray
    eta: float
    achieved_kl: float
    cg_iterations: int | None
    kl_evaluations: int  # sampled-KL evaluations of the line search


def sample_policy_kl(batch: RolloutBatch, policy_old, policy_new) -> float:
    """(1/N) sum_i sum_t [log pi_old - log pi_new] on the stored actions.

    Evaluated on samples drawn under ``policy_old``; may come out slightly
    negative under sampling and is reported raw.  The sampling policy gets
    the batch, so it reuses its evaluation; a trial policy gets ``xs``, so
    it keeps none.
    """
    if policy_old.params.shape != policy_new.params.shape:
        raise ValueError("policies have mismatched parameter shapes")
    old = float(np.sum(policy_old.log_prob_steps(batch, batch.actions)))
    new = float(np.sum(policy_new.log_prob_steps(batch.xs, batch.actions)))
    return (old - new) / batch.n


def fisher_vector_product(batch: RolloutBatch, policy, y: np.ndarray) -> np.ndarray:
    """F y via Jacobian products, without materializing F; a ``y`` not
    shaped like the parameters is the policy's ValueError."""
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
    block-diagonal with blocks F_t = (dt/nu) (1/N) Phi_t^T Phi_t, one
    batched matmul over the step-major features.  Each symmetric block is
    solved by its eigendecomposition V diag(w) V^T as V diag(1/w) V^T g_t,
    without forming the inverse.  Its singular values are |w|, so pinv's
    cutoff keeps the eigenvalues with |w| > rcond max |w|; the others, and
    every eigenvalue of an all-zero block, contribute 0.
    """
    if not isinstance(policy, TimeVaryingLinearPolicy):
        raise TypeError("per-timestep inversion needs a policy with "
                        "per-timestep parameter blocks")
    feats = policy.step_features(batch)  # (T, N, K)
    blocks = (np.matmul(feats.transpose(0, 2, 1), feats)
              / (batch.n * policy.noise_var))
    w, vecs = np.linalg.eigh(blocks)
    mag = np.abs(w)
    keep = mag > rcond * mag.max(axis=-1, keepdims=True)
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    g_rows = np.asarray(g, dtype=float).reshape(policy.num_steps, 1, -1)
    coef = np.matmul(g_rows, vecs) * inv_w[:, None, :]  # (V^T g_t / w)^T
    return np.matmul(coef, vecs.transpose(0, 2, 1)).ravel()


def trust_region_step(batch: RolloutBatch, policy, g: np.ndarray,
                      epsilon: float, kind: str = "cg",
                      **options) -> TrustRegionUpdate:
    """One natural-gradient update with the sampled KL pinned to epsilon.

    ``kind`` is "cg" (damped truncated conjugate gradient, ``iters`` its
    cap) or "per_timestep_pinv" (``rcond`` its cutoff); ``options`` are its
    keywords, defaulting as ``SOLVERS`` says.  CG's ``damping`` scales the
    ridge added to the Fisher operator, relative to its mean eigenvalue
    ``policy.fisher_trace(batch) / dim``; small values give the near-exact
    natural direction, large values shrink it toward the raw whitened
    gradient, which is more robust with small batches.  A vanishing natural
    direction returns the parameters unchanged with eta = 0, signalling
    convergence.  A non-finite or non-positive ``epsilon``, options that
    ``solver_options`` refuses, or a ``g`` that is non-finite or not shaped
    like the parameters, is a ``ValueError``.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    options = solver_options(kind, options)
    options = {key: options.get(key, spec[2])
               for key, spec in SOLVERS[kind].items()}
    theta = policy.params
    g = np.asarray(g, dtype=float)
    if g.shape != theta.shape:
        raise ValueError(f"g has shape {g.shape}, the parameters "
                         f"{theta.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("g has a non-finite entry")

    cg_used = None
    if kind == "cg":
        lam = options["damping"] * policy.fisher_trace(batch) / g.size
        g_f, cg_used = conjugate_gradient(
            lambda y: fisher_vector_product(batch, policy, y) + lam * y,
            g, max_iters=options["iters"])
    else:
        g_f = per_timestep_natural_direction(batch, policy, g,
                                             rcond=options["rcond"])

    if np.linalg.norm(g_f) < 1e-12:
        return TrustRegionUpdate(theta, 0.0, 0.0, cg_used, 0)

    if isinstance(policy, TimeVaryingLinearPolicy):
        (eta, kl), evaluations = _linear_root(batch, policy, g_f, epsilon), 0
    else:
        # A quadratic KL model seeds the step size.
        seed = float(np.sqrt(2.0 * epsilon / (abs(float(g @ g_f)) + 1e-300)))
        eta, kl, evaluations = _kl_root(
            lambda eta: sample_policy_kl(
                batch, policy, policy.with_params(theta + eta * g_f)),
            seed, epsilon)
    return TrustRegionUpdate(theta + eta * g_f, eta, kl, cg_used, evaluations)


def _linear_root(batch: RolloutBatch, policy: TimeVaryingLinearPolicy,
                 g_f: np.ndarray, epsilon: float) -> tuple[float, float]:
    """(eta, KL) at the positive root of KL(eta) = epsilon.

    The mean is linear in the parameters, so the sampled KL along the ray
    theta + eta g_f is the exact quadratic (a2 eta^2 - 2 rb eta) / denom.
    """
    resid = batch.actions - policy.mean_steps(batch)
    du = policy.jac_y_steps(batch, g_f)
    a2 = float(np.sum(du * du))
    rb = float(np.sum(resid * du))
    denom = 2.0 * policy.noise_var * batch.n
    if a2 == 0.0:
        raise LineSearchError("failed to bracket the trust-region step size "
                              "from above: the natural direction leaves the "
                              "mean unchanged on the batch")
    c = epsilon * denom
    root = np.sqrt(rb * rb + a2 * c)
    # Both forms are (rb + root) / a2; the first cancels no digits at rb < 0.
    eta = float(c / (root - rb) if rb < 0 else (rb + root) / a2)
    return eta, (eta * eta * a2 - 2.0 * eta * rb) / denom


def _kl_root(kl_at, eta: float, epsilon: float) -> tuple[float, float, int]:
    """(eta, KL, evaluations) with |kl_at(eta) - epsilon| <= KL_REL_TOL eps.

    Starts at ``eta``; KL(0) = 0 is a free lower end of the bracket.  Each
    further trial is the root of a model through the bracket ends:
    A eta^2 through the origin and the one end a trial has set (growing at
    most ``GROWTH``-fold while no trial has overshot), or A eta^2 + B eta
    through both ends once trials have set both.  There a proposal outside
    the bracket, or within ``EDGE`` of its width from an end, is replaced by
    the geometric mean of the ends.
    """
    lo, kl_lo, hi, kl_hi = 0.0, 0.0, None, None
    for k in range(1, MAX_TRIALS + 1):
        kl = kl_at(eta)
        if not np.isfinite(kl):
            raise LineSearchError(f"sampled KL {kl} at step size {eta}")
        if abs(kl - epsilon) <= KL_REL_TOL * epsilon:
            return float(eta), kl, k
        if kl < epsilon:
            lo, kl_lo = eta, kl
        else:
            hi, kl_hi = eta, kl
        if hi is None or lo == 0.0:
            if k == MAX_BRACKET:
                raise LineSearchError(
                    "failed to bracket the trust-region step size from "
                    f"{'above' if hi is None else 'below'}")
            if hi is not None:
                eta = hi * np.sqrt(epsilon / kl_hi)
            else:
                eta = lo * (min(GROWTH, np.sqrt(epsilon / kl_lo))
                            if kl_lo > 0 else GROWTH)
            continue
        eta = _two_point_root(lo, kl_lo, hi, kl_hi, epsilon)
        edge = EDGE * (hi - lo)
        if not lo + edge <= eta <= hi - edge:
            eta = np.sqrt(lo * hi)
        if not lo < eta < hi:
            break  # the bracket is down to adjacent floats
    raise LineSearchError("step-size bisection failed to meet the "
                          "trust-region tolerance")


def _two_point_root(lo, kl_lo, hi, kl_hi, epsilon) -> float:
    """Positive root of A eta^2 + B eta = epsilon through (lo, kl_lo) and
    (hi, kl_hi), 0 < lo < hi; NaN when the model has none."""
    a = (kl_hi / hi - kl_lo / lo) / (hi - lo)
    b = kl_lo / lo - a * lo
    disc = b * b + 4.0 * a * epsilon
    if disc < 0:
        return float("nan")
    root = np.sqrt(disc)
    if b > 0:  # the form that cancels no digits
        return float(2.0 * epsilon / (b + root))
    return float((root - b) / (2.0 * a)) if a > 0 else float("nan")
