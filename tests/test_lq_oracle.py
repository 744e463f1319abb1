"""An exact expected-cost oracle for the linear-Gaussian LQ task.

On ``lq_viapoints`` with a time-varying linear policy u_k = theta_k . [x, 1]
the state stays Gaussian, x' = c x + dt theta_k1 + dt xi with
c = 1 + dt theta_k0 and xi ~ N(0, nu/dt), so its mean and variance follow

    m' = c m + dt theta_k1,    v' = c^2 v + dt nu.

Each viapoint adds E[(x_j - y_j)^2] / (2 sigma^2) = ((m_j - y_j)^2 + v_j) /
(2 sigma^2).  The log-ratio term gamma (a^2 - xi^2) dt / (2 nu) has
expectation gamma E[u_k^2] dt / (2 nu), with
E[u_k^2] = (theta_k0 m + theta_k1)^2 + theta_k0^2 v.  The sampler's mean
stochastic cost must agree with this within its standard error.
"""

import numpy as np
import pytest

from aspic import (LqViapoints, TimeVaryingLinearPolicy, lq_features,
                   make_env, sample_batch)
from helpers import LQ_SMALL

# |z| bound of the z-tests: a two-sided false-failure rate of 1e-6.
Z_MAX = 4.9


def exact_expected_cost(env: LqViapoints, theta, gamma: float) -> float:
    """E[S] under u_k = theta_k . [x, 1] from x_0 = 0, in O(T)."""
    theta = np.asarray(theta, dtype=float).reshape(env.num_steps, 2)
    targets = {int(round(t / env.dt)): y for t, y in env.viapoints}
    dt, nu, two_sigma2 = env.dt, env.nu, 2.0 * env.sigma ** 2
    m = v = total = 0.0
    for k, (gain, offset) in enumerate(theta):
        total += gamma * ((gain * m + offset) ** 2 + gain ** 2 * v) * dt / (
            2.0 * nu)
        c = 1.0 + dt * gain
        m, v = c * m + dt * offset, c * c * v + dt * nu
        if k + 1 in targets:
            total += ((m - targets[k + 1]) ** 2 + v) / two_sigma2
    return total


def sampled_z(env, theta, gamma, n, seed) -> float:
    policy = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                     env.noise_var, params=theta)
    costs = sample_batch(env, policy, n, seed, gamma).stochastic_costs
    se = np.std(costs, ddof=1) / np.sqrt(n)
    return (np.mean(costs) - exact_expected_cost(env, theta, gamma)) / se


def test_zero_policy_on_the_default_task():
    # 730,000 from the viapoint targets (the noise-free cost), plus
    # sum_j t_j nu / (2 sigma^2) = 45 / 0.02 = 2,250 from the state variance.
    env = LqViapoints()
    assert exact_expected_cost(env, np.zeros(2 * env.num_steps),
                               1.0) == pytest.approx(732_250.0, rel=1e-12)


def test_random_policy_matches_a_large_batch():
    env = make_env("lq_viapoints", LQ_SMALL)
    theta = np.random.default_rng(3).normal(scale=0.3, size=2 * env.num_steps)
    assert abs(sampled_z(env, theta, 1.0, 100_000, 7)) < Z_MAX


def test_zero_policy_matches_a_batch_on_the_default_task():
    env = LqViapoints()
    assert abs(sampled_z(env, np.zeros(2 * env.num_steps), 1.0,
                         20_000, 11)) < Z_MAX
