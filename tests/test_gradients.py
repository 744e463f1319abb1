"""Tests for the score-function gradient estimators.

The finite-difference oracle uses the importance-reweighted evaluation of the
smoothed cost on a frozen batch: perturbing the parameters multiplies each
sample's contribution by the likelihood ratio of the new policy to the
sampling policy, which folds into the stochastic costs as
S_i - alpha * (log pi_new - log pi_old).  The gradient of that function at the
sampling parameters is exactly the negated unwhitened estimator.
"""

from dataclasses import replace

import numpy as np
import pytest

from aspic import (TimeVaryingLinearPolicy, direct_gradient,
                   lq_features, make_env, pice_gradient, sample_batch,
                   smoothed_cost_value, smoothed_gradient)

LQ_SMALL = dict(horizon=0.5, dt=0.1, viapoints=((0.2, 1.0), (0.5, -1.0)),
                sigma=0.5)


def make_fixture(seed=0, n=6, gamma=1.0):
    env = make_env("lq_viapoints", LQ_SMALL)
    policy = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                     env.noise_var)
    rng = np.random.default_rng(seed)
    policy = policy.with_params(rng.normal(scale=0.3,
                                           size=policy.params.size))
    batch = sample_batch(env, policy, n, seed, gamma)
    return batch, policy


def score_sum(policy, xs, actions):
    """sum_t grad log pi(a_t|x_t,t) of one rollout: J^T of the residual
    scaled by 1/sigma^2."""
    resid = (actions - policy.mean_steps(xs)) / policy.noise_var
    return policy.jac_t_v_steps(xs, resid)


def equal_cost_batch(batch, value=3.0):
    return replace(batch, stochastic_costs=np.full(batch.n, value))


class TestSmoothedGradient:
    def test_equal_costs_whitened_is_zero(self):
        batch, policy = make_fixture()
        grad = smoothed_gradient(equal_cost_batch(batch), policy, alpha=2.0)
        assert np.all(grad == 0.0)

    def test_equal_costs_unwhitened_is_mean_score(self):
        batch, policy = make_fixture()
        alpha = 2.0
        grad = smoothed_gradient(equal_cost_batch(batch), policy, alpha,
                                 whiten=False)
        xs, acts = batch.xs, batch.actions
        scores = np.stack([score_sum(policy, xs[i], acts[i])
                           for i in range(batch.n)])
        np.testing.assert_allclose(grad, alpha * scores.mean(axis=0),
                                   rtol=1e-10)

    def test_finite_difference_oracle(self):
        batch, policy = make_fixture(seed=3)
        alpha = 1.5
        xs, acts = batch.xs, batch.actions
        lp_old = np.sum(policy.log_prob_steps(xs, acts), axis=-1)
        s = batch.stochastic_costs

        def reweighted_value(params):
            pol = policy.with_params(params)
            lp_new = np.sum(pol.log_prob_steps(xs, acts), axis=-1)
            adjusted = s - alpha * (lp_new - lp_old)
            frozen = replace(batch, stochastic_costs=adjusted)
            return smoothed_cost_value(frozen, alpha)

        grad = smoothed_gradient(batch, policy, alpha, whiten=False)
        theta = policy.params
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(5):
            d = rng.normal(size=theta.size)
            d /= np.linalg.norm(d)
            fd = (reweighted_value(theta + h * d)
                  - reweighted_value(theta - h * d)) / (2 * h)
            analytic = -float(grad @ d)
            assert analytic == pytest.approx(fd, rel=1e-4)

    def test_whitened_direction_shift_invariant(self):
        batch, policy = make_fixture(seed=5)
        shifted = replace(batch,
                          stochastic_costs=batch.stochastic_costs + 77.0)
        g1 = smoothed_gradient(batch, policy, alpha=1e6)
        g2 = smoothed_gradient(shifted, policy, alpha=1e6)
        np.testing.assert_allclose(g1, g2, rtol=1e-9)

    def test_limit_chain_interpolates_continuously(self):
        batch, policy = make_fixture(seed=8, n=12)
        alphas = np.geomspace(1e-3, 1e9, 13)
        dirs = [smoothed_gradient(batch, policy, a) for a in alphas]
        for d1, d2 in zip(dirs, dirs[1:]):
            cos = d1 @ d2 / (np.linalg.norm(d1) * np.linalg.norm(d2))
            assert cos > 0.9


class TestDirectGradient:
    def test_constant_costs_whitened_zero(self):
        batch, policy = make_fixture()
        grad = direct_gradient(equal_cost_batch(batch), policy)
        assert np.all(grad == 0.0)

    def test_dominant_cost_anti_aligned(self):
        batch, policy = make_fixture(n=4)
        costs = np.zeros(4)
        costs[2] = 1e6
        loaded = replace(batch, stochastic_costs=costs)
        grad = direct_gradient(loaded, policy, whiten=False)
        xs, acts = batch.xs, batch.actions
        score = score_sum(policy, xs[2], acts[2])
        cos = grad @ score / (np.linalg.norm(grad) * np.linalg.norm(score))
        assert cos < -0.999

    def test_strong_smoothing_matches_direct(self):
        batch, policy = make_fixture(seed=2, n=10)
        g_smooth = smoothed_gradient(batch, policy, alpha=1e9)
        g_direct = direct_gradient(batch, policy)
        cos = g_smooth @ g_direct / (np.linalg.norm(g_smooth)
                                     * np.linalg.norm(g_direct))
        assert cos > 0.999


class TestPiceGradient:
    def test_limit_of_smoothed(self):
        batch, policy = make_fixture(seed=4)
        alpha = 1e-8
        g_lim = smoothed_gradient(batch, policy, alpha,
                                  whiten=False) / alpha
        g_pice = pice_gradient(batch, policy)
        np.testing.assert_allclose(g_lim, g_pice, rtol=1e-4)

    def test_equal_costs_is_mean_score(self):
        batch, policy = make_fixture()
        grad = pice_gradient(equal_cost_batch(batch), policy)
        xs, acts = batch.xs, batch.actions
        scores = np.stack([score_sum(policy, xs[i], acts[i])
                           for i in range(batch.n)])
        np.testing.assert_allclose(grad, scores.mean(axis=0),
                                   rtol=1e-10)

    def test_one_hot_limit(self):
        batch, policy = make_fixture(n=4)
        costs = np.full(4, 1e4)
        costs[1] = 0.0  # gap >> gamma: weight collapses onto sample 1
        loaded = replace(batch, stochastic_costs=costs)
        grad = pice_gradient(loaded, policy)
        xs, acts = batch.xs, batch.actions
        np.testing.assert_allclose(grad,
                                   score_sum(policy, xs[1], acts[1]),
                                   rtol=1e-8)

    def test_gamma_zero_rejected(self):
        batch, policy = make_fixture(gamma=0.0)
        with pytest.raises(ValueError):
            pice_gradient(batch, policy)


class TestSmoothedCostValue:
    def test_constant_costs(self):
        batch, _ = make_fixture()
        frozen = equal_cost_batch(batch, value=-12.5)
        for alpha in (0.01, 1.0, 1e6):
            assert smoothed_cost_value(frozen, alpha) == pytest.approx(-12.5)

    def test_large_alpha_approaches_mean(self):
        batch, _ = make_fixture(seed=6)
        mean = float(np.mean(batch.stochastic_costs))
        assert smoothed_cost_value(batch, 1e9) == pytest.approx(
            mean, rel=1e-6)

    def test_risk_sensitive_hand_value(self):
        batch, _ = make_fixture(n=3, gamma=0.0)
        frozen = replace(batch, gamma=0.0,
                         stochastic_costs=np.array([0.0, 1.0, 2.0]))
        expected = -np.log((1 + np.exp(-1.0) + np.exp(-2.0)) / 3.0)
        assert smoothed_cost_value(frozen, 1.0) == pytest.approx(
            expected, rel=1e-12)

    def test_non_finite_costs_rejected(self):
        batch, _ = make_fixture()
        frozen = replace(batch, stochastic_costs=np.array(
            [np.nan] + [0.0] * (batch.n - 1)))
        with pytest.raises(ValueError):
            smoothed_cost_value(frozen, 1.0)
