"""Tests for the score-function gradient estimators.

The finite-difference oracle uses the importance-reweighted evaluation of the
smoothed cost on a frozen batch: perturbing the parameters multiplies each
sample's contribution by the likelihood ratio of the new policy to the
sampling policy, which folds into the stochastic costs as
S_i - alpha * (log pi_new - log pi_old).  The gradient of that function at the
sampling parameters is exactly the negated unwhitened estimator.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from aspic import (direct_gradient, find_alpha, normalized_weights,
                   pice_gradient, smoothed_cost_value, smoothed_gradient,
                   stochastic_cost)
from helpers import lq_fixture, mlp_fixture, score_sum, with_costs


def equal_cost_batch(batch, value=3.0):
    return with_costs(batch, np.full(batch.n, value))


# All-equal costs whiten to zero coefficients, whose J^T is the zero
# gradient: through the linear policy's products and the MLP's backprop.
FIXTURES = pytest.mark.parametrize("fixture", [lq_fixture, mlp_fixture],
                                   ids=["linear", "mlp"])


class TestSmoothedGradient:
    @FIXTURES
    def test_equal_costs_whitened_is_zero(self, fixture):
        batch, policy = fixture(0)
        grad = smoothed_gradient(equal_cost_batch(batch), policy, alpha=2.0)
        assert np.all(grad == 0.0)

    def test_equal_costs_unwhitened_is_mean_score(self):
        batch, policy = lq_fixture(0)
        alpha = 2.0
        grad = smoothed_gradient(equal_cost_batch(batch), policy, alpha,
                                 whiten=False)
        xs, acts = batch.xs, batch.actions
        scores = np.stack([score_sum(policy, xs[:, i], acts[:, i])
                           for i in range(batch.n)])
        np.testing.assert_allclose(grad, alpha * scores.mean(axis=0),
                                   rtol=1e-10)

    def test_finite_difference_oracle(self):
        batch, policy = lq_fixture(3)
        alpha = 1.5
        xs, acts = batch.xs, batch.actions
        lp_old = np.sum(policy.log_prob_steps(xs, acts), axis=0)
        s = batch.stochastic_costs

        def reweighted_value(params):
            pol = policy.with_params(params)
            lp_new = np.sum(pol.log_prob_steps(xs, acts), axis=0)
            adjusted = s - alpha * (lp_new - lp_old)
            frozen = with_costs(batch, adjusted)
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
        batch, policy = lq_fixture(5)
        shifted = with_costs(batch, batch.stochastic_costs + 77.0)
        g1 = smoothed_gradient(batch, policy, alpha=1e6)
        g2 = smoothed_gradient(shifted, policy, alpha=1e6)
        np.testing.assert_allclose(g1, g2, rtol=1e-9)

    def test_limit_chain_interpolates_continuously(self):
        batch, policy = lq_fixture(8, n=12)
        alphas = np.geomspace(1e-3, 1e9, 13)
        dirs = [smoothed_gradient(batch, policy, a) for a in alphas]
        for d1, d2 in zip(dirs, dirs[1:]):
            cos = d1 @ d2 / (np.linalg.norm(d1) * np.linalg.norm(d2))
            assert cos > 0.9


class TestDirectGradient:
    @FIXTURES
    def test_constant_costs_whitened_zero(self, fixture):
        batch, policy = fixture(0)
        grad = direct_gradient(equal_cost_batch(batch), policy)
        assert np.all(grad == 0.0)

    def test_dominant_cost_anti_aligned(self):
        batch, policy = lq_fixture(0, n=4)
        costs = np.zeros(4)
        costs[2] = 1e6
        loaded = with_costs(batch, costs)
        grad = direct_gradient(loaded, policy, whiten=False)
        xs, acts = batch.xs, batch.actions
        score = score_sum(policy, xs[:, 2], acts[:, 2])
        cos = grad @ score / (np.linalg.norm(grad) * np.linalg.norm(score))
        assert cos < -0.999

    def test_strong_smoothing_matches_direct(self):
        batch, policy = lq_fixture(2, n=10)
        g_smooth = smoothed_gradient(batch, policy, alpha=1e9)
        g_direct = direct_gradient(batch, policy)
        cos = g_smooth @ g_direct / (np.linalg.norm(g_smooth)
                                     * np.linalg.norm(g_direct))
        assert cos > 0.999


class TestPiceGradient:
    def test_limit_of_smoothed(self):
        batch, policy = lq_fixture(4)
        alpha = 1e-8
        g_lim = smoothed_gradient(batch, policy, alpha,
                                  whiten=False) / alpha
        g_pice = pice_gradient(batch, policy)
        np.testing.assert_allclose(g_lim, g_pice, rtol=1e-4)

    def test_equal_costs_is_mean_score(self):
        batch, policy = lq_fixture(0)
        grad = pice_gradient(equal_cost_batch(batch), policy)
        xs, acts = batch.xs, batch.actions
        scores = np.stack([score_sum(policy, xs[:, i], acts[:, i])
                           for i in range(batch.n)])
        np.testing.assert_allclose(grad, scores.mean(axis=0),
                                   rtol=1e-10)

    def test_one_hot_limit(self):
        batch, policy = lq_fixture(0, n=4)
        costs = np.full(4, 1e4)
        costs[1] = 0.0  # gap >> gamma: weight collapses onto sample 1
        loaded = with_costs(batch, costs)
        grad = pice_gradient(loaded, policy)
        xs, acts = batch.xs, batch.actions
        np.testing.assert_allclose(grad,
                                   score_sum(policy, xs[:, 1], acts[:, 1]),
                                   rtol=1e-8)

    def test_gamma_zero_rejected(self):
        batch, policy = lq_fixture(0, gamma=0.0)
        with pytest.raises(ValueError):
            pice_gradient(batch, policy)


class TestSmoothedCostValue:
    def test_constant_costs(self):
        batch, _ = lq_fixture(0)
        frozen = equal_cost_batch(batch, value=-12.5)
        for alpha in (0.01, 1.0, 1e6):
            assert smoothed_cost_value(frozen, alpha) == pytest.approx(-12.5)

    def test_large_alpha_approaches_mean(self):
        batch, _ = lq_fixture(6)
        mean = float(np.mean(batch.stochastic_costs))
        assert smoothed_cost_value(batch, 1e9) == pytest.approx(
            mean, rel=1e-6)

    def test_risk_sensitive_hand_value(self):
        batch, _ = lq_fixture(0, n=3, gamma=0.0)
        frozen = with_costs(batch, np.array([0.0, 1.0, 2.0]), gamma=0.0)
        expected = -np.log((1 + np.exp(-1.0) + np.exp(-2.0)) / 3.0)
        assert smoothed_cost_value(frozen, 1.0) == pytest.approx(
            expected, rel=1e-12)

    def test_non_finite_costs_rejected(self):
        batch, _ = lq_fixture(0)
        frozen = with_costs(batch, np.array([np.nan] + [0.0] * (batch.n - 1)))
        with pytest.raises(ValueError):
            smoothed_cost_value(frozen, 1.0)


NAN = float("nan")


@pytest.mark.parametrize("call, name", [
    (lambda b: normalized_weights([1.0, 2.0], gamma=NAN, alpha=0.0), "gamma"),
    (lambda b: normalized_weights([1.0, 2.0], gamma=1.0, alpha=NAN), "alpha"),
    (lambda b: find_alpha([1.0, 2.0], gamma=1.0, delta=NAN), "delta"),
    (lambda b: find_alpha([1.0, 2.0], gamma=NAN, delta=1.0), "gamma"),
    (lambda b: stochastic_cost(b, NAN), "gamma"),
    (lambda b: replace(b, gamma=NAN), "gamma"),
    (lambda b: smoothed_cost_value(b, NAN), "alpha"),
    (lambda b: pice_gradient(SimpleNamespace(gamma=NAN), None), "gamma"),
], ids=["weights-gamma", "weights-alpha", "find_alpha-delta",
        "find_alpha-gamma", "stochastic_cost", "batch", "value-alpha",
        "pice-gamma"])
def test_nan_fails_the_positivity_checks(call, name):
    # NaN compares False with everything, so "x <= 0" lets it through.
    batch, _ = lq_fixture(0, n=3)
    with pytest.raises(ValueError, match=name):
        call(batch)
