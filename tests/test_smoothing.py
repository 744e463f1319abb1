"""Tests for the exponential weights and the adaptive smoothing search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspic import find_alpha, kl_estimate, normalized_weights, weight_entropy


class TestNormalizedWeights:
    def test_constant_costs_uniform(self):
        w = normalized_weights([4.0, 4.0, 4.0], gamma=0.3, alpha=1.7)
        np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)

    def test_two_sample_softmax_ratio(self):
        gamma, alpha = 0.8, 1.4
        w = normalized_weights([0.0, (gamma + alpha) * np.log(2.0)],
                               gamma, alpha)
        np.testing.assert_allclose(w, [2 / 3, 1 / 3], rtol=1e-12)

    def test_huge_alpha_flattens(self):
        w = normalized_weights([0.0, 5.0, -3.0, 100.0], gamma=1.0, alpha=1e12)
        np.testing.assert_allclose(w, 0.25, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        costs = rng.normal(scale=50.0, size=20)
        w1 = normalized_weights(costs, 1.0, 0.5)
        w2 = normalized_weights(costs + 1234.5, 1.0, 0.5)
        np.testing.assert_allclose(w1, w2, rtol=1e-12)

    def test_large_cost_magnitudes_stay_finite(self):
        w = normalized_weights([1e3, 2e3, 5e2], gamma=1.0, alpha=0.0)
        assert np.all(np.isfinite(w))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_scale_overflows_to_zero_weight_quietly(self):
        w = normalized_weights([0.0, 1e10], 1e-300, 0.0)
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            normalized_weights([1.0, 2.0], gamma=0.0, alpha=0.0)

    def test_non_finite_cost_rejected(self):
        with pytest.raises(ValueError):
            normalized_weights([1.0, np.inf], gamma=1.0, alpha=0.0)


class TestWeightEntropy:
    def test_uniform_is_log_n(self):
        assert weight_entropy(np.full(8, 1 / 8)) == pytest.approx(np.log(8))

    def test_one_hot_is_zero(self):
        assert weight_entropy([0.0, 1.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert weight_entropy([0.5, 0.25, 0.25]) == pytest.approx(
            1.5 * np.log(2.0), rel=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            weight_entropy([0.5, 0.4])
        with pytest.raises(ValueError):
            weight_entropy([np.nan, 1.0])


class TestKlEstimate:
    def test_uniform_is_zero(self):
        assert kl_estimate(np.full(16, 1 / 16)) == 0.0

    def test_one_hot_is_log_n(self):
        w = np.zeros(100)
        w[13] = 1.0
        assert kl_estimate(w) == pytest.approx(np.log(100.0))

    def test_two_gaussian_fixture(self):
        # Samples from N(0,1), reweighted toward N(0.5,1): the weight
        # degeneracy should approach the analytic KL(N(0.5,1)||N(0,1)) = 1/8.
        n = 100_000
        rng = np.random.default_rng(42)
        x = rng.normal(size=n)
        # Costs whose softmax at scale 1 gives the density ratio.
        costs = -(0.5 * x - 0.125)
        w = normalized_weights(costs, gamma=1.0, alpha=0.0)
        assert kl_estimate(w) == pytest.approx(0.125, abs=0.01)


class TestFindAlpha:
    def test_equal_costs_return_floor(self):
        res = find_alpha([3.0, 3.0, 3.0], gamma=1.0, delta=0.1)
        assert res.alpha == 0.0
        assert res.kl_estimate == pytest.approx(0.0, abs=1e-12)

    def test_vacuous_delta_returns_floor(self):
        res = find_alpha([0.0, 100.0], gamma=1.0, delta=np.log(2.0) + 1e-9)
        assert res.alpha == 0.0

    def test_two_sample_bisection_oracle(self):
        costs = np.array([0.0, 10.0])
        gamma, delta = 1.0, 0.1

        def kl_two(alpha):
            p = 1.0 / (1.0 + np.exp(-10.0 / (gamma + alpha)))
            h = -(p * np.log(p) + (1 - p) * np.log(1 - p))
            return np.log(2.0) - h

        lo, hi = 0.0, 1.0
        while kl_two(hi) > delta:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if kl_two(mid) <= delta:
                hi = mid
            else:
                lo = mid
        alpha_oracle = hi

        res = find_alpha(costs, gamma, delta)
        assert res.alpha == pytest.approx(alpha_oracle, rel=2e-3)
        assert res.kl_estimate <= delta

    def test_minimality_witness(self):
        rng = np.random.default_rng(0)
        costs = rng.normal(scale=10.0, size=50)
        res = find_alpha(costs, gamma=1.0, delta=0.3)
        assert res.alpha > 0.0
        assert res.kl_estimate <= 0.3
        shrunk = kl_estimate(normalized_weights(costs, 1.0, res.alpha * 0.99))
        assert shrunk > 0.3

    def test_gamma_zero_uses_positive_floor(self):
        res = find_alpha([0.0, 0.0], gamma=0.0, delta=0.5)
        assert res.alpha > 0.0

    def test_result_fields_consistent(self):
        costs = np.random.default_rng(5).normal(size=10)
        res = find_alpha(costs, gamma=0.5, delta=0.2)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.kl_estimate == pytest.approx(
            max(0.0, np.log(10) - res.entropy), abs=1e-12)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            find_alpha([1.0, 2.0], gamma=1.0, delta=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_overflowing_spread_raises_instead_of_looping(self, gamma):
        with pytest.raises(ValueError, match="cost spread is not finite"):
            find_alpha([-1e308, 1e308], gamma=gamma, delta=0.1)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=30),
       st.floats(0.1, 10.0))
def test_kl_estimate_monotone_in_alpha(costs, gamma):
    costs = np.asarray(costs)
    alphas = np.geomspace(1e-3, 1e6, 12)
    kls = [kl_estimate(normalized_weights(costs, gamma, a)) for a in alphas]
    assert all(a >= b - 1e-12 for a, b in zip(kls, kls[1:]))


def _outlier(base, outlier, n, at):
    costs = [base] * n
    costs[at % n] = outlier
    return costs


huge = st.floats(-1e300, 1e300)
adversarial_costs = st.one_of(
    st.lists(huge, min_size=2, max_size=40),           # spreads up to 2e300
    st.builds(lambda c, n: [c] * n, huge, st.integers(2, 40)),       # ties
    st.builds(_outlier, huge, huge, st.integers(2, 40), st.integers(0, 39)),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=200)
@given(adversarial_costs, st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
       st.floats(1e-6, 10.0))
def test_find_alpha_on_adversarial_costs(costs, gamma, delta):
    res = find_alpha(costs, gamma, delta)
    assert np.isfinite(res.alpha) and res.alpha >= 0.0
    assert np.all(np.isfinite(res.weights)) and np.all(res.weights >= 0.0)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.kl_estimate <= delta
