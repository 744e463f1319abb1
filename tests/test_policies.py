"""Tests for the Gaussian policy families and their parameter plumbing."""

import itertools

import numpy as np
import pytest

from aspic import (MlpPolicy, TimeVaryingLinearPolicy, acrobot_features,
                   lq_features, pendulum_features)


def make_linear(num_steps=3, noise_var=1.0, seed=None):
    pol = TimeVaryingLinearPolicy(lq_features, 2, num_steps, noise_var)
    if seed is not None:
        rng = np.random.default_rng(seed)
        pol = pol.with_params(rng.normal(size=pol.params.size))
    return pol


def score_sum(pol, xs, actions):
    """sum_t grad log pi(a_t|x_t,t), formed as the estimators form it: J^T of
    the residual scaled by 1/sigma^2."""
    resid = (np.asarray(actions, dtype=float)
             - pol.mean_steps(xs)) / pol.noise_var
    return pol.jac_t_v_steps(xs, resid)


def step_score(pol, a, x, t):
    """grad log pi(a|x,t) for one step: the other steps sit at their mean."""
    xs = np.zeros((pol.num_steps, 1))
    xs[t] = x
    acts = pol.mean_steps(xs)
    acts[t] = a
    return score_sum(pol, xs, acts)


class TestFeatureMaps:
    def test_lq(self):
        np.testing.assert_allclose(lq_features(np.array([2.5])), [2.5, 1.0])

    def test_pendulum(self):
        f = pendulum_features(np.array([np.pi / 2, 3.0]))
        np.testing.assert_allclose(f, [np.cos(np.pi / 2), 1.0, 3.0, 1.0],
                                   atol=1e-15)

    def test_acrobot_has_nine_terms(self):
        f = acrobot_features(np.array([0.3, 0.7, -1.0, 2.0]))
        assert f.shape == (9,)
        # The basis repeats sin(x2); the solvers handle the rank deficiency.
        assert f[1] == f[3] == pytest.approx(np.sin(0.7))
        assert f[8] == 1.0

    def test_batched_evaluation(self):
        xs = np.random.default_rng(0).normal(size=(4, 7, 2))
        assert pendulum_features(xs).shape == (4, 7, 4)


class TestLogProb:
    def test_at_mode_unit_variance(self):
        pol = make_linear(noise_var=1.0)
        lp = pol.log_prob_steps(np.zeros((3, 1)), np.zeros((3, 1)))
        assert lp[0] == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_unit_residual(self):
        pol = make_linear(noise_var=1.0)
        lp = pol.log_prob_steps(np.zeros((3, 1)), np.ones((3, 1)))
        assert lp[1] == pytest.approx(-0.5 - 0.5 * np.log(2 * np.pi))

    def test_steps_match_single(self):
        pol = make_linear(num_steps=4, noise_var=2.5, seed=1)
        xs = np.random.default_rng(2).normal(size=(4, 1))
        acts = np.random.default_rng(3).normal(size=(4, 1))
        lp = pol.log_prob_steps(xs, acts)
        theta = pol.params.reshape(4, 2)
        for t in range(4):
            u = theta[t] @ lq_features(xs[t])
            single = (-(acts[t, 0] - u) ** 2 / (2 * 2.5)
                      - 0.5 * np.log(2 * np.pi * 2.5))
            assert lp[t] == pytest.approx(single)


class TestConstruction:
    @pytest.mark.parametrize("noise_var", [0.0, -1.0])
    def test_nonpositive_variance_rejected(self, noise_var):
        with pytest.raises(ValueError, match="variance"):
            TimeVaryingLinearPolicy(lq_features, 2, 3, noise_var)
        with pytest.raises(ValueError, match="variance"):
            MlpPolicy([2, 8, 1], noise_var, rng=np.random.default_rng(0))

    def test_linear_params_available_at_construction(self):
        pol = TimeVaryingLinearPolicy(pendulum_features, 4, 5, 1.0)
        np.testing.assert_array_equal(pol.params, np.zeros(20))
        assert pol.with_params(np.ones(20)).params.sum() == 20.0

    def test_linear_wrong_param_count_rejected(self):
        with pytest.raises(ValueError, match="expected 6 parameters"):
            TimeVaryingLinearPolicy(lq_features, 2, 3, 1.0,
                                    params=np.zeros(5))
        with pytest.raises(ValueError):
            make_linear(num_steps=3).with_params(np.zeros(8))


class TestLinearPolicy:
    def test_score_hand_value(self):
        # Features [2, 1], residual 3, unit variance: block [6, 3] at time t.
        pol = make_linear(num_steps=3, noise_var=1.0)
        s = step_score(pol, np.array([3.0]), np.array([2.0]), 1)
        np.testing.assert_allclose(s, [0, 0, 6, 3, 0, 0])

    def test_score_zero_at_mean(self):
        pol = make_linear(seed=4)
        x = np.array([1.3])
        a = pol.mean(x, 2)
        np.testing.assert_allclose(step_score(pol, a, x, 2), 0.0, atol=1e-14)

    def test_time_block_sparsity(self):
        pol = make_linear(num_steps=5, seed=7)
        xs = np.random.default_rng(8).normal(size=(5, 1))
        acts = np.random.default_rng(9).normal(size=(5, 1))
        base_lp = pol.log_prob_steps(xs, acts)
        theta = pol.params
        theta[2 * pol.num_features] += 0.5  # perturb the t=2 block
        new_lp = pol.with_params(theta).log_prob_steps(xs, acts)
        changed = np.nonzero(new_lp != base_lp)[0]
        np.testing.assert_array_equal(changed, [2])

    def test_jacobian_products_consistent(self):
        pol = make_linear(num_steps=4, seed=10)
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(6, 4, 1))
        y = rng.normal(size=pol.params.size)
        v = rng.normal(size=(6, 4, 1))
        # <J y, v> == <y, J^T v> (adjoint identity).
        lhs = float(np.sum(pol.jac_y_steps(xs, y) * v))
        rhs = float(y @ pol.jac_t_v_steps(xs, v))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_score_matches_score_sum(self):
        pol = make_linear(num_steps=3, seed=12)
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(3, 1))
        acts = rng.normal(size=(3, 1))
        total = sum(step_score(pol, acts[t], xs[t], t) for t in range(3))
        np.testing.assert_allclose(score_sum(pol, xs, acts), total,
                                   rtol=1e-12)


class TestMlpPolicy:
    def setup_method(self):
        self.pol = MlpPolicy([2, 8, 5, 1], noise_var=2.0,
                             rng=np.random.default_rng(0))

    def test_glorot_bounds(self):
        flat = self.pol.params
        off = 0
        for fan_in, fan_out in zip(self.pol.layer_sizes,
                                   self.pol.layer_sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = flat[off:off + fan_in * fan_out]
            assert np.all(np.abs(w) <= bound)
            off += fan_in * fan_out
            b = flat[off:off + fan_out]
            np.testing.assert_array_equal(b, 0.0)
            off += fan_out

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=2)
        a = rng.normal(size=1)
        score = score_sum(self.pol, x, a)
        theta = self.pol.params
        h = 1e-6
        coords = rng.choice(theta.size, size=20, replace=False)
        for c in coords:
            tp, tm = theta.copy(), theta.copy()
            tp[c] += h
            tm[c] -= h
            fd = (self.pol.with_params(tp).log_prob_steps(x, a)
                  - self.pol.with_params(tm).log_prob_steps(x, a)) / (2 * h)
            assert score[c] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_jac_y_matches_directional_derivative(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(3, 4, 2))
        y = rng.normal(size=self.pol.params.size)
        h = 1e-6
        theta = self.pol.params
        fd = (self.pol.with_params(theta + h * y).mean_steps(xs)
              - self.pol.with_params(theta - h * y).mean_steps(xs)) / (2 * h)
        np.testing.assert_allclose(self.pol.jac_y_steps(xs, y), fd,
                                   rtol=1e-5, atol=1e-8)

    def test_jacobian_adjoint_identity(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5, 2))
        y = rng.normal(size=self.pol.params.size)
        v = rng.normal(size=(5, 1))
        lhs = float(np.sum(self.pol.jac_y_steps(xs, y) * v))
        rhs = float(y @ self.pol.jac_t_v_steps(xs, v))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError):
            MlpPolicy([2, 8, 1], 1.0, params=np.zeros(3))


def frozen(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def mlp_calls(pol, xs, y, v):
    """The three batched network calls, by name."""
    return {"mean": lambda: pol.mean_steps(xs),
            "jac_y": lambda: pol.jac_y_steps(xs, y),
            "jac_t_v": lambda: pol.jac_t_v_steps(xs, v)}


class TestMlpActivationCache:
    """A read-only xs is evaluated once per policy; results never change."""

    def setup_method(self):
        self.pol = MlpPolicy([2, 8, 5, 1], noise_var=2.0,
                             rng=np.random.default_rng(0))
        rng = np.random.default_rng(30)
        self.xs = frozen(rng.normal(size=(6, 4, 2)))
        self.y = rng.normal(size=self.pol.params.size)
        self.v = rng.normal(size=(6, 4, 1))

    def expected(self, xs):
        """Each call on a fresh policy and a writable copy of xs."""
        fresh = self.pol.with_params(self.pol.params)
        return {name: call() for name, call in
                mlp_calls(fresh, np.array(xs), self.y, self.v).items()}

    @pytest.mark.parametrize("order", list(itertools.permutations(
        ["mean", "jac_y", "jac_t_v"])))
    def test_frozen_batch_matches_fresh_policy_in_any_order(self, order):
        want = self.expected(self.xs)
        pol = self.pol.with_params(self.pol.params)
        calls = mlp_calls(pol, self.xs, self.y, self.v)
        for name in order + order:
            np.testing.assert_array_equal(calls[name](), want[name])
        assert pol._cached[0] is self.xs

    def test_inputs_and_returned_mean_do_not_touch_the_cache(self):
        v = self.v.copy()
        out = self.pol.mean_steps(self.xs)
        out += 1.0
        self.pol.jac_t_v_steps(self.xs, v)
        np.testing.assert_array_equal(v, self.v)
        np.testing.assert_array_equal(self.pol.mean_steps(self.xs),
                                      self.expected(self.xs)["mean"])

    def test_writable_array_changed_between_calls(self):
        xs = np.array(self.xs)
        calls = mlp_calls(self.pol, xs, self.y, self.v)
        before = {name: call() for name, call in calls.items()}
        xs += 0.5
        want = self.expected(xs)
        for name, call in calls.items():
            got = call()
            np.testing.assert_array_equal(got, want[name])
            assert not np.array_equal(got, before[name])
        assert self.pol._cached[0] is None

    def test_read_only_view_of_writable_base_is_not_cached(self):
        base = np.array(self.xs)
        view = base[:]
        view.flags.writeable = False
        first = self.pol.mean_steps(view)
        base += 0.5
        np.testing.assert_array_equal(self.pol.mean_steps(view),
                                      self.expected(base)["mean"])
        assert not np.array_equal(first, self.pol.mean_steps(view))

    def test_second_read_only_array_gets_its_own_activations(self):
        other = frozen(self.xs + 0.5)
        for xs in (self.xs, other, self.xs, other):
            want = self.expected(xs)
            for name, call in mlp_calls(self.pol, xs, self.y,
                                        self.v).items():
                np.testing.assert_array_equal(call(), want[name])


@pytest.mark.parametrize("family", ["linear", "mlp"])
def test_score_identity(family):
    # E[score] = 0 when actions are drawn from the policy itself.
    rng = np.random.default_rng(20)
    if family == "linear":
        pol = make_linear(num_steps=2, noise_var=1.0, seed=21)
        x = np.array([0.7])
        t = 1
    else:
        pol = MlpPolicy([1, 6, 1], 1.0, rng=rng)
        x = np.array([0.7])
        t = 0
    n = 40_000
    u = float(np.squeeze(pol.mean(x, t)))
    actions = u + rng.normal(0, 1.0, size=n)
    if family == "linear":
        scores = np.stack([step_score(pol, np.array([a]), x, t)
                           for a in actions[:n]])
    else:
        scores = np.stack([score_sum(pol, x, np.array([a]))
                           for a in actions[:n]])
    mean = scores.mean(axis=0)
    se = scores.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(mean) <= 3 * se + 1e-12)
