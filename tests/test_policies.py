"""Tests for the Gaussian policy families and their parameter plumbing."""

import dataclasses
import itertools
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from aspic import (MlpPolicy, TimeVaryingLinearPolicy, acrobot_features,
                   lq_features, make_env, pendulum_features,
                   per_timestep_natural_direction, policies, sample_batch,
                   smoothed_gradient, trust_region_step)
from helpers import array_batch, batch_of, score_sum


def make_linear(num_steps=3, noise_var=1.0, seed=None):
    pol = TimeVaryingLinearPolicy(lq_features, 2, num_steps, noise_var)
    if seed is not None:
        rng = np.random.default_rng(seed)
        pol = pol.with_params(rng.normal(size=pol.params.size))
    return pol


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

    @pytest.mark.parametrize("feature_fn, dim, wrong", [
        (fn, dim, wrong) for fn, dim in ((lq_features, 1),
                                         (pendulum_features, 2),
                                         (acrobot_features, 4))
        for wrong in (1, 2, 4) if wrong != dim])
    def test_other_state_dim_names_xs(self, feature_fn, dim, wrong):
        with pytest.raises(ValueError, match=rf"^xs has shape \(3, {wrong}\), "
                           rf"expected a last axis of {dim}$"):
            feature_fn(np.zeros((3, wrong)))


class TestLogProb:
    def test_at_mode_unit_variance(self):
        pol = make_linear(noise_var=1.0)
        lp = pol.log_prob_steps(np.zeros((3, 1)), np.zeros(3))
        assert lp[0] == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_unit_residual(self):
        pol = make_linear(noise_var=1.0)
        lp = pol.log_prob_steps(np.zeros((3, 1)), np.ones(3))
        assert lp[1] == pytest.approx(-0.5 - 0.5 * np.log(2 * np.pi))

    def test_steps_match_single(self):
        pol = make_linear(num_steps=4, noise_var=2.5, seed=1)
        xs = np.random.default_rng(2).normal(size=(4, 1))
        acts = np.random.default_rng(3).normal(size=4)
        lp = pol.log_prob_steps(xs, acts)
        theta = pol.params.reshape(4, 2)
        for t in range(4):
            u = theta[t] @ lq_features(xs[t])
            single = (-(acts[t] - u) ** 2 / (2 * 2.5)
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
        s = step_score(pol, 3.0, np.array([2.0]), 1)
        np.testing.assert_allclose(s, [0, 0, 6, 3, 0, 0])

    def test_score_zero_at_mean(self):
        pol = make_linear(seed=4)
        x = np.array([1.3])
        a = pol.mean(x, 2)
        np.testing.assert_allclose(step_score(pol, a, x, 2), 0.0, atol=1e-14)

    def test_time_block_sparsity(self):
        pol = make_linear(num_steps=5, seed=7)
        xs = np.random.default_rng(8).normal(size=(5, 1))
        acts = np.random.default_rng(9).normal(size=5)
        base_lp = pol.log_prob_steps(xs, acts)
        theta = pol.params
        theta[2 * pol.num_features] += 0.5  # perturb the t=2 block
        new_lp = pol.with_params(theta).log_prob_steps(xs, acts)
        changed = np.nonzero(new_lp != base_lp)[0]
        np.testing.assert_array_equal(changed, [2])

    def test_jacobian_products_consistent(self):
        pol = make_linear(num_steps=4, seed=10)
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(4, 6, 1))
        y = rng.normal(size=pol.params.size)
        v = rng.normal(size=(4, 6))
        # <J y, v> == <y, J^T v> (adjoint identity).
        lhs = float(np.sum(pol.jac_y_steps(xs, y) * v))
        rhs = float(y @ pol.jac_t_v_steps(xs, v))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_score_matches_score_sum(self):
        pol = make_linear(num_steps=3, seed=12)
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(3, 1))
        acts = rng.normal(size=3)
        total = sum(step_score(pol, acts[t], xs[t], t) for t in range(3))
        np.testing.assert_allclose(score_sum(pol, xs, acts), total,
                                   rtol=1e-12)


# (feature map, state_dim, K) of each task's linear controller
LINEAR_MAPS = [(lq_features, 1, 2), (pendulum_features, 2, 4),
               (acrobot_features, 4, 9)]


class TestLinearStepCount:
    """The products read block theta_t at step t of ``xs``, so ``xs`` with
    50 steps handed to a 100-step policy would read theta_0 for rollouts
    0-1 and theta_1 for rollouts 2-3: each is a ValueError naming ``xs``,
    for a bare array and for a 50-step batch with and without its stored
    features.  ``fisher_trace`` and the per-timestep solve take a batch."""

    policy = TimeVaryingLinearPolicy(lq_features, 2, 100, 1.0,
                                     params=np.arange(200.0))
    CALLS = {
        "mean_steps": lambda pol, xs: pol.mean_steps(xs),
        "jac_y_steps": lambda pol, xs: pol.jac_y_steps(xs, np.ones(200)),
        "jac_t_v_steps": lambda pol, xs: pol.jac_t_v_steps(
            xs, np.ones((50, 4))),
        "fisher_trace": lambda pol, xs: pol.fisher_trace(xs),
        "per_timestep_natural_direction":
            lambda pol, xs: per_timestep_natural_direction(xs, pol,
                                                           np.ones(200)),
    }

    @staticmethod
    def short_xs(kind):
        if kind == "array":
            return np.ones((50, 4, 1))
        env = make_env("lq_viapoints", {"horizon": 5.0,
                                        "viapoints": ((1.0, -10.0),)})
        sampler = TimeVaryingLinearPolicy(lq_features, 2, 50, env.noise_var)
        batch = sample_batch(env, sampler, 4, 0, gamma=1.0)
        assert batch.features.shape == (50, 4, 2)
        return batch if kind == "batch" else dataclasses.replace(
            batch, features=None)

    @pytest.mark.parametrize("kind, call", [
        (kind, call) for call in CALLS
        for kind in ("array", "batch", "batch without features")
        if kind != "array" or call in ("mean_steps", "jac_y_steps",
                                       "jac_t_v_steps")])
    def test_wrong_step_count_names_xs(self, kind, call):
        xs = self.short_xs(kind)
        with pytest.raises(ValueError, match=r"^xs has shape \(50, 4, 1\)"):
            self.CALLS[call](self.policy, xs)


class TestLinearFeatureCount:
    """A batch whose stored features have another column count than the
    policy's ``num_features``, here a 4-feature pendulum policy handed a
    9-feature acrobot batch of the same step count, is a ValueError naming
    ``features`` wherever the policy reads them: unchecked, ``fisher_trace``
    summed the wrong features and the products failed in a reshape."""

    policy = TimeVaryingLinearPolicy(pendulum_features, 4, 10, 1.0)
    CALLS = {
        "mean_steps": lambda pol, b: pol.mean_steps(b),
        "jac_y_steps": lambda pol, b: pol.jac_y_steps(b, np.ones(40)),
        "jac_t_v_steps": lambda pol, b: pol.jac_t_v_steps(
            b, np.ones((10, 4))),
        "fisher_trace": lambda pol, b: pol.fisher_trace(b),
        "per_timestep_natural_direction":
            lambda pol, b: per_timestep_natural_direction(b, pol,
                                                          np.ones(40)),
    }

    @staticmethod
    def acrobot_batch():
        env = make_env("acrobot", {"horizon": 0.1})
        sampler = TimeVaryingLinearPolicy(acrobot_features, 9, env.num_steps,
                                          env.noise_var)
        return sample_batch(env, sampler, 4, 0, gamma=1.0)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_wrong_feature_count_names_features(self, call):
        batch = self.acrobot_batch()
        with pytest.raises(ValueError, match=r"^features has shape "
                           r"\(10, 4, 9\), expected 4 columns"):
            self.CALLS[call](self.policy, batch)


class TestLinearStateDim:
    """A batch without stored features of another task's states, here a
    4-feature pendulum policy handed a 10-step acrobot batch with
    ``features=None``, is a ValueError naming ``xs``: unchecked, the
    pendulum map read the 4-d states, ``fisher_trace`` returned 20.0008 and
    the per-timestep solve took a step."""

    policy = TimeVaryingLinearPolicy(pendulum_features, 4, 10, 1.0)

    @staticmethod
    def acrobot_batch():
        return dataclasses.replace(TestLinearFeatureCount.acrobot_batch(),
                                   features=None)

    @pytest.mark.parametrize("call", [
        lambda pol, b: pol.fisher_trace(b),
        lambda pol, b: trust_region_step(b, pol, np.ones(40), 0.1,
                                         "per_timestep_pinv"),
        lambda pol, b: trust_region_step(b, pol, np.ones(40), 0.1, "cg")],
        ids=["fisher_trace", "per_timestep_pinv", "cg"])
    def test_other_task_states_name_xs(self, call):
        with pytest.raises(ValueError, match=r"^xs has shape \(10, 4, 4\), "
                           r"expected a last axis of 2$"):
            call(self.policy, self.acrobot_batch())


class TestLinearProductsOracle:
    """The step-major products against explicit per-step loops over
    ``feature_fn(x_t)``, at T = 5 steps with 0, 1 (N = 7) and 2 rollout
    axes after the time axis."""

    T = 5

    def case(self, feature_fn, state_dim, k, lead):
        rng = np.random.default_rng(k * 10 + len(lead))
        pol = TimeVaryingLinearPolicy(feature_fn, k, self.T, 1.7,
                                      params=rng.normal(size=k * self.T))
        xs = rng.normal(size=(self.T,) + lead + (state_dim,))
        return pol, xs, rng

    @pytest.mark.parametrize("lead", [(), (7,), (3, 2)])
    @pytest.mark.parametrize("feature_fn, state_dim, k", LINEAR_MAPS)
    def test_means_are_the_per_step_dot_products(self, feature_fn,
                                                 state_dim, k, lead):
        pol, xs, rng = self.case(feature_fn, state_dim, k, lead)
        y = rng.normal(size=pol.params.size)
        for coef, got in ((pol.params, pol.mean_steps(xs)),
                          (y, pol.jac_y_steps(xs, y))):
            assert got.shape == (self.T,) + lead
            for t, c in enumerate(coef.reshape(self.T, k)):
                phi = feature_fn(xs[t])
                # rtol 1e-13 of the sum of the terms' magnitudes
                bound = 1e-13 * (np.abs(phi) @ np.abs(c))
                assert np.all(np.abs(got[t] - phi @ c) <= bound)

    @pytest.mark.parametrize("lead", [(), (7,), (3, 2)])
    @pytest.mark.parametrize("feature_fn, state_dim, k", LINEAR_MAPS)
    def test_transpose_product_is_the_adjoint(self, feature_fn, state_dim,
                                              k, lead):
        pol, xs, rng = self.case(feature_fn, state_dim, k, lead)
        y = rng.normal(size=pol.params.size)
        v = rng.normal(size=(self.T,) + lead)
        jtv = pol.jac_t_v_steps(xs, v)
        want = [np.sum(feature_fn(xs[t]) * v[t][..., None],
                       axis=tuple(range(len(lead)))) for t in range(self.T)]
        np.testing.assert_allclose(jtv, np.concatenate(want), rtol=1e-13,
                                   atol=1e-13 * np.abs(jtv).max())
        # <J y, v> = <y, J^T v>
        assert float(np.sum(pol.jac_y_steps(xs, y) * v)) == pytest.approx(
            float(y @ jtv), rel=1e-12)

    @pytest.mark.parametrize("feature_fn, state_dim, k", LINEAR_MAPS)
    def test_fisher_trace_is_the_dense_trace(self, feature_fn, state_dim,
                                             k):
        pol, xs, rng = self.case(feature_fn, state_dim, k, (7,))
        batch = array_batch(rng.normal(size=(self.T + 1, 7, state_dim)))
        phi = feature_fn(batch.xs)  # (T, N, K)
        jac = np.zeros((7, self.T, self.T, k))  # row (i, t), block t
        for t in range(self.T):
            jac[:, t, t] = phi[t]
        jac = jac.reshape(7 * self.T, self.T * k)
        dense = jac.T @ jac / (7 * pol.noise_var)
        assert pol.fisher_trace(batch) == pytest.approx(np.trace(dense),
                                                        rel=1e-13)


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
        a = rng.normal()
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
        v = rng.normal(size=5)
        lhs = float(np.sum(self.pol.jac_y_steps(xs, y) * v))
        rhs = float(y @ self.pol.jac_t_v_steps(xs, v))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError):
            MlpPolicy([2, 8, 1], 1.0, params=np.zeros(3))

    @pytest.mark.parametrize("sizes", [[2, 8, 2], [2, 8, 0], [2, 3]])
    def test_vector_output_rejected(self, sizes):
        with pytest.raises(ValueError, match="layer_sizes"):
            MlpPolicy(sizes, 1.0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("task, dim", [("acrobot", 4),
                                           ("lq_viapoints", 1)])
    def test_other_state_dim_names_xs(self, task, dim):
        # Unchecked, a 2-input network failed in an unnamed numpy reshape.
        env = make_env(task)
        pol = MlpPolicy([2, 8, 1], env.noise_var,
                        rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=rf"^xs has shape \(4, {dim}\), "
                           r"expected a last axis of 2$"):
            sample_batch(env, pol, 4, 0, gamma=1.0)
        with pytest.raises(ValueError, match=r"^xs has shape"):
            pol.jac_t_v_steps(np.zeros((3, 4, dim)), np.zeros((3, 4)))

    def test_needs_params_or_rng(self):
        with pytest.raises(ValueError, match="params or a seeded rng"):
            MlpPolicy([2, 8, 1], 1.0)


def reference_products(sizes, params, xs, y, v):
    """J y by forward mode and J^T v by reverse mode, propagated layer by
    layer through the tanh slopes: the sensitivity-free reference."""
    def unflatten(flat):
        off, out = 0, []
        for m, n in zip(sizes, sizes[1:]):
            out.append((flat[off:off + m * n].reshape(m, n),
                        flat[off + m * n:off + m * n + n]))
            off += m * n + n
        return out

    layers = unflatten(params)
    acts = [np.asarray(xs, dtype=float).reshape(-1, sizes[0])]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if i < len(layers) - 1 else z)
    dh = np.zeros_like(acts[0])
    for i, ((w, _), (dw, db)) in enumerate(zip(layers, unflatten(y))):
        dh = dh @ w + acts[i] @ dw + db
        if i < len(layers) - 1:
            dh = dh * (1 - acts[i + 1] ** 2)
    g, grads = np.reshape(v, (-1, 1)), []
    for i in range(len(layers) - 1, -1, -1):
        if i < len(layers) - 1:
            g = g * (1 - acts[i + 1] ** 2)
        grads[:0] = [(acts[i].T @ g).ravel(), g.sum(axis=0)]
        g = g @ layers[i][0].T
    return dh.reshape(np.shape(xs)[:-1]), np.concatenate(grads)


@pytest.mark.parametrize("sizes", [[2, 8, 1], [2, 8, 5, 1], [2, 32, 32, 1],
                                   [2, 8, 5, 7, 1]])
@pytest.mark.parametrize("rows", [1, 50, policies.BLOCK_ROWS,
                                  2 * policies.BLOCK_ROWS + 17])
def test_jacobian_products_match_propagation_reference(sizes, rows):
    pol = MlpPolicy(sizes, noise_var=2.0, rng=np.random.default_rng(rows))
    rng = np.random.default_rng(len(sizes) + rows)
    xs = frozen(rng.normal(size=(rows, 2)))
    y = rng.normal(size=pol.num_params)
    v = rng.normal(size=rows)
    jy, jtv = reference_products(sizes, pol.params, xs, y, v)
    # Both forms sum the same products in another order.  An entry that
    # cancels far below the largest one keeps the largest one's round-off,
    # so the tolerance is relative to the largest entry.
    for got, want in [(pol.jac_y_steps(xs, y), jy),
                      (pol.jac_t_v_steps(xs, v), jtv),
                      (pol.jac_y_steps(np.array(xs), y), jy)]:
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def frozen(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def mlp_calls(pol, xs, y, v):
    """The three batched network calls, by name."""
    return {"mean": lambda: pol.mean_steps(xs),
            "jac_y": lambda: pol.jac_y_steps(xs, y),
            "jac_t_v": lambda: pol.jac_t_v_steps(xs, v)}


def peak_bytes(call):
    """Allocation peak of a second call, after one that warms it up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMlpActivationCache:
    """A batch is evaluated once per policy and kept; a bare array is
    evaluated afresh on every call.  Results never change."""

    def setup_method(self):
        self.pol = MlpPolicy([2, 8, 5, 1], noise_var=2.0,
                             rng=np.random.default_rng(0))
        rng = np.random.default_rng(30)
        self.batch = batch_of(rng.normal(size=(6, 4, 2)))
        self.y = rng.normal(size=self.pol.params.size)
        self.v = rng.normal(size=(6, 4))

    def expected(self, xs, pol=None, y=None, v=None):
        """Each call on a fresh policy and a writable copy of xs, copied
        as soon as it returns."""
        pol = self.pol if pol is None else pol
        fresh = pol.with_params(pol.params)
        return {name: np.array(call()) for name, call in mlp_calls(
            fresh, np.array(xs), self.y if y is None else y,
            self.v if v is None else v).items()}

    @pytest.mark.parametrize("order", list(itertools.permutations(
        ["mean", "jac_y", "jac_t_v"])))
    def test_frozen_batch_matches_fresh_policy_in_any_order(self, order):
        want = self.expected(self.batch.xs)
        pol = self.pol.with_params(self.pol.params)
        calls = mlp_calls(pol, self.batch, self.y, self.v)
        for name in order + order:
            np.testing.assert_array_equal(calls[name](), want[name])
        assert pol._kept[0] is self.batch

    def test_inputs_and_returned_mean_do_not_touch_the_cache(self):
        v = self.v.copy()
        out = self.pol.mean_steps(self.batch)
        out += 1.0
        self.pol.jac_t_v_steps(self.batch, v)
        np.testing.assert_array_equal(v, self.v)
        np.testing.assert_array_equal(self.pol.mean_steps(self.batch),
                                      self.expected(self.batch.xs)["mean"])

    def test_second_batch_gets_its_own_activations(self):
        other = batch_of(self.batch.xs + 0.5)
        for batch in (self.batch, other, self.batch, other):
            want = self.expected(batch.xs)
            for name, call in mlp_calls(self.pol, batch, self.y,
                                        self.v).items():
                np.testing.assert_array_equal(call(), want[name])
            assert self.pol._kept[0] is batch

    def test_bare_array_calls_leave_the_kept_batch_alone(self):
        self.pol.mean_steps(self.batch)
        kept = self.pol._kept
        # The batch's own xs is a bare array too: evaluated, not kept.
        for xs in (self.batch.xs, frozen(self.batch.xs + 0.5)):
            want = self.expected(xs)
            for name, call in mlp_calls(self.pol, xs, self.y,
                                        self.v).items():
                np.testing.assert_array_equal(call(), want[name])
            assert self.pol._kept is kept
        want = self.expected(self.batch.xs)
        for name, call in mlp_calls(self.pol, self.batch, self.y,
                                    self.v).items():
            np.testing.assert_array_equal(call(), want[name])

    def test_concurrent_threads_get_the_serial_results(self):
        def work(pol, batch, y, start=lambda: None):
            start()
            out = []
            for k in range(30):
                out.append(pol.jac_t_v_steps(batch, pol.jac_y_steps(batch, y)))
                step = pol.with_params(pol.params + 1e-3 * k * y)
                out.append(step.mean_steps(batch))
            return out

        rng = np.random.default_rng(32)
        jobs = []
        # Batches large enough for numpy to release the GIL in its loops.
        for sizes, shape in [([2, 8, 5, 1], (30, 30, 2)),
                             ([2, 16, 12, 1], (40, 30, 2))]:
            pol = MlpPolicy(sizes, noise_var=1.0, rng=rng)
            jobs.append((pol, batch_of(rng.normal(size=shape)),
                         rng.normal(size=pol.params.size)))
        serial = [work(*job) for job in jobs]
        start = threading.Barrier(2, timeout=60).wait
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(work, *job, start) for job in jobs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, threaded):
            for a, b in zip(want, got, strict=True):
                np.testing.assert_array_equal(a, b)

    def big_case(self):
        """A batch of (50, 100) states, more than two row blocks, through
        32-wide layers: one (5000, 32) hidden array is 1,280,000 bytes, more
        than the calls below may allocate."""
        pol = MlpPolicy([2, 32, 32, 1], noise_var=2.0,
                        rng=np.random.default_rng(0))
        rng = np.random.default_rng(33)
        batch = batch_of(rng.normal(size=(50, 100, 2)))
        assert batch.xs.size // 2 > 2 * policies.BLOCK_ROWS
        return pol, batch, rng.normal(size=pol.params.size), 50 * 100 * 32 * 8

    def test_fisher_vector_product_allocates_no_hidden_layer(self):
        pol, batch, y, limit = self.big_case()
        assert peak_bytes(lambda: pol.jac_t_v_steps(
            batch, pol.jac_y_steps(batch, y))) < limit

    def test_line_search_log_prob_allocates_no_hidden_layer(self):
        # A trial policy is handed the batch's bare xs.
        pol, batch, y, limit = self.big_case()
        actions = pol.mean_steps(batch) + 0.1
        params = pol.params + 1e-2 * y
        assert peak_bytes(lambda: pol.with_params(params).log_prob_steps(
            batch.xs, actions)) < limit

    def test_smoothed_gradient_runs_the_network_once(self, monkeypatch):
        env = make_env("pendulum", {"horizon": 0.5})
        pol = MlpPolicy([2, 8, 1], env.noise_var,
                        rng=np.random.default_rng(3))
        batch = sample_batch(env, pol, 6, 34, gamma=1.0)
        passes = []
        forward = MlpPolicy._forward
        monkeypatch.setattr(MlpPolicy, "_forward", lambda self, *args, **kw:
                            passes.append(1) or forward(self, *args, **kw))
        smoothed_gradient(batch, pol, alpha=1.0)
        assert len(passes) == 1
        # The kept mean is a bare-array forward's, bit for bit.
        np.testing.assert_array_equal(
            pol.mean_steps(batch),
            pol.with_params(pol.params).mean_steps(np.array(batch.xs)))

    def test_cache_build_allocates_activations_and_sensitivities_only(self):
        pol, batch, y, hidden = self.big_case()
        kept = 2 * (len(pol.layer_sizes) - 2)  # h_l and d_l per hidden layer
        assert peak_bytes(lambda: pol.with_params(pol.params).jac_y_steps(
            batch, y)) < (kept + 1) * hidden


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
        scores = np.stack([step_score(pol, a, x, t)
                           for a in actions[:n]])
    else:
        scores = np.stack([score_sum(pol, x, a)
                           for a in actions[:n]])
    mean = scores.mean(axis=0)
    se = scores.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(mean) <= 3 * se + 1e-12)
