"""Tests for the Fisher machinery and the trust-region step."""

from dataclasses import replace

import numpy as np
import pytest

from aspic import (LineSearchError, MlpPolicy, TimeVaryingLinearPolicy,
                   acrobot_features, conjugate_gradient, fisher_vector_product,
                   lq_features, make_env, pendulum_features,
                   per_timestep_natural_direction, policies, sample_batch,
                   sample_policy_kl, smoothed_gradient, trust_region_step)
from aspic.natural_gradient import KL_REL_TOL, SOLVERS
from helpers import array_batch, full_rank_fixture, mlp_fixture

LQ_SHORT = dict(horizon=0.4, dt=0.1, viapoints=((0.2, 1.0),), sigma=0.5)


def make_fixture(seed=0, n=8, params_scale=0.3):
    env = make_env("lq_viapoints", LQ_SHORT)
    policy = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                     env.noise_var)
    rng = np.random.default_rng(seed)
    policy = policy.with_params(
        rng.normal(scale=params_scale, size=policy.params.size))
    batch = sample_batch(env, policy, n, seed, gamma=1.0)
    return batch, policy


def dense_fisher(batch, policy):
    dim = policy.params.size
    cols = [fisher_vector_product(batch, policy, e)
            for e in np.eye(dim)]
    return np.column_stack(cols)


class TestSamplePolicyKl:
    def test_identical_policies_zero(self):
        batch, policy = make_fixture()
        assert sample_policy_kl(batch, policy, policy) == 0.0

    def test_analytic_gaussian_kl(self):
        # One step, fixed means m1 and m2, variance 1:
        # E[log pi1 - log pi2] under pi1 is (m1 - m2)^2 / 2.
        env = make_env("lq_viapoints", dict(horizon=0.1, dt=0.1, nu=0.1,
                                            viapoints=(), sigma=0.5))
        assert env.noise_var == pytest.approx(1.0)
        pol1 = TimeVaryingLinearPolicy(lq_features, 2, 1, 1.0,
                                       params=np.array([0.0, 0.7]))
        pol2 = pol1.with_params(np.array([0.0, -0.3]))
        n = 10_000
        batch = sample_batch(env, pol1, n, 123, gamma=1.0)
        est = sample_policy_kl(batch, pol1, pol2)
        expected = (0.7 - -0.3) ** 2 / 2.0
        # Var of the per-sample log ratio: d = m1 - m2, var = d^2 * var(xi).
        se = abs(1.0) / np.sqrt(n)
        assert est == pytest.approx(expected, abs=3 * se)

    def test_linear_in_log_prob_gap(self):
        batch, policy = make_fixture(seed=1)
        theta = policy.params
        d = np.random.default_rng(2).normal(size=theta.size)
        kl1 = sample_policy_kl(batch, policy, policy.with_params(theta + d))
        # Quadratic in the mean gap, so log-prob gaps double when the
        # residual cross term is removed by symmetrizing the two directions.
        klm = sample_policy_kl(batch, policy, policy.with_params(theta - d))
        kl2 = sample_policy_kl(batch, policy,
                               policy.with_params(theta + 2 * d))
        klm2 = sample_policy_kl(batch, policy,
                                policy.with_params(theta - 2 * d))
        assert kl2 + klm2 == pytest.approx(4 * (kl1 + klm), rel=1e-9)

    def test_shape_mismatch_rejected(self):
        batch, policy = make_fixture()
        other = MlpPolicy([1, 4, 1], policy.noise_var,
                          rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_policy_kl(batch, policy, other)


class TestFisherVectorProduct:
    def test_zero_vector(self):
        batch, policy = make_fixture()
        out = fisher_vector_product(batch, policy,
                                    np.zeros(policy.params.size))
        np.testing.assert_array_equal(out, 0.0)

    def test_positive_semidefinite(self):
        batch, policy = make_fixture(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(100):
            y = rng.normal(size=policy.params.size)
            assert y @ fisher_vector_product(batch, policy, y) >= 0.0

    def test_symmetry(self):
        batch, policy = make_fixture(seed=5)
        rng = np.random.default_rng(6)
        for _ in range(10):
            y = rng.normal(size=policy.params.size)
            z = rng.normal(size=policy.params.size)
            lhs = y @ fisher_vector_product(batch, policy, z)
            rhs = z @ fisher_vector_product(batch, policy, y)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_hand_value_single_sample(self):
        # u = theta_1 * x + theta_2, one step, one state fixture at x = 2,
        # unit variance: F block = [[4, 2], [2, 1]].
        pol = TimeVaryingLinearPolicy(lq_features, 2, 1, 1.0,
                                      params=np.zeros(2))
        batch = array_batch(np.array([[[2.0]] * 2, [[0.0]] * 2]),
                            np.zeros((1, 2)))
        out = fisher_vector_product(batch, pol, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [4.0, 2.0])

    def test_wrong_length_rejected(self):
        batch, policy = make_fixture()
        with pytest.raises(ValueError):
            fisher_vector_product(batch, policy, np.zeros(3))


class TestFisherTrace:
    @pytest.mark.parametrize("task, overrides, feature_fn, k", [
        ("lq_viapoints", LQ_SHORT, lq_features, 2),
        ("pendulum", {"horizon": 0.05}, pendulum_features, 4),
        ("acrobot", {"horizon": 0.05}, acrobot_features, 9)])
    def test_linear_trace_is_the_diagonal_sum(self, task, overrides,
                                              feature_fn, k):
        env = make_env(task, overrides)
        rng = np.random.default_rng(40)
        policy = TimeVaryingLinearPolicy(
            feature_fn, k, env.num_steps, env.noise_var,
            params=rng.normal(scale=0.3, size=k * env.num_steps))
        batch = sample_batch(env, policy, 7, 41, gamma=1.0)
        assert policy.fisher_trace(batch) == pytest.approx(
            np.diag(dense_fisher(batch, policy)).sum(), rel=1e-12)

    @pytest.mark.parametrize("sizes, n, steps", [
        ([2, 8, 1], 5, 6), ([2, 8, 5, 1], 5, 6), ([2, 32, 32, 1], 4, 5),
        ([2, 8, 5, 1], 30, 70), ([2, 32, 32, 1], 30, 70)])
    def test_mlp_trace_is_the_diagonal_sum(self, sizes, n, steps):
        rng = np.random.default_rng(42)
        policy = MlpPolicy(sizes, noise_var=2.0, rng=rng)
        policy = policy.with_params(policy.params + rng.normal(
            scale=0.1, size=policy.params.size))  # nonzero biases
        batch = array_batch(rng.normal(size=(steps + 1, n, 2)),
                            rng.normal(size=(steps, n)))
        if n == 30:
            assert n * steps > policies.BLOCK_ROWS
        assert policy.fisher_trace(batch) == pytest.approx(
            np.diag(dense_fisher(batch, policy)).sum(), rel=1e-12)


class TestConjugateGradient:
    def test_identity_single_iteration(self):
        b = np.array([1.0, -2.0, 3.0])
        x, iters = conjugate_gradient(lambda v: v, b, max_iters=5)
        np.testing.assert_allclose(x, b)
        assert iters <= 1

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 8))
        a = m @ m.T + 0.1 * np.eye(8)
        b = rng.normal(size=8)
        x, _ = conjugate_gradient(lambda v: a @ v, b, max_iters=8, tol=1e-10)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-8)

    def test_zero_rhs(self):
        x, iters = conjugate_gradient(lambda v: 2 * v, np.zeros(4),
                                      max_iters=4)
        np.testing.assert_array_equal(x, 0.0)
        assert iters == 0

    def test_truncation_respected(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(20, 20))
        a = m @ m.T + np.eye(20)
        calls = []
        x, iters = conjugate_gradient(
            lambda v: calls.append(1) or a @ v, rng.normal(size=20),
            max_iters=3, tol=0.0)
        assert iters == 3
        assert len(calls) == 3

    def test_non_finite_aborts(self):
        with pytest.raises(RuntimeError):
            conjugate_gradient(lambda v: v * np.nan, np.ones(2), max_iters=2)


class TestPerTimestepDirection:
    def test_identity_blocks_pass_through(self):
        # Two orthonormal feature states per step make each block
        # (1/(N sigma^2)) sum phi phi^T equal the identity.
        pol = TimeVaryingLinearPolicy(lq_features, 2, 2, 1.0,
                                      params=np.zeros(4))

        # States +1 and -1: sum of [x,1][x,1]^T over the two samples is 2I.
        batch = array_batch(np.array([[[1.0], [-1.0]]] * 2 + [[[0.0]] * 2]),
                            np.zeros((2, 2)))
        g = np.array([1.0, 2.0, -3.0, 4.0])
        out = per_timestep_natural_direction(batch, pol, g, rcond=1e-12)
        np.testing.assert_allclose(out, g, rtol=1e-12)

    def test_null_space_component_dropped(self):
        # All rollouts share the same state, so each block is rank one; the
        # component of g orthogonal to the feature direction must vanish.
        pol = TimeVaryingLinearPolicy(lq_features, 2, 1, 1.0,
                                      params=np.zeros(2))
        batch = array_batch(np.array([[[2.0]] * 3, [[0.0]] * 3]),
                            np.zeros((1, 3)))
        g_null = np.array([1.0, -2.0])  # orthogonal to phi = [2, 1]
        out = per_timestep_natural_direction(batch, pol, g_null, rcond=1e-4)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_scalar_block(self):
        # Single feature phi = 2 with unit variance: block F = 4, g = 8 -> 2.
        def single_feature(x):
            return 2.0 * np.ones(np.asarray(x).shape[:-1] + (1,))

        pol = TimeVaryingLinearPolicy(single_feature, 1, 1, 1.0,
                                      params=np.zeros(1))
        batch = array_batch(np.zeros((2, 2, 1)), np.zeros((1, 2)))
        out = per_timestep_natural_direction(batch, pol, np.array([8.0]))
        np.testing.assert_allclose(out, [2.0])

    def test_agrees_with_converged_cg(self):
        batch, policy = full_rank_fixture(9, n=16)
        g = np.random.default_rng(10).normal(size=policy.params.size)
        via_pinv = per_timestep_natural_direction(batch, policy, g,
                                                  rcond=1e-12)
        f = dense_fisher(batch, policy)
        via_cg, _ = conjugate_gradient(lambda v: f @ v, g,
                                       max_iters=g.size, tol=1e-14)
        np.testing.assert_allclose(via_pinv, via_cg, rtol=1e-6)

    def test_mlp_rejected(self):
        batch, _ = make_fixture()
        mlp = MlpPolicy([1, 4, 1], 1.0, rng=np.random.default_rng(0))
        with pytest.raises(TypeError):
            per_timestep_natural_direction(batch, mlp, np.zeros(mlp.params.size))


def pinv_direction(batch, policy, g, rcond):
    """pinv(F_t, rcond) g_t block by block, each F_t formed from the
    features of the batch's states."""
    phi = policy.features(batch.xs)  # (T, N, K)
    g_blocks = g.reshape(policy.num_steps, -1)
    return np.concatenate([
        np.linalg.pinv(p.T @ p / (batch.n * policy.noise_var), rcond=rcond)
        @ g_t for p, g_t in zip(phi, g_blocks)])


def state_features(x, out=None):
    """The state itself: its Fisher block is zero where every state is."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape) if out is None else out
    out[...] = x
    return out


class TestPerTimestepPinvOracle:
    """The eigen-solve against a per-block np.linalg.pinv, at N = 7."""

    @pytest.mark.parametrize("task, feature_fn, k", [
        ("lq_viapoints", lq_features, 2),
        ("pendulum", pendulum_features, 4),
        ("acrobot", acrobot_features, 9)])
    def test_sampled_batches(self, task, feature_fn, k):
        # Every rollout starts at x0, so the first block has rank one; the
        # acrobot basis lists sin x2 twice, so all its blocks are singular.
        env = make_env(task, LQ_SHORT if task == "lq_viapoints"
                       else {"horizon": 0.1})
        rng = np.random.default_rng(50)
        policy = TimeVaryingLinearPolicy(
            feature_fn, k, env.num_steps, env.noise_var,
            params=rng.normal(scale=0.3, size=k * env.num_steps))
        batch = sample_batch(env, policy, 7, 51, gamma=1.0)
        g = rng.normal(size=policy.params.size)
        got = per_timestep_natural_direction(batch, policy, g, rcond=1e-4)
        want = pinv_direction(batch, policy, g, 1e-4)
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-12 * np.abs(want).max())
        if task == "acrobot":
            # F_t (e_1 - e_3) = 0, so the direction has no part along it.
            blocks = got.reshape(env.num_steps, k)
            np.testing.assert_allclose(blocks[:, 1], blocks[:, 3],
                                       atol=1e-10 * np.abs(got).max())

    @pytest.mark.parametrize("rcond", [1e-4, 0.0])
    @pytest.mark.parametrize("feature_fn, state_dim, k", [
        (lq_features, 1, 2), (pendulum_features, 2, 4),
        (state_features, 3, 3)])
    def test_full_rank_batches_and_rcond_zero(self, feature_fn, state_dim,
                                              k, rcond):
        rng = np.random.default_rng(52)
        policy = TimeVaryingLinearPolicy(feature_fn, k, 4, 1.3,
                                         params=np.zeros(4 * k))
        batch = array_batch(rng.normal(size=(5, 7, state_dim)),
                            np.zeros((4, 7)))
        g = rng.normal(size=policy.params.size)
        np.testing.assert_allclose(
            per_timestep_natural_direction(batch, policy, g, rcond=rcond),
            pinv_direction(batch, policy, g, rcond), rtol=1e-10)

    @pytest.mark.parametrize("rcond", [1e-4, 0.0])
    def test_all_zero_block_gives_zero(self, rcond):
        rng = np.random.default_rng(53)
        states = rng.normal(size=(4, 7, 3))
        states[1] = 0.0  # block 1 is all zero
        policy = TimeVaryingLinearPolicy(state_features, 3, 3, 1.0,
                                         params=np.zeros(9))
        batch = array_batch(states, np.zeros((3, 7)))
        g = rng.normal(size=9)
        got = per_timestep_natural_direction(batch, policy, g, rcond=rcond)
        np.testing.assert_array_equal(got[3:6], 0.0)
        np.testing.assert_allclose(got, pinv_direction(batch, policy, g,
                                                       rcond), rtol=1e-10)


class TestTrustRegionStep:
    @pytest.mark.parametrize("fixture", [make_fixture, mlp_fixture],
                             ids=["linear", "mlp"])
    def test_zero_gradient_is_noop(self, fixture):
        batch, policy = fixture(0)
        up = trust_region_step(batch, policy, np.zeros(policy.params.size),
                               epsilon=0.1)
        np.testing.assert_array_equal(up.new_params, policy.params)
        assert up.eta == 0.0
        assert up.achieved_kl == 0.0

    def test_kl_equality_enforced(self):
        for solver in ("cg", "per_timestep_pinv"):
            batch, policy = make_fixture(seed=11, n=12)
            g = np.random.default_rng(12).normal(size=policy.params.size)
            up = trust_region_step(batch, policy, g, epsilon=0.05,
                                   kind=solver)
            assert abs(up.achieved_kl - 0.05) <= 0.1 * 0.05
            achieved = sample_policy_kl(batch, policy,
                                        policy.with_params(up.new_params))
            assert achieved == pytest.approx(up.achieved_kl, rel=1e-9)

    def test_quadratic_exact_step_size(self):
        # With zero sampled residuals the KL along the ray is exactly
        # 0.5 eta^2 g_F' F g_F, so eta = sqrt(2 eps / (g_F' F g_F)).
        batch, policy = make_fixture(seed=13, n=10, params_scale=0.0)
        zeroed = _zero_residual_batch(batch, policy)
        g = np.random.default_rng(14).normal(size=policy.params.size)
        eps = 0.1
        up = trust_region_step(zeroed, policy, g, epsilon=eps,
                               kind="per_timestep_pinv")
        g_f = (up.new_params - policy.params) / up.eta
        f = dense_fisher(zeroed, policy)
        eta_exact = np.sqrt(2 * eps / (g_f @ f @ g_f))
        assert up.eta == pytest.approx(eta_exact, rel=0.06)

    def test_epsilon_scaling(self):
        batch, policy = make_fixture(seed=15, n=10, params_scale=0.0)
        zeroed = _zero_residual_batch(batch, policy)
        g = np.random.default_rng(16).normal(size=policy.params.size)
        up1 = trust_region_step(zeroed, policy, g, epsilon=0.05)
        up4 = trust_region_step(zeroed, policy, g, epsilon=0.20)
        assert up4.eta == pytest.approx(2 * up1.eta, rel=0.11)

    def test_unknown_solver_rejected(self):
        batch, policy = make_fixture()
        with pytest.raises(ValueError):
            trust_region_step(batch, policy, np.ones(policy.params.size),
                              epsilon=0.1, kind="lbfgs")

    def test_nonpositive_epsilon_rejected(self):
        batch, policy = make_fixture()
        with pytest.raises(ValueError):
            trust_region_step(batch, policy, np.ones(policy.params.size),
                              epsilon=0.0)

    @pytest.mark.parametrize("solver", ["cg", "per_timestep_pinv"])
    @pytest.mark.parametrize("seed", range(4))
    def test_linear_root_meets_epsilon_in_closed_form(self, solver, seed):
        batch, policy = make_fixture(seed=30 + seed, n=12)
        g = np.random.default_rng(seed).normal(size=policy.params.size)
        for sign in (1.0, -1.0):  # the residual term changes sign with g
            up = trust_region_step(batch, policy, sign * g, epsilon=0.05,
                                   kind=solver)
            assert up.kl_evaluations == 0
            assert up.achieved_kl == pytest.approx(0.05, rel=1e-12)
            new = policy.with_params(up.new_params)
            assert sample_policy_kl(batch, policy, new) == pytest.approx(
                0.05, rel=1e-9)

    def test_linear_direction_that_leaves_the_mean_fixed_fails(self):
        # Every state is 0, so the x-coefficients have zero features: the
        # ridge alone gives them a natural direction, which moves no mean.
        pol = TimeVaryingLinearPolicy(lq_features, 2, 2, 1.0,
                                      params=np.zeros(4))
        batch = array_batch(np.zeros((3, 3, 1)), np.ones((2, 3)))
        with pytest.raises(LineSearchError, match="from above"):
            trust_region_step(batch, pol, np.array([1.0, 0.0, -1.0, 0.0]),
                              epsilon=0.1)

    def test_mlp_step_counts_its_kl_evaluations(self):
        env = make_env("pendulum", {"horizon": 0.5})
        policy = MlpPolicy([2, 8, 1], env.noise_var,
                           rng=np.random.default_rng(43))
        batch = sample_batch(env, policy, 8, 44, gamma=1.0)
        g = smoothed_gradient(batch, policy, alpha=1.0)
        up = trust_region_step(batch, policy, g, epsilon=0.1)
        assert up.kl_evaluations >= 1
        assert type(up.eta) is float  # as it enters the record stream
        assert abs(up.achieved_kl - 0.1) <= KL_REL_TOL * 0.1
        assert up.achieved_kl == sample_policy_kl(
            batch, policy, policy.with_params(up.new_params))

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        batch, policy = make_fixture()
        with pytest.raises(ValueError, match="epsilon"):
            trust_region_step(batch, policy, np.ones(policy.params.size),
                              epsilon=epsilon)

    @pytest.mark.parametrize("solver, key, value", [
        ("cg", "iters", 0), ("cg", "damping", -1.0),
        ("per_timestep_pinv", "rcond", -1.0)])
    def test_solver_keyword_out_of_range_rejected(self, solver, key, value):
        # Unchecked, iters=0 reads as convergence (eta = 0), a negative
        # damping steps on a negative ridge and a negative rcond inverts
        # zero eigenvalues.
        batch, policy = make_fixture(n=20)
        with pytest.raises(ValueError, match=f"^{key} must be >= "):
            trust_region_step(batch, policy, np.ones(policy.params.size),
                              epsilon=0.1, kind=solver, **{key: value})

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_iters_that_is_not_an_int_rejected(self, value):
        # Unchecked, 2.5 failed inside CG with an unnamed TypeError and
        # True ran one iteration.
        batch, policy = make_fixture(n=20)
        with pytest.raises(ValueError, match="^iters must be an int, got "):
            trust_region_step(batch, policy, np.ones(policy.params.size),
                              epsilon=0.1, kind="cg", iters=value)

    @pytest.mark.parametrize("kind, key, value", [
        ("per_timestep_pinv", "damping", 5.0),
        ("per_timestep_pinv", "iters", 0), ("cg", "rcond", 1e-4)])
    def test_keyword_the_kind_does_not_take_rejected(self, kind, key, value):
        # Unchecked, per_timestep_pinv ignored damping and judged iters,
        # neither of which it reads.
        batch, policy = make_fixture(n=20)
        with pytest.raises(ValueError, match=rf"^unknown solver keys "
                           rf"\['{key}'\] for kind '{kind}'"):
            trust_region_step(batch, policy, np.ones(policy.params.size),
                              epsilon=0.1, kind=kind, **{key: value})

    @pytest.mark.parametrize("kind", sorted(SOLVERS))
    def test_omitted_keywords_take_the_table_defaults(self, kind):
        batch, policy = make_fixture(seed=19, n=12)
        g = np.random.default_rng(20).normal(size=policy.params.size)
        defaults = {key: spec[2] for key, spec in SOLVERS[kind].items()}
        implicit = trust_region_step(batch, policy, g, 0.05, kind)
        explicit = trust_region_step(batch, policy, g, 0.05, kind, **defaults)
        np.testing.assert_array_equal(implicit.new_params,
                                      explicit.new_params)
        assert implicit.cg_iterations == explicit.cg_iterations

    @pytest.mark.parametrize("solver", ["cg", "per_timestep_pinv"])
    def test_non_finite_gradient_rejected(self, solver):
        batch, policy = make_fixture()
        g = np.ones(policy.params.size)
        g[3] = np.nan
        with pytest.raises(ValueError, match="g has a non-finite"):
            trust_region_step(batch, policy, g, epsilon=0.1, kind=solver)

    @pytest.mark.parametrize("size", [3, 9])
    def test_wrong_size_gradient_rejected(self, size):
        batch, policy = make_fixture()
        assert policy.params.size == 8
        with pytest.raises(ValueError, match="g has shape"):
            trust_region_step(batch, policy, np.ones(size), epsilon=0.1,
                              kind="per_timestep_pinv")

    def test_heavier_damping_shrinks_toward_gradient(self):
        batch, policy = make_fixture(seed=17, n=12)
        g = np.random.default_rng(18).normal(size=policy.params.size)
        light = trust_region_step(batch, policy, g, epsilon=0.05,
                                  damping=1e-6)
        heavy = trust_region_step(batch, policy, g, epsilon=0.05,
                                  damping=1e6)
        d_heavy = heavy.new_params - policy.params
        cos = d_heavy @ g / (np.linalg.norm(d_heavy) * np.linalg.norm(g))
        assert cos > 1 - 1e-9  # heavy damping recovers the raw direction
        d_light = light.new_params - policy.params
        cos_l = d_light @ g / (np.linalg.norm(d_light) * np.linalg.norm(g))
        assert cos_l < cos


def _zero_residual_batch(batch, policy):
    """Replace actions by the policy mean so the sampled KL cross term is 0."""
    return replace(batch, actions=policy.mean_steps(batch.xs))


class KlStubPolicy:
    """Policy stub whose sampled KL from ``params = 0`` is ``kl(params)``.

    Its Jacobians are the identity, so the Fisher operator is I / N, its
    trace dim / N, and the natural direction is the raw gradient scaled by
    about N.  ``log`` collects
    the parameter norm of every policy the line search builds, in order.
    """

    noise_var = 1.0

    def __init__(self, params, kl, log):
        self.params = np.asarray(params, dtype=float)
        self.kl = kl
        self.log = log

    def with_params(self, params):
        self.log.append(float(np.linalg.norm(params)))
        return KlStubPolicy(params, self.kl, self.log)

    def jac_y_steps(self, xs, y):
        return np.asarray(y, dtype=float)

    def jac_t_v_steps(self, xs, v):
        return np.asarray(v, dtype=float)

    def fisher_trace(self, batch):
        return self.params.size / batch.n

    def log_prob_steps(self, xs, acts):
        """-kl once per rollout, the last axis of the (T, N) actions."""
        return np.full(np.shape(acts)[-1], -self.kl(self.params))


class TestLineSearch:
    EPS = 0.1
    N = 4

    def step(self, kl):
        batch = array_batch(np.zeros((3, self.N, 1)), np.zeros((2, self.N)))
        log = []
        policy = KlStubPolicy(np.zeros(2), kl, log)
        up = trust_region_step(batch, policy, np.array([1.0, 0.0]),
                               epsilon=self.EPS)
        return up, log

    @pytest.mark.parametrize("scale", [0.1, 100.0])
    def test_exact_quadratic_is_solved_in_two_evaluations(self, scale):
        # The quadratic seed step lands at a KL of about scale * epsilon
        # (within the 4x growth cap, or above epsilon); the model through
        # the origin then puts the second trial on the root.
        c = scale / (2 * self.N)
        up, log = self.step(lambda th: c * float(th @ th))
        assert up.kl_evaluations == len(log) == 2
        assert up.achieved_kl == pytest.approx(self.EPS, rel=1e-12)
        assert np.linalg.norm(up.new_params) == pytest.approx(
            np.sqrt(self.EPS / c), rel=1e-12)

    def test_growth_is_capped_until_a_trial_overshoots(self):
        # The seed lands at 1e-3 epsilon: the model asks for about 32x, and
        # the trials grow 4x, 4x, then the rest of the way.
        c = 1e-3 / (2 * self.N)
        up, log = self.step(lambda th: c * float(th @ th))
        np.testing.assert_allclose(np.array(log[1:3]) / log[:2], 4.0,
                                   rtol=1e-12)
        assert up.kl_evaluations == len(log) == 4
        assert up.achieved_kl == pytest.approx(self.EPS, rel=1e-12)

    @pytest.mark.parametrize("quartic, linear, most", [(1.0, 0.5, 4),
                                                       (100.0, 0.1, 6)])
    def test_steep_kl_with_a_negative_linear_term(self, quartic, linear,
                                                  most):
        # KL = quartic |th|^4 - linear |th| dips below 0 before it rises
        # steeply through epsilon; no model through two ends is exact.
        def kl(th):
            return quartic * float(th @ th) ** 2 - linear * np.linalg.norm(th)

        up, log = self.step(kl)
        assert abs(up.achieved_kl - self.EPS) <= KL_REL_TOL * self.EPS
        assert up.achieved_kl == kl(up.new_params)
        assert up.kl_evaluations == len(log) <= most

    def test_bracket_from_above_fails(self):
        with pytest.raises(LineSearchError, match="from above"):
            self.step(lambda th: 0.0)

    def test_bracket_from_below_fails(self):
        with pytest.raises(LineSearchError, match="from below"):
            self.step(lambda th: float(np.any(th != 0.0)))

    def test_non_finite_kl_fails(self):
        with pytest.raises(LineSearchError, match="sampled KL nan"):
            self.step(lambda th: np.nan)

    def test_bisection_fails_on_a_kl_jump(self):
        # The KL jumps from 0 to 10 epsilon, so no step meets the tolerance.
        with pytest.raises(LineSearchError, match="bisection"):
            self.step(lambda th: 0.0 if th @ th < 1.0 else 10 * self.EPS)
