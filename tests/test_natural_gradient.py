"""Tests for the Fisher machinery and the trust-region step."""

from dataclasses import replace

import numpy as np
import pytest

from aspic import (LineSearchError, MlpPolicy, RolloutBatch,
                   TimeVaryingLinearPolicy, conjugate_gradient,
                   fisher_vector_product, lq_features, make_env,
                   per_timestep_natural_direction, sample_batch,
                   sample_policy_kl, trust_region_step)
from aspic.natural_gradient import KL_REL_TOL

LQ_SMALL = dict(horizon=0.4, dt=0.1, viapoints=((0.2, 1.0),), sigma=0.5)


def make_fixture(seed=0, n=8, noise_var=None, params_scale=0.3):
    env = make_env("lq_viapoints", LQ_SMALL)
    policy = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                     env.noise_var)
    rng = np.random.default_rng(seed)
    policy = policy.with_params(
        rng.normal(scale=params_scale, size=policy.params.size))
    batch = sample_batch(env, policy, n, seed, gamma=1.0)
    return batch, policy


def array_batch(states, actions):
    """Synthetic batch: given states and actions, zero noise, costs and
    log-probabilities."""
    actions = np.asarray(actions, dtype=float)
    zeros = np.zeros(actions.shape[:2])
    return RolloutBatch(states=states, actions=actions,
                        noises=np.zeros_like(actions), state_costs=zeros,
                        logp_policy=zeros, logp_base=zeros, gamma=1.0)


def full_rank_fixture(seed=0, num_steps=4, n=16):
    """Synthetic batch whose states vary at every step (all blocks full rank).

    Simulated rollouts all share the initial state, which makes the first
    Fisher block rank one; random states avoid that.
    """
    rng = np.random.default_rng(seed)
    policy = TimeVaryingLinearPolicy(lq_features, 2, num_steps, 1.0,
                                     params=rng.normal(size=2 * num_steps))
    draws = [(rng.normal(size=(num_steps + 1, 1)),
              rng.normal(size=(num_steps, 1))) for _ in range(n)]
    batch = array_batch(np.stack([s for s, _ in draws]),
                        np.stack([a for _, a in draws]))
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
        batch = array_batch(np.array([[[2.0], [0.0]]] * 2),
                            np.zeros((2, 1, 1)))
        out = fisher_vector_product(batch, pol, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [4.0, 2.0])

    def test_wrong_length_rejected(self):
        batch, policy = make_fixture()
        with pytest.raises(ValueError):
            fisher_vector_product(batch, policy, np.zeros(3))


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
        batch = array_batch(np.array([[[x], [x], [0.0]] for x in (1.0, -1.0)]),
                            np.zeros((2, 2, 1)))
        g = np.array([1.0, 2.0, -3.0, 4.0])
        out = per_timestep_natural_direction(batch, pol, g, rcond=1e-12)
        np.testing.assert_allclose(out, g, rtol=1e-12)

    def test_null_space_component_dropped(self):
        # All rollouts share the same state, so each block is rank one; the
        # component of g orthogonal to the feature direction must vanish.
        pol = TimeVaryingLinearPolicy(lq_features, 2, 1, 1.0,
                                      params=np.zeros(2))
        batch = array_batch(np.array([[[2.0], [0.0]]] * 3),
                            np.zeros((3, 1, 1)))
        g_null = np.array([1.0, -2.0])  # orthogonal to phi = [2, 1]
        out = per_timestep_natural_direction(batch, pol, g_null, rcond=1e-4)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_scalar_block(self):
        # Single feature phi = 2 with unit variance: block F = 4, g = 8 -> 2.
        def single_feature(x):
            return 2.0 * np.ones(np.asarray(x).shape[:-1] + (1,))

        pol = TimeVaryingLinearPolicy(single_feature, 1, 1, 1.0,
                                      params=np.zeros(1))
        batch = array_batch(np.zeros((2, 2, 1)), np.zeros((2, 1, 1)))
        out = per_timestep_natural_direction(batch, pol, np.array([8.0]))
        np.testing.assert_allclose(out, [2.0])

    def test_agrees_with_converged_cg(self):
        batch, policy = full_rank_fixture(seed=9, n=16)
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


class TestTrustRegionStep:
    def test_zero_gradient_is_noop(self):
        batch, policy = make_fixture()
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
                                   solver=solver)
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
                               solver="per_timestep_pinv")
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
                              epsilon=0.1, solver="lbfgs")

    def test_nonpositive_epsilon_rejected(self):
        batch, policy = make_fixture()
        with pytest.raises(ValueError):
            trust_region_step(batch, policy, np.ones(policy.params.size),
                              epsilon=0.0)

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
    return replace(batch, actions=policy.mean_steps(batch.xs),
                   noises=np.zeros_like(batch.noises))


class KlStubPolicy:
    """Policy stub whose sampled KL from ``params = 0`` is ``kl(params)``.

    Its Jacobians are the identity, so the Fisher operator is I / N and the
    natural direction is the raw gradient scaled by about N.  ``log`` collects
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

    def log_prob_steps(self, xs, acts):
        return np.full(len(xs), -self.kl(self.params))


class TestLineSearch:
    EPS = 0.1
    N = 4

    def step(self, kl):
        batch = array_batch(np.zeros((self.N, 3, 1)), np.zeros((self.N, 2, 1)))
        log = []
        policy = KlStubPolicy(np.zeros(2), kl, log)
        up = trust_region_step(batch, policy, np.array([1.0, 0.0]),
                               epsilon=self.EPS)
        return up, log

    @pytest.mark.parametrize("scale, grows", [(0.01, True), (100.0, False)])
    def test_bracket_then_bisection(self, scale, grows):
        # The quadratic seed step lands at a KL of about scale * epsilon, so
        # the bracket doubles eta (scale < 1) or halves it (scale > 1).
        c = scale / (2 * self.N)
        up, log = self.step(lambda th: c * float(th @ th))
        assert abs(up.achieved_kl - self.EPS) <= KL_REL_TOL * self.EPS
        seed_norm, bracket_norm = log[0], log[1]
        assert bracket_norm == pytest.approx(
            seed_norm * (2.0 if grows else 0.5), rel=1e-12)
        assert np.linalg.norm(up.new_params) == pytest.approx(
            seed_norm / np.sqrt(scale), rel=0.1)

    def test_bracket_from_above_fails(self):
        with pytest.raises(LineSearchError, match="from above"):
            self.step(lambda th: 0.0)

    def test_bracket_from_below_fails(self):
        with pytest.raises(LineSearchError, match="from below"):
            self.step(lambda th: float(np.any(th != 0.0)))

    def test_bisection_fails_on_a_kl_jump(self):
        # The KL jumps from 0 to 10 epsilon, so no step meets the tolerance.
        with pytest.raises(LineSearchError, match="bisection"):
            self.step(lambda th: 0.0 if th @ th < 1.0 else 10 * self.EPS)
