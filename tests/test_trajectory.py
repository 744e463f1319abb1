"""Tests for the rollout containers and the stochastic path cost."""

from dataclasses import replace

import numpy as np
import pytest

from aspic import (MlpPolicy, RolloutBatch, TimeVaryingLinearPolicy,
                   Trajectory, find_alpha, lq_features, make_env,
                   pice_gradient, rollout, sample_batch, smoothed_gradient,
                   stochastic_cost)
from helpers import LQ_SMALL, lq_fixture


def make_traj(state_cost, log_ratio, steps=2, state_dim=1):
    return Trajectory(states=np.zeros((steps + 1, state_dim)),
                      actions=np.zeros(steps), state_cost=state_cost,
                      log_ratio=log_ratio)


def stack(trajs, gamma, **kwargs):
    """The batch whose rollouts are ``trajs``, along axis 1 of the
    step-major arrays."""
    return RolloutBatch(
        states=np.stack([tr.states for tr in trajs], axis=1),
        actions=np.stack([tr.actions for tr in trajs], axis=1),
        state_cost=np.stack([tr.state_cost for tr in trajs]),
        log_ratio=np.stack([tr.log_ratio for tr in trajs]),
        gamma=gamma, **kwargs)


class TestStochasticCost:
    def test_gamma_zero_is_pure_state_cost(self):
        traj = make_traj(-0.5, 5.8)
        assert stochastic_cost(traj, 0.0) == -0.5

    def test_equal_log_probs_cancel(self):
        traj = make_traj(7.0, 0.0)  # equal log-probabilities: ratio 0
        assert stochastic_cost(traj, 5.0) == 7.0

    def test_two_step_hand_value(self):
        traj = make_traj(3.0, 1.0)
        # 3 + 2 * 1 = 5
        assert stochastic_cost(traj, 2.0) == 5.0

    def test_linear_in_gamma(self):
        rng = np.random.default_rng(3)
        traj = make_traj(*rng.normal(size=2))
        g1, g2 = 0.7, 2.3
        lhs = stochastic_cost(traj, g1) + stochastic_cost(traj, g2)
        rhs = stochastic_cost(traj, g1 + g2) + stochastic_cost(traj, 0.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_negative_gamma_rejected(self):
        traj = make_traj(1.0, 0.5)
        with pytest.raises(ValueError):
            stochastic_cost(traj, -1.0)


class TestTrajectoryInvariants:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="actions"):
            Trajectory(states=np.zeros((3, 1)), actions=np.zeros(1),
                       state_cost=0.0, log_ratio=0.0)

    def test_states_must_have_one_extra_entry(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros((2, 1)), actions=np.zeros(2),
                       state_cost=0.0, log_ratio=0.0)

    def test_costs_are_scalars(self):
        with pytest.raises(ValueError, match="state_cost"):
            Trajectory(states=np.zeros((3, 1)), actions=np.zeros(2),
                       state_cost=np.zeros(2), log_ratio=0.0)

    def test_arrays_frozen(self):
        traj = make_traj(1.0, 0.5)
        with pytest.raises(ValueError):
            traj.actions[0] = 9.0


class TestRolloutBatch:
    def test_cached_costs_recomputable(self):
        rng = np.random.default_rng(11)
        trajs = [make_traj(*rng.normal(size=2), steps=4) for _ in range(6)]
        batch = stack(trajs, gamma=1.5)
        recomputed = [stochastic_cost(tr, 1.5) for tr in trajs]
        np.testing.assert_allclose(batch.stochastic_costs, recomputed,
                                   rtol=0, atol=0)

    def test_batch_is_a_trajectory_with_row_costs(self):
        rng = np.random.default_rng(12)
        trajs = [make_traj(*rng.normal(size=2), steps=3) for _ in range(4)]
        batch = stack(trajs, gamma=0.5)
        assert isinstance(batch, Trajectory)
        np.testing.assert_array_equal(stochastic_cost(batch, 0.5),
                                      batch.stochastic_costs)

    def test_rollout_cost_is_a_float_and_row_zero_of_the_batch(self):
        env = make_env("lq_viapoints")
        pol = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                      env.noise_var)
        traj = rollout(env, pol, 5)
        batch = sample_batch(env, pol, 3, 5, gamma=0.5)
        cost = stochastic_cost(traj, 0.5)
        assert isinstance(cost, float)
        assert cost == batch.stochastic_costs[0]
        np.testing.assert_array_equal(traj.states, batch.states[:, 0])
        np.testing.assert_array_equal(traj.actions, batch.actions[:, 0])
        assert (traj.state_cost, traj.log_ratio) == (
            batch.state_cost[0], batch.log_ratio[0])

    def test_mean_cost(self):
        trajs = [make_traj(c, 0.0) for c in (1.0, 2.0, 3.0)]
        batch = stack(trajs, gamma=0.0)
        assert np.mean(batch.stochastic_costs) == pytest.approx(2.0)

    def test_constant_costs(self):
        trajs = [make_traj(7.0, 0.0) for _ in range(4)]
        batch = stack(trajs, gamma=0.0)
        assert np.mean(batch.stochastic_costs) == 7.0

    def test_batch_needs_two_trajectories(self):
        with pytest.raises(ValueError):
            stack([make_traj(1.0, 0.0)], gamma=0.0)

    def test_costs_cannot_be_supplied(self):
        trajs = [make_traj(1.0, 0.0) for _ in range(3)]
        with pytest.raises(TypeError, match="stochastic_costs"):
            stack(trajs, gamma=0.0, stochastic_costs=np.zeros(3))
        with pytest.raises(ValueError, match="stochastic_costs"):
            replace(stack(trajs, gamma=0.0), stochastic_costs=np.zeros(3))

    def test_replace_rederives_the_costs(self):
        batch, _ = lq_fixture(0, gamma=1.0)
        for changes in ({"gamma": 5.0}, {"state_cost": batch.state_cost + 1},
                        {"log_ratio": -batch.log_ratio}):
            new = replace(batch, **changes)
            np.testing.assert_array_equal(
                new.stochastic_costs,
                new.state_cost + new.gamma * new.log_ratio)
        np.testing.assert_allclose(
            replace(batch, gamma=5.0).stochastic_costs[:3],
            [4.90, 4.05, 3.05], atol=0.005)

    def test_negative_gamma_rejected(self):
        trajs = [make_traj(1.0, 0.5) for _ in range(2)]
        with pytest.raises(ValueError):
            stack(trajs, gamma=-1.0)

    def test_batch_sizes_must_agree(self):
        batch = stack([make_traj(1.0, 0.0) for _ in range(3)], gamma=0.0)
        with pytest.raises(ValueError, match="log_ratio"):
            replace(batch, log_ratio=np.zeros(2))
        with pytest.raises(ValueError, match="actions"):
            replace(batch, actions=np.zeros((2, 2)))

    def test_step_counts_must_agree(self):
        batch = stack([make_traj(1.0, 0.0) for _ in range(3)], gamma=0.0)
        with pytest.raises(ValueError, match="actions"):
            replace(batch, actions=np.zeros((1, 3)))

    def test_features_must_be_step_major(self):
        # N = 3 rollouts of T = 2 steps: (T, N, K) passes, (N, T, K) fails.
        batch = stack([make_traj(1.0, 0.0) for _ in range(3)], gamma=0.0)
        feats = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(
            replace(batch, features=feats).features, feats)
        with pytest.raises(ValueError, match=r"expected \(T, N\)"):
            replace(batch, features=feats.swapaxes(0, 1))

    def test_rows_are_frozen_views(self):
        trajs = [make_traj(1.0, 0.5, state_dim=2) for _ in range(3)]
        batch = stack(trajs, gamma=1.0)
        col = batch.states[:, 1]
        assert np.shares_memory(col, batch.states)
        assert not col.flags.writeable
        np.testing.assert_array_equal(batch.stochastic_costs, [1.5] * 3)
        with pytest.raises(ValueError):
            batch.actions[0, 0] = 1.0
        with pytest.raises(ValueError):
            batch.log_ratio[0] = 1.0
        with pytest.raises(IndexError):
            batch.state_cost[3]

    def test_xs_is_contiguous_states_without_the_last(self):
        rng = np.random.default_rng(4)
        trajs = [Trajectory(states=rng.normal(size=(4, 2)),
                            actions=np.zeros(3), state_cost=0.0,
                            log_ratio=0.0) for _ in range(2)]
        batch = stack(trajs, gamma=0.0)
        assert batch.xs.flags.c_contiguous
        assert not batch.xs.flags.writeable
        assert np.shares_memory(batch.xs, batch.states)
        np.testing.assert_array_equal(batch.xs, batch.states[:-1])
        assert (batch.n, batch.actions.shape) == (2, (3, 2))


@pytest.mark.parametrize("family", ["lq_linear", "pendulum_mlp"])
def test_regamma_equals_sampling_at_the_new_gamma(family):
    # Sampling does not read gamma, so re-weighting a batch sampled at
    # gamma 1 to gamma 5 gives the batch sampled at gamma 5, bit for bit,
    # and so do the alpha search and the estimators on it.
    if family == "lq_linear":
        env = make_env("lq_viapoints", LQ_SMALL)
        policy = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                         env.noise_var)
    else:
        env = make_env("pendulum", {"horizon": 0.3})
        policy = MlpPolicy([2, 8, 1], env.noise_var,
                           rng=np.random.default_rng(0))
    policy = policy.with_params(policy.params + np.random.default_rng(
        1).normal(scale=0.3, size=policy.params.size))
    regamma = replace(sample_batch(env, policy, 12, 7, 1.0), gamma=5.0)
    fresh = sample_batch(env, policy, 12, 7, 5.0)
    assert regamma.gamma == fresh.gamma
    for name in ("states", "xs", "actions", "state_cost", "log_ratio",
                 "stochastic_costs", "features"):
        np.testing.assert_array_equal(getattr(regamma, name),
                                      getattr(fresh, name), err_msg=name)
    sr, sr_fresh = (find_alpha(b.stochastic_costs, b.gamma, 0.5)
                    for b in (regamma, fresh))
    assert (sr.alpha, sr.entropy, sr.kl_estimate) == (
        sr_fresh.alpha, sr_fresh.entropy, sr_fresh.kl_estimate)
    np.testing.assert_array_equal(sr.weights, sr_fresh.weights)
    for grad in (lambda b: smoothed_gradient(b, policy, sr.alpha),
                 lambda b: pice_gradient(b, policy)):
        np.testing.assert_array_equal(grad(regamma), grad(fresh))
