"""Tests for the rollout containers and the stochastic path cost."""

from dataclasses import replace

import numpy as np
import pytest

from aspic import (RolloutBatch, TimeVaryingLinearPolicy, Trajectory,
                   lq_features, make_env, rollout, sample_batch,
                   stochastic_cost)


def make_traj(state_costs, logp_policy, logp_base, state_dim=1):
    t = len(state_costs)
    return Trajectory(
        states=np.zeros((t + 1, state_dim)),
        actions=np.zeros(t),
        noises=np.zeros(t),
        state_costs=np.asarray(state_costs, dtype=float),
        logp_policy=np.asarray(logp_policy, dtype=float),
        logp_base=np.asarray(logp_base, dtype=float),
    )


def stack(trajs, gamma, **kwargs):
    """The batch whose rows are ``trajs``."""
    seqs = {name: np.stack([getattr(tr, name) for tr in trajs])
            for name in ("states", "actions", "noises", "state_costs",
                         "logp_policy", "logp_base")}
    return RolloutBatch(**seqs, gamma=gamma, **kwargs)


class TestStochasticCost:
    def test_gamma_zero_is_pure_state_cost(self):
        traj = make_traj([1.0, 2.5, -4.0], [-0.3, -0.7, -0.1], [-1.0, -2.0, -3.0])
        assert stochastic_cost(traj, 0.0) == pytest.approx(-0.5)

    def test_equal_log_probs_cancel(self):
        lp = [-0.4, -1.2]
        traj = make_traj([3.0, 4.0], lp, lp)
        assert stochastic_cost(traj, 5.0) == pytest.approx(7.0)

    def test_two_step_hand_value(self):
        traj = make_traj([1.0, 2.0], [-0.5, -0.5], [-1.0, -1.0])
        # 3 + 2 * ((-0.5 - -1.0) + (-0.5 - -1.0)) = 3 + 2 = 5
        assert stochastic_cost(traj, 2.0) == 5.0

    def test_linear_in_gamma(self):
        rng = np.random.default_rng(3)
        traj = make_traj(rng.normal(size=5), rng.normal(size=5),
                         rng.normal(size=5))
        g1, g2 = 0.7, 2.3
        lhs = stochastic_cost(traj, g1) + stochastic_cost(traj, g2)
        rhs = stochastic_cost(traj, g1 + g2) + stochastic_cost(traj, 0.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_negative_gamma_rejected(self):
        traj = make_traj([1.0], [-0.5], [-1.0])
        with pytest.raises(ValueError):
            stochastic_cost(traj, -1.0)


class TestTrajectoryInvariants:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros((3, 1)), actions=np.zeros(2),
                       noises=np.zeros(2), state_costs=np.zeros(2),
                       logp_policy=np.zeros(1), logp_base=np.zeros(2))

    def test_states_must_have_one_extra_entry(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros((2, 1)), actions=np.zeros(2),
                       noises=np.zeros(2), state_costs=np.zeros(2),
                       logp_policy=np.zeros(2), logp_base=np.zeros(2))

    def test_arrays_frozen(self):
        traj = make_traj([1.0, 2.0], [-0.5, -0.5], [-1.0, -1.0])
        with pytest.raises(ValueError):
            traj.state_costs[0] = 9.0


class TestRolloutBatch:
    def test_cached_costs_recomputable(self):
        rng = np.random.default_rng(11)
        trajs = [make_traj(rng.normal(size=4), rng.normal(size=4),
                           rng.normal(size=4)) for _ in range(6)]
        batch = stack(trajs, gamma=1.5)
        recomputed = [stochastic_cost(tr, 1.5) for tr in trajs]
        np.testing.assert_allclose(batch.stochastic_costs, recomputed,
                                   rtol=0, atol=0)

    def test_batch_is_a_trajectory_with_row_costs(self):
        rng = np.random.default_rng(12)
        trajs = [make_traj(rng.normal(size=3), rng.normal(size=3),
                           rng.normal(size=3)) for _ in range(4)]
        batch = stack(trajs, gamma=0.5)
        assert isinstance(batch, Trajectory)
        np.testing.assert_array_equal(stochastic_cost(batch, 0.5),
                                      batch.stochastic_costs)

    def test_rollout_cost_is_a_float_and_row_zero_of_the_batch(self):
        env = make_env("lq_viapoints")
        pol = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                      env.noise_var)
        cost = stochastic_cost(rollout(env, pol, 5), 0.5)
        assert isinstance(cost, float)
        assert cost == pytest.approx(
            sample_batch(env, pol, 3, 5, gamma=0.5).stochastic_costs[0],
            rel=1e-12)

    def test_mean_cost(self):
        trajs = [make_traj([c], [0.0], [0.0]) for c in (1.0, 2.0, 3.0)]
        batch = stack(trajs, gamma=0.0)
        assert np.mean(batch.stochastic_costs) == pytest.approx(2.0)

    def test_constant_costs(self):
        trajs = [make_traj([7.0], [0.0], [0.0]) for _ in range(4)]
        batch = stack(trajs, gamma=0.0)
        assert np.mean(batch.stochastic_costs) == 7.0

    def test_batch_needs_two_trajectories(self):
        with pytest.raises(ValueError):
            stack([make_traj([1.0], [0.0], [0.0])], gamma=0.0)

    def test_explicit_costs_checked_for_length(self):
        trajs = [make_traj([1.0], [0.0], [0.0]) for _ in range(3)]
        with pytest.raises(ValueError):
            stack(trajs, gamma=0.0, stochastic_costs=np.zeros(2))

    def test_negative_gamma_rejected(self):
        trajs = [make_traj([1.0], [-0.5], [-1.0]) for _ in range(2)]
        with pytest.raises(ValueError):
            stack(trajs, gamma=-1.0)

    def test_batch_sizes_must_agree(self):
        batch = stack([make_traj([1.0], [0.0], [0.0]) for _ in range(3)],
                      gamma=0.0)
        with pytest.raises(ValueError):
            replace(batch, logp_base=np.zeros((2, 1)))

    def test_step_counts_must_agree(self):
        batch = stack([make_traj([1.0, 2.0], [0.0] * 2, [0.0] * 2)
                       for _ in range(3)], gamma=0.0)
        with pytest.raises(ValueError):
            replace(batch, state_costs=np.zeros((3, 1)))

    def test_features_must_be_step_major(self):
        # N = 3 rollouts of T = 2 steps: (T, N, K) passes, (N, T, K) fails.
        batch = stack([make_traj([1.0, 2.0], [0.0] * 2, [0.0] * 2)
                       for _ in range(3)], gamma=0.0)
        feats = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(
            replace(batch, features=feats).features, feats)
        with pytest.raises(ValueError, match=r"expected \(T, N\)"):
            replace(batch, features=feats.swapaxes(0, 1))

    def test_rows_are_frozen_views(self):
        trajs = [make_traj([1.0, 2.0], [-0.5, -0.5], [-1.0, -1.0], state_dim=2)
                 for _ in range(3)]
        batch = stack(trajs, gamma=1.0)
        row = batch.states[1]
        assert np.shares_memory(row, batch.states)
        assert not row.flags.writeable
        np.testing.assert_array_equal(batch.state_costs[1], [1.0, 2.0])
        with pytest.raises(ValueError):
            batch.actions[0, 0] = 1.0
        with pytest.raises(IndexError):
            batch.state_costs[3]

    def test_xs_is_contiguous_states_without_the_last(self):
        rng = np.random.default_rng(4)
        trajs = [Trajectory(states=rng.normal(size=(4, 2)),
                            actions=np.zeros(3), noises=np.zeros(3),
                            state_costs=np.zeros(3), logp_policy=np.zeros(3),
                            logp_base=np.zeros(3)) for _ in range(2)]
        batch = stack(trajs, gamma=0.0)
        assert batch.xs.flags.c_contiguous
        assert not batch.xs.flags.writeable
        np.testing.assert_array_equal(batch.xs, batch.states[:, :-1])
        assert (batch.n, batch.actions.shape[1]) == (2, 3)
