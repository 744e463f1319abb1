"""Fixtures shared by the test modules: the small LQ task and seeded batches
on it, a seeded MLP batch on a short pendulum, synthetic batches over given
states, re-weighted batches, the summed score and a feature map's output in
a new buffer."""

from dataclasses import replace

import numpy as np

from aspic import (MlpPolicy, RolloutBatch, TimeVaryingLinearPolicy,
                   lq_features, make_env, sample_batch)

# A small LQ: T = 5 steps, two viapoints.
LQ_SMALL = dict(horizon=0.5, dt=0.1, viapoints=((0.2, 1.0), (0.5, -1.0)),
                sigma=0.5)


def lq_fixture(seed, n=6, gamma=1.0):
    """n rollouts on ``LQ_SMALL`` under a linear policy whose parameters are
    N(0, 0.3^2); the parameters and the batch are both drawn from ``seed``."""
    env = make_env("lq_viapoints", LQ_SMALL)
    policy = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                     env.noise_var)
    rng = np.random.default_rng(seed)
    policy = policy.with_params(rng.normal(scale=0.3,
                                           size=policy.params.size))
    return sample_batch(env, policy, n, seed, gamma), policy


def mlp_fixture(seed, n=8, gamma=1.0):
    """n rollouts on a half-second pendulum (T = 50) under a [2, 8, 1] MLP
    policy; the parameters and the batch are both drawn from ``seed``."""
    env = make_env("pendulum", {"horizon": 0.5})
    policy = MlpPolicy([2, 8, 1], env.noise_var,
                       rng=np.random.default_rng(seed))
    return sample_batch(env, policy, n, seed, gamma), policy


def array_batch(states, actions=None):
    """A batch over ``states`` (T+1, N, state_dim) and ``actions`` (T, N),
    zero actions when none are given; costs and log-likelihood ratios are
    zero."""
    states = np.asarray(states, dtype=float)
    n = states.shape[1]
    return RolloutBatch(states=states,
                        actions=(np.zeros((states.shape[0] - 1, n))
                                 if actions is None else actions),
                        state_cost=np.zeros(n), log_ratio=np.zeros(n),
                        gamma=1.0)


def batch_of(xs):
    """A batch whose ``xs`` equals ``xs`` (T, N, state_dim)."""
    return array_batch(np.concatenate([xs, xs[-1:]], axis=0))


def with_costs(batch, costs, **changes):
    """``batch`` (with ``changes``) whose stochastic costs are ``costs``:
    they become its state costs and its log-likelihood ratios are zeroed,
    and x + gamma * 0.0 is x bit for bit."""
    return replace(batch, state_cost=costs, log_ratio=np.zeros(batch.n),
                   **changes)


def full_rank_fixture(seed, num_steps=4, n=16):
    """A linear policy on ``lq_features`` and a synthetic batch whose states
    vary at every step, so every per-timestep Fisher block has full rank.

    Simulated rollouts all share the initial state, which makes the first
    block rank one; random states avoid that.
    """
    rng = np.random.default_rng(seed)
    policy = TimeVaryingLinearPolicy(lq_features, 2, num_steps, 1.0,
                                     params=rng.normal(size=2 * num_steps))
    draws = [(rng.normal(size=(num_steps + 1, 1)),
              rng.normal(size=num_steps)) for _ in range(n)]
    batch = array_batch(np.stack([s for s, _ in draws], axis=1),
                        np.stack([a for _, a in draws], axis=1))
    return batch, policy


def features_of(feature_fn, k, xs):
    """``feature_fn``'s k features of states xs, in a new (..., k) buffer."""
    xs = np.asarray(xs, dtype=float)
    return feature_fn(xs, np.empty(xs.shape[:-1] + (k,)))


def score_sum(policy, xs, actions):
    """sum_t grad log pi(a_t|x_t,t), formed as the estimators form it: J^T of
    the residual scaled by 1/sigma^2."""
    resid = (np.asarray(actions, dtype=float)
             - policy.mean_steps(xs)) / policy.noise_var
    return policy.jac_t_v_steps(xs, resid)
