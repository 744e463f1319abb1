"""Adaptively smoothed trust-region policy optimization for
path-integral control problems, with the benchmark tasks and experiment
harness used to study it."""

from .environments import (Acrobot, Environment, LqViapoints, Pendulum,
                           RolloutBlowupError, make_env, rollout, sample_batch)
from .gradients import (direct_gradient, pice_gradient, smoothed_cost_value,
                        smoothed_gradient)
from .natural_gradient import (LineSearchError, TrustRegionUpdate,
                               conjugate_gradient, fisher_vector_product,
                               per_timestep_natural_direction,
                               sample_policy_kl, trust_region_step)
from .policies import (GaussianPolicy, MlpPolicy, TimeVaryingLinearPolicy,
                       acrobot_features, lq_features, pendulum_features)
from .runner import (ExperimentConfig, IterationRecord, RunError, RunResult,
                     config_hash, export, resolve_delta, run_aspic, sweep)
from .smoothing import (SmoothingResult, find_alpha, kl_estimate,
                        normalized_weights, weight_entropy)
from .trajectory import (RolloutBatch, Trajectory, batch_mean_cost,
                         stochastic_cost)

__version__ = "0.1.0"
