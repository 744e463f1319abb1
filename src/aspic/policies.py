"""Gaussian policies with fixed variance nu/dt.

Both mean families expose the same batched surface: the action mean, its
Jacobian-vector products in the flat parameter vector, and per-step
log-probabilities, which is all the gradient estimators and the Fisher
machinery need.  The variance is static and not part of the parameter
vector, so every formula reduces to operations on the mean:

    log pi(a|x,t) = -|a - u(x,t)|^2 / (2 sigma^2) - (d/2) log(2 pi sigma^2)
    grad log pi   = J_u(x,t)^T (a - u(x,t)) / sigma^2

with sigma^2 = nu/dt and J_u the Jacobian of the mean w.r.t. the parameters;
the estimators form the gradient as ``jac_t_v_steps`` of the scaled residual.

The methods take stacked arrays: ``xs`` of shape (..., T, state_dim) with
matching actions, where T is the number of control steps and the leading
dimensions enumerate rollouts.  In place of ``xs`` they also take a
``RolloutBatch``: an MLP reads its ``xs``, a linear policy the feature matrix
the sampler stored.  The parameter count is fixed when a policy is built.
"""

from __future__ import annotations

import threading

import numpy as np

from .trajectory import RolloutBatch

__all__ = ["GaussianPolicy", "TimeVaryingLinearPolicy", "MlpPolicy",
           "gaussian_log_prob", "lq_features", "pendulum_features",
           "acrobot_features"]


def gaussian_log_prob(resid: np.ndarray, noise_var: float) -> np.ndarray:
    """log N(resid; 0, noise_var I) over the last axis."""
    d = resid.shape[-1]
    return (-np.sum(resid ** 2, axis=-1) / (2.0 * noise_var)
            - 0.5 * d * np.log(2.0 * np.pi * noise_var))


def _positive(noise_var: float) -> float:
    noise_var = float(noise_var)
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    return noise_var


class GaussianPolicy:
    """Shared Gaussian machinery; subclasses implement the mean map.

    Policies are immutable value objects: parameter updates go through
    ``with_params`` and return a new policy.
    """

    noise_var: float  # nu/dt, per action dimension
    action_dim: int
    _params: np.ndarray  # flat, sized when the policy is built

    @property
    def params(self) -> np.ndarray:
        return self._params.copy()

    def with_params(self, params: np.ndarray) -> "GaussianPolicy":
        raise NotImplementedError

    def step_inputs(self, xs):
        """What the stacked-array methods read: ``xs``, or a batch's ``xs``."""
        return xs.xs if isinstance(xs, RolloutBatch) else xs

    def mean(self, x: np.ndarray, t: int) -> np.ndarray:
        """Action mean u(x, t); x may carry leading batch dimensions."""
        raise NotImplementedError

    def mean_steps(self, xs: np.ndarray) -> np.ndarray:
        """Means along full trajectories: (..., T, state_dim) -> (..., T, adim)."""
        raise NotImplementedError

    def jac_y_steps(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """J_u(x_t, t) y at every step: returns (..., T, adim)."""
        raise NotImplementedError

    def jac_t_v_steps(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sum over all rollouts and steps of J_u^T v; returns a flat vector."""
        raise NotImplementedError

    def log_prob_steps(self, xs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-step log-probabilities; shape of xs minus the state axis."""
        resid = np.asarray(actions, dtype=float) - self.mean_steps(xs)
        return gaussian_log_prob(resid, self.noise_var)


# ---------------------------------------------------------------------------
# Feature maps for the time-varying linear controllers
# ---------------------------------------------------------------------------

# Each map writes the features of states (..., state_dim) into ``out``
# (..., K) when given, else into a new array.

def lq_features(x: np.ndarray, out=None) -> np.ndarray:
    """[x, 1] for the one-dimensional Brownian particle."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (2,)) if out is None else out
    out[..., 0] = x[..., 0]
    out[..., 1] = 1.0
    return out


def pendulum_features(x: np.ndarray, out=None) -> np.ndarray:
    """[cos x, sin x, xdot, 1]."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (4,)) if out is None else out
    np.cos(x[..., 0], out=out[..., 0])
    np.sin(x[..., 0], out=out[..., 1])
    out[..., 2] = x[..., 1]
    out[..., 3] = 1.0
    return out


def acrobot_features(x: np.ndarray, out=None) -> np.ndarray:
    """The 9-term acrobot controller basis.

    Order: [cos x1, sin x2, cos x2, sin x2, sin(x1+x2), cos(x1+x2),
    xdot1, xdot2, 1].  The sin(x2) term appears twice on purpose (the
    published controller lists it twice); the resulting per-block Fisher rank
    deficiency is handled by the pseudo-inverse / damping in the solvers.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (9,)) if out is None else out
    both = x[..., 0] + x[..., 1]
    np.cos(x[..., 0], out=out[..., 0])
    np.sin(x[..., 1], out=out[..., 1])
    np.cos(x[..., 1], out=out[..., 2])
    out[..., 3] = out[..., 1]
    np.sin(both, out=out[..., 4])
    np.cos(both, out=out[..., 5])
    out[..., 6:8] = x[..., 2:4]
    out[..., 8] = 1.0
    return out


class TimeVaryingLinearPolicy(GaussianPolicy):
    """u(x, t) = theta_t . phi(x), one coefficient block per grid time.

    ``feature_fn(x, out=None)`` maps states to ``num_features`` features,
    into ``out`` when the sampler passes one.  Parameters
    flatten to shape (num_steps * num_features,) and default to zeros; the
    block for time t only influences step t, which makes the Fisher matrix
    exactly block-diagonal across time.  Scalar actions only, matching the
    tasks.
    """

    action_dim = 1

    def __init__(self, feature_fn, num_features: int, num_steps: int,
                 noise_var: float, params: np.ndarray | None = None):
        self.feature_fn = feature_fn
        self.num_features = int(num_features)
        self.num_steps = int(num_steps)
        self.noise_var = _positive(noise_var)
        size = self.num_steps * self.num_features
        self._params = (np.zeros(size) if params is None
                        else np.asarray(params, dtype=float).copy())
        if self._params.size != size:
            raise ValueError(f"expected {size} parameters, "
                             f"got {self._params.size}")
        self._theta = self._params.reshape(self.num_steps, self.num_features)

    def features(self, xs: np.ndarray, out=None) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self.feature_fn(xs) if out is None else self.feature_fn(xs, out)

    def step_inputs(self, xs) -> np.ndarray:
        """A batch's stored feature matrix, else the features of the states."""
        if isinstance(xs, RolloutBatch) and xs.features is not None:
            return xs.features
        return self.features(super().step_inputs(xs))

    def with_params(self, params: np.ndarray) -> "TimeVaryingLinearPolicy":
        return TimeVaryingLinearPolicy(self.feature_fn, self.num_features,
                                       self.num_steps, self.noise_var, params)

    def mean(self, x: np.ndarray, t: int, features=None) -> np.ndarray:
        """u(x, t); the features of x go into ``features`` when given."""
        feats = self.features(x, features)
        return (feats @ self._theta[t])[..., None]

    def mean_steps(self, xs: np.ndarray) -> np.ndarray:
        feats = self.step_inputs(xs)
        return np.einsum("...tk,tk->...t", feats, self._theta)[..., None]

    def jac_y_steps(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        feats = self.step_inputs(xs)
        yb = np.asarray(y, dtype=float).reshape(self.num_steps, -1)
        return np.einsum("...tk,tk->...t", feats, yb)[..., None]

    def jac_t_v_steps(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        feats = self.step_inputs(xs).reshape(-1, self.num_steps,
                                             self.num_features)
        v = np.asarray(v, dtype=float)[..., 0].reshape(-1, self.num_steps)
        return np.einsum("ntk,nt->tk", feats, v).ravel()


# ---------------------------------------------------------------------------
# MLP mean
# ---------------------------------------------------------------------------

class MlpPolicy(GaussianPolicy):
    """Mean given by a small tanh network; identity output layer.

    The network sees the state only (no time input), so the stacked-array
    methods flatten all leading dimensions into one batch axis.  Backprop is
    hand-rolled (the rest of the library is plain numpy) and checked against
    finite differences in the tests.

    A Jacobian product keeps the activations of its forward pass over an
    ``xs`` that owns its memory and is read-only (such as
    ``RolloutBatch.xs``).  While it is handed that same array object,
    ``mean_steps``, ``jac_y_steps`` and ``jac_t_v_steps`` reuse those
    activations instead of running the network again; since the parameters
    and the array are both immutable, the results are the same floats.  Any
    other ``xs``, a writable array or a view, is evaluated afresh on every
    call; a mean over a batch that is not cached caches nothing.  Other
    temporaries live in two per-thread buffers, each as large as the largest
    rows x hidden width seen and kept for the thread's life.
    """

    def __init__(self, layer_sizes, noise_var: float,
                 params: np.ndarray | None = None, *, rng=None):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.noise_var = _positive(noise_var)
        self.action_dim = self.layer_sizes[-1]
        if params is None:
            if rng is None:
                raise ValueError("MlpPolicy needs params or a seeded rng")
            params = self._glorot_init(rng)
        self._params = np.asarray(params, dtype=float).copy()
        if self._params.size != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, "
                             f"got {self._params.size}")
        self._cached = (None, None)  # (read-only xs, its activations)

    @property
    def num_params(self) -> int:
        s = self.layer_sizes
        return sum(s[i] * s[i + 1] + s[i + 1] for i in range(len(s) - 1))

    def _glorot_init(self, rng) -> np.ndarray:
        chunks = []
        s = self.layer_sizes
        for i in range(len(s) - 1):
            bound = np.sqrt(6.0 / (s[i] + s[i + 1]))
            chunks.append(rng.uniform(-bound, bound, size=s[i] * s[i + 1]))
            chunks.append(np.zeros(s[i + 1]))
        return np.concatenate(chunks)

    def _layers(self, flat: np.ndarray):
        """Yield (W, b) views into a flat parameter vector."""
        s = self.layer_sizes
        off = 0
        for i in range(len(s) - 1):
            w = flat[off:off + s[i] * s[i + 1]].reshape(s[i], s[i + 1])
            off += s[i] * s[i + 1]
            b = flat[off:off + s[i + 1]]
            off += s[i + 1]
            yield w, b

    def with_params(self, params: np.ndarray) -> "MlpPolicy":
        return MlpPolicy(self.layer_sizes, self.noise_var, params)

    def _is_cached(self, xs) -> bool:
        return xs is self._cached[0] and not xs.flags.writeable

    def _activations(self, xs) -> list:
        """[x, h_1, ..., h_{L-1}, u] over the flattened batch of ``xs``."""
        if self._is_cached(xs):
            return self._cached[1]
        acts = self._forward(xs, keep=True)
        if (isinstance(xs, np.ndarray) and xs.base is None
                and not xs.flags.writeable):
            for a in acts:
                a.flags.writeable = False
            self._cached = (xs, acts)
        return acts

    def _forward(self, xs, keep: bool) -> list:
        """Activations over xs; hidden layers in scratch unless ``keep``."""
        h = np.asarray(xs, dtype=float).reshape(-1, self.layer_sizes[0])
        acts = [h]
        layers = list(self._layers(self._params))
        for i, (w, b) in enumerate(layers):
            hidden = i < len(layers) - 1
            out = (_scratch(i % 2, len(h), w.shape[1])
                   if hidden and not keep else None)
            h = np.matmul(h, w, out=out)
            h += b
            if hidden:
                np.tanh(h, out=h)
            acts.append(h)
        return acts

    def mean(self, x: np.ndarray, t: int) -> np.ndarray:
        return self.mean_steps(x)

    def mean_steps(self, xs: np.ndarray) -> np.ndarray:
        xs = self.step_inputs(xs)
        out = (self._cached[1] if self._is_cached(xs)
               else self._forward(xs, keep=False))[-1]
        return out.reshape(np.shape(xs)[:-1] + (self.action_dim,)).copy()

    def jac_t_v_steps(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        acts = self._activations(self.step_inputs(xs))
        layers = list(self._layers(self._params))
        grads = [None] * len(layers)
        g = np.asarray(v, dtype=float).reshape(-1, self.action_dim)
        # The slope at layer i, then the g it feeds, take slot i % 2.
        for i in range(len(layers) - 1, -1, -1):
            if i < len(layers) - 1:  # g is our own g @ w.T, not v
                g *= _tanh_slope(acts[i + 1], out=_scratch(i % 2, *g.shape))
            grads[i] = ((acts[i].T @ g).ravel(), g.sum(axis=0))
            if i > 0:
                g = np.matmul(g, layers[i][0].T, out=_scratch(
                    i % 2, len(g), self.layer_sizes[i]))
        return np.concatenate([part for pair in grads for part in pair])

    def jac_y_steps(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Forward-mode directional derivative of the mean along y."""
        xs = self.step_inputs(xs)
        acts = self._activations(xs)
        layers = list(self._layers(self._params))
        dlayers = list(self._layers(np.asarray(y, dtype=float)))
        # dh goes to slot i % 2, tmp to the slot of the dh it replaced.
        dh = np.zeros_like(acts[0])
        for i, ((w, _), (dw, db)) in enumerate(zip(layers, dlayers)):
            hidden = i < len(layers) - 1
            rows, cols = len(dh), w.shape[1]
            dh = np.matmul(dh, w,
                           out=_scratch(i % 2, rows, cols) if hidden else None)
            tmp = np.matmul(acts[i], dw, out=_scratch(1 - i % 2, rows, cols))
            dh += tmp
            dh += db
            if hidden:
                dh *= _tanh_slope(acts[i + 1], out=tmp)
        return dh.reshape(np.shape(xs)[:-1] + (self.action_dim,))


_SCRATCH = threading.local()


def _scratch(slot: int, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) view of this thread's flat buffer ``slot`` (0 or 1),
    grown when a request is larger.  Only temporaries that never leave their
    call may live here: never a returned or cached array."""
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None:
        bufs = _SCRATCH.bufs = [np.empty(0), np.empty(0)]
    if bufs[slot].size < rows * cols:
        bufs[slot] = np.empty(rows * cols)
    return bufs[slot][:rows * cols].reshape(rows, cols)


def _tanh_slope(h: np.ndarray, out=None) -> np.ndarray:
    """1 - h^2, the derivative of tanh at the pre-activation of h = tanh(z)."""
    d = np.square(h, out=out)
    np.subtract(1.0, d, out=d)
    return d
