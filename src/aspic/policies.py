"""Gaussian policies with fixed variance nu/dt.

Both mean families expose the same batched surface, listed with its shapes
in the ``GaussianPolicy`` docstring: the scalar action mean, its
Jacobian-vector products in the flat parameter vector, and per-step
log-probabilities, which is all the gradient estimators and the Fisher
machinery need.  The variance is static and not part of the parameter
vector, so every formula reduces to operations on the mean:

    log pi(a|x,t) = -(a - u(x,t))^2 / (2 sigma^2) - (1/2) log(2 pi sigma^2)
    grad log pi   = J_u(x,t)^T (a - u(x,t)) / sigma^2

with sigma^2 = nu/dt and J_u the Jacobian of the mean w.r.t. the parameters;
the estimators form the gradient as ``jac_t_v_steps`` of the scaled residual.

The methods take step-major stacked arrays, ``xs`` (T, ..., state_dim), or
a ``RolloutBatch``, evaluated once: a linear policy reads the (T, N, K)
features the sampler stored and keeps its mean, an MLP keeps the batch's
activations.  A bare array is evaluated afresh on every call and kept
nowhere.  The parameter count is fixed when a policy is built.
"""

from __future__ import annotations

import numpy as np

from .trajectory import RolloutBatch

__all__ = ["GaussianPolicy", "TimeVaryingLinearPolicy", "MlpPolicy",
           "lq_features", "pendulum_features",
           "acrobot_features"]


def _positive(noise_var: float) -> float:
    noise_var = float(noise_var)
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    return noise_var


def _states(xs) -> np.ndarray:
    """What the stacked-array methods read: ``xs``, or a batch's ``xs``."""
    return xs.xs if isinstance(xs, RolloutBatch) else xs


def _checked(name: str, a, want: tuple) -> np.ndarray:
    """``a`` as a float array, or a ValueError naming it if its shape is not
    ``want``."""
    a = np.asarray(a, dtype=float)
    if a.shape != want:
        raise ValueError(f"{name} has shape {a.shape}, expected {want}")
    return a


class GaussianPolicy:
    """Shared Gaussian machinery; each family supplies the mean map.

    Policies are immutable value objects.  Both families provide, over
    ``xs`` (T, ..., state_dim) or a ``RolloutBatch``, with P parameters:

    - ``with_params(params)``: a new policy with params (P,);
    - ``mean(x, t)``: u(x, t), shaped like x without its state axis;
    - ``mean_steps(xs)``: the means at every step, (T, ...);
    - ``jac_y_steps(xs, y)``: J_u(x_t, t) y at every step for y (P,),
      (T, ...);
    - ``jac_t_v_steps(xs, v)``: the sum of J_u^T v over rollouts and steps
      for v (T, ...), a (P,) vector;
    - ``fisher_trace(batch)``: trace F of the sampled Fisher, the squared
      norms of the Jacobian rows, summed, over (N noise_var).

    A ``y``, ``v`` or ``actions`` of another shape is a ValueError naming it,
    and so are states ``xs`` whose last axis is not the state_dim that the
    shipped feature maps or the network's input layer take.
    """

    noise_var: float  # nu/dt
    _params: np.ndarray  # flat, sized when the policy is built
    _kept = (None, None)  # (last batch handed in, its evaluation)

    @property
    def params(self) -> np.ndarray:
        return self._params.copy()

    def log_prob_steps(self, xs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-step log-probabilities, (T, ...) like the actions."""
        actions = _checked("actions", actions, np.shape(_states(xs))[:-1])
        resid = actions - self.mean_steps(xs)
        return (-resid ** 2 / (2.0 * self.noise_var)
                - 0.5 * np.log(2.0 * np.pi * self.noise_var))

    def _kept_for(self, batch: RolloutBatch, evaluate):
        """``evaluate(batch)``, formed by the first call on ``batch`` and
        kept until the policy is handed another batch."""
        if self._kept[0] is not batch:
            self._kept = (batch, evaluate(batch))
        return self._kept[1]


# ---------------------------------------------------------------------------
# Feature maps for the time-varying linear controllers
# ---------------------------------------------------------------------------

# Each map writes the features of states (..., state_dim) into its buffer
# ``out`` (..., K) and returns it.

def _state_array(xs, dim: int, out=None, width: int = 0) -> np.ndarray:
    """``xs`` as a float array, or a ValueError naming it unless its last
    axis is ``dim``; a ValueError naming ``num_features`` if ``out`` is
    given and its last axis is not ``width``."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 0 or xs.shape[-1] != dim:
        raise ValueError(f"xs has shape {xs.shape}, expected a last axis "
                         f"of {dim}")
    if out is not None and out.shape[-1:] != (width,):
        raise ValueError(f"the feature buffer has shape {out.shape}; "
                         f"this map writes num_features = {width}")
    return xs


def lq_features(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """[x, 1] for the one-dimensional Brownian particle."""
    x = _state_array(x, 1, out, 2)
    out[..., 0] = x[..., 0]
    out[..., 1] = 1.0
    return out


def pendulum_features(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """[cos x, sin x, xdot, 1]."""
    x = _state_array(x, 2, out, 4)
    np.cos(x[..., 0], out=out[..., 0])
    np.sin(x[..., 0], out=out[..., 1])
    out[..., 2] = x[..., 1]
    out[..., 3] = 1.0
    return out


def acrobot_features(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The 9-term acrobot controller basis.

    Order: [cos x1, sin x2, cos x2, sin x2, sin(x1+x2), cos(x1+x2),
    xdot1, xdot2, 1].  The sin(x2) term appears twice on purpose (the
    published controller lists it twice); the resulting per-block Fisher rank
    deficiency is handled by the pseudo-inverse / damping in the solvers.
    """
    x = _state_array(x, 4, out, 9)
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

    ``feature_fn(x, out)`` writes the ``num_features`` features of states
    x into the buffer ``out`` and returns it.  Parameters
    flatten to shape (num_steps * num_features,) and default to zeros; the
    block for time t only influences step t, which makes the Fisher matrix
    exactly block-diagonal across time.

    The stacked-array methods work on the features step-major, (T, M, K)
    over the M rows after the time axis, as a batch stores them: each
    product is one batched matmul with a (K,) vector per step, and comes
    back in the (T, ...) layout of ``xs`` without its state axis.
    """

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
        """Features (..., num_features) of xs, into ``out`` or a new array."""
        if out is None:
            out = np.empty(np.shape(xs)[:-1] + (self.num_features,))
        return self.feature_fn(np.asarray(xs, dtype=float), out)

    def step_features(self, xs) -> np.ndarray:
        """Features (T, ..., K): a batch's stored feature matrix, else the
        features of the states (T, ..., state_dim); a ValueError naming
        ``xs`` unless T is ``num_steps``, or ``features`` unless the stored
        K is ``num_features``."""
        states = _states(xs)
        if np.shape(states)[:1] != (self.num_steps,):
            raise ValueError(f"xs has shape {np.shape(states)}, expected "
                             f"{self.num_steps} steps first")
        if isinstance(xs, RolloutBatch) and xs.features is not None:
            if xs.features.shape[-1] != self.num_features:
                raise ValueError(f"features has shape {xs.features.shape}, "
                                 f"expected {self.num_features} columns")
            return xs.features
        return self.features(states)

    def with_params(self, params: np.ndarray) -> "TimeVaryingLinearPolicy":
        return TimeVaryingLinearPolicy(self.feature_fn, self.num_features,
                                       self.num_steps, self.noise_var, params)

    def mean(self, x: np.ndarray, t: int, features=None,
             out=None) -> np.ndarray:
        """u(x, t); the features of x go into ``features`` and the mean
        into ``out`` when given."""
        return np.matmul(self.features(x, features), self._theta[t], out=out)

    def mean_steps(self, xs: np.ndarray) -> np.ndarray:
        """A batch's kept mean, read-only; an array's, formed afresh."""
        if not isinstance(xs, RolloutBatch):
            return self._step_products(xs, self._theta)
        mean = self._kept_for(xs, lambda b: self._step_products(b, self._theta))
        mean.flags.writeable = False
        return mean

    def jac_y_steps(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._step_products(xs, _checked(
            "y", y, self._params.shape).reshape(self._theta.shape))

    def _step_products(self, xs, coef: np.ndarray) -> np.ndarray:
        """phi(x_t) . coef_t at every step, one (M, K) @ (K, 1) per step
        over the M rows; returns (T, ...)."""
        feats = self.step_features(xs)
        out = np.matmul(feats.reshape(self.num_steps, -1, self.num_features),
                        coef[:, :, None])
        return out.reshape(feats.shape[:-1])

    def jac_t_v_steps(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """v_t^T Phi_t per step, for v (T, ...)."""
        feats = self.step_features(xs)
        v = _checked("v", v, np.shape(_states(xs))[:-1])
        return np.matmul(v.reshape(self.num_steps, 1, -1), feats.reshape(
            self.num_steps, -1, self.num_features)).ravel()

    def fisher_trace(self, batch: RolloutBatch) -> float:
        """sum phi^2 / (N noise_var): a Jacobian row is the step's features."""
        feats = self.step_features(batch)
        return float(np.vdot(feats, feats)) / (batch.n * self.noise_var)


# ---------------------------------------------------------------------------
# MLP mean
# ---------------------------------------------------------------------------

# Rows per MLP block: caps every block temporary at BLOCK_ROWS x width and
# fixes the order in which ``jac_t_v_steps`` sums its blocks.
BLOCK_ROWS = 2048


class MlpPolicy(GaussianPolicy):
    """Mean given by a small tanh network; identity output layer.

    The network sees the state only (no time input), so the stacked-array
    methods flatten all leading dimensions into one batch axis.  Backprop is
    hand-rolled (the rest of the library is plain numpy) and checked against
    finite differences in the tests.  The output is one scalar action, so
    each sample's Jacobian row factors per layer into ``a_{l-1} (x) d_l``:
    the layer's input times its sensitivity ``d_l = du/dz_l``.

    The first call handed a ``RolloutBatch`` evaluates it once: the policy
    keeps the last batch's hidden activations and sensitivities, ``2 (L-1)``
    arrays of rows x width, keyed on the batch, and a product on it is then
    one matrix product per layer.  A batch is frozen and its arrays are
    read-only, so a kept evaluation cannot go stale.  A bare array is
    evaluated afresh on every call and kept nowhere.  Every other temporary
    as wide as a hidden layer (an unkept forward's hidden layers, the tanh
    slopes, a product's scaled factor) is formed ``BLOCK_ROWS`` rows at a
    time, so a call holds at most two of ``BLOCK_ROWS`` x width besides its
    outputs and the activations and sensitivities it evaluates.
    """

    def __init__(self, layer_sizes, noise_var: float,
                 params: np.ndarray | None = None, *, rng=None):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        if self.layer_sizes[-1] != 1:
            raise ValueError("layer_sizes must end in 1 (scalar actions "
                             f"only), got {list(self.layer_sizes)}")
        self.noise_var = _positive(noise_var)
        if params is None:
            if rng is None:
                raise ValueError("MlpPolicy needs params or a seeded rng")
            params = self._glorot_init(rng)
        self._params = np.asarray(params, dtype=float).copy()
        if self._params.size != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, "
                             f"got {self._params.size}")
        self._wb = list(self._layers(self._params))

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

    def _activations(self, xs) -> tuple:
        """([x, h_1, ..., h_{L-1}, u], [d_1, ..., d_L]) over the flattened
        rows of ``xs``: kept for a batch, computed afresh for an array."""
        if isinstance(xs, RolloutBatch):
            return self._kept_for(xs, lambda b: self._activations(b.xs))
        acts = self._forward(xs, keep=True)
        return acts, self._sensitivities(acts)

    def _forward(self, xs, keep: bool) -> list:
        """[x, h_1, ..., u] over xs by row blocks; without ``keep`` each
        hidden layer is a block-sized temporary and its entry is None.  A
        ValueError naming ``xs`` unless its last axis is ``layer_sizes[0]``."""
        x = _state_array(xs, self.layer_sizes[0]).reshape(
            -1, self.layer_sizes[0])
        acts = [x] + [np.empty((len(x), n)) if keep else None
                      for n in self.layer_sizes[1:-1]]
        acts.append(np.empty((len(x), 1)))
        for r in _blocks(len(x)):
            h = x[r]
            for i, ((w, b), out) in enumerate(zip(self._wb, acts[1:])):
                h = np.matmul(h, w, out=None if out is None else out[r])
                h += b
                if i < len(self._wb) - 1:
                    np.tanh(h, out=h)
        return acts

    def _sensitivities(self, acts) -> list:
        """d_L = 1 at the identity output, then d_l = (d_{l+1} W_{l+1}^T)
        (1 - h_l^2), by row blocks."""
        sens = [np.broadcast_to(1.0, (len(acts[0]), 1))]
        for h, (w, _) in zip(acts[-2:0:-1], self._wb[:0:-1]):
            d = np.empty_like(h)
            for r in _blocks(len(h)):
                g = np.matmul(sens[-1][r], w.T, out=d[r])
                slope = np.square(h[r])
                np.subtract(1.0, slope, out=slope)  # tanh' = 1 - h^2
                g *= slope
            sens.append(d)
        return sens[::-1]

    def mean(self, x: np.ndarray, t: int) -> np.ndarray:
        return self.mean_steps(x)

    def mean_steps(self, xs: np.ndarray) -> np.ndarray:
        """A batch's kept output layer, evaluated by the first call on it;
        over an array, one forward that keeps no hidden layer."""
        out = (self._activations(xs)[0] if isinstance(xs, RolloutBatch)
               else self._forward(xs, keep=False))[-1]
        return out.reshape(np.shape(_states(xs))[:-1]).copy()

    def jac_t_v_steps(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(v a_{l-1})^T d_l = a_{l-1}^T (v d_l) and v^T d_l per layer."""
        acts, sens = self._activations(xs)
        v = _checked("v", v, np.shape(_states(xs))[:-1]).reshape(-1, 1)
        grads = []
        for a, d in zip(acts, sens):
            swap = a.shape[1] > d.shape[1]  # v scales the narrower side
            p, q = (d, a) if swap else (a, d)
            gw, gb = np.zeros((p.shape[1], q.shape[1])), np.zeros(d.shape[1])
            for r in _blocks(len(v)):
                gw += (p[r] * v[r]).T @ q[r]
                gb += v[r, 0] @ d[r]
            grads += [(gw.T if swap else gw).ravel(), gb]
        return np.concatenate(grads)

    def fisher_trace(self, batch: RolloutBatch) -> float:
        """sum over rows and layers of (|a_{l-1}|^2 + 1) |d_l|^2, the squared
        norm of the row's Jacobian block (a_{l-1} (x) d_l, d_l), over
        (N noise_var)."""
        acts, sens = self._activations(batch)
        total = 0.0
        for a, d in zip(acts, sens):
            total += float((np.einsum("ij,ij->i", a, a) + 1.0)
                           @ np.einsum("ij,ij->i", d, d))
        return total / (batch.n * self.noise_var)

    def jac_y_steps(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """sum_l rowsum((a_{l-1} dW_l) d_l) + d_l db_l; the first term is
        also rowsum(a_{l-1} (d_l dW_l^T)), formed on the narrower side."""
        acts, sens = self._activations(xs)
        out = np.zeros(len(acts[0]))
        for a, d, (dw, db) in zip(acts, sens, self._layers(
                _checked("y", y, self._params.shape))):
            p, q, m = (a, d, dw.T) if a.shape[1] < d.shape[1] else (d, a, dw)
            for r in _blocks(len(out)):
                out[r] += np.einsum("ij,ij->i", q[r] @ m, p[r]) + d[r] @ db
        return out.reshape(np.shape(_states(xs))[:-1])


def _blocks(rows: int) -> list:
    return [slice(i, i + BLOCK_ROWS) for i in range(0, rows, BLOCK_ROWS)]
