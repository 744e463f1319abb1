"""Span recorder for the traced benchmark run.

Only a traced measurement imports this module.  Inside ``with Tracer(rec)``
the functions each aspic layer exposes are replaced by timing wrappers, at
the names where their callers look them up (``aspic.runner.sample_batch``,
``aspic.smoothing.normalized_weights``, policy methods on their classes, ...);
leaving the block puts the originals back.

Every span has a name, start, end, parent span, run id and iteration id.
Spans stay in flat in-memory arrays until ``save`` writes them out.  The
iteration span is built when the runner constructs its ``IterationRecord``:
it ends there and lasts the record's ``wall_ms``; its children are the
top-level spans since that iteration's ``sample_batch`` call.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import aspic.environments
import aspic.natural_gradient
import aspic.policies
import aspic.runner
import aspic.smoothing
import aspic.trajectory

RUN = "runner.run"
ITERATION = "runner.iteration"
STEP = "natural_gradient.step"
START_SLACK_S = 1e-3

_P = aspic.policies
# (owner, attribute, span name).  Owners are where callers look names up.
TARGETS = (
    (aspic.runner, "sample_batch", "environments.sample_batch"),
    (aspic.environments, "Trajectory", "trajectory.objects"),
    (aspic.environments, "RolloutBatch", "trajectory.objects"),
    (aspic.trajectory, "stochastic_cost", "trajectory.objects"),
    (_P.TimeVaryingLinearPolicy, "features", "policies.features"),
    (_P.TimeVaryingLinearPolicy, "mean", "policies.mean"),
    (_P.TimeVaryingLinearPolicy, "mean_steps", "policies.mean"),
    (_P.TimeVaryingLinearPolicy, "jac_y_steps", "policies.jac_y_steps"),
    (_P.TimeVaryingLinearPolicy, "jac_t_v_steps", "policies.jac_t_v_steps"),
    (_P.MlpPolicy, "mean", "policies.mean"),
    (_P.MlpPolicy, "mean_steps", "policies.mean"),
    (_P.MlpPolicy, "jac_y_steps", "policies.jac_y_steps"),
    (_P.MlpPolicy, "jac_t_v_steps", "policies.jac_t_v_steps"),
    (_P.GaussianPolicy, "log_prob_steps", "policies.log_prob_steps"),
    (aspic.runner, "find_alpha", "smoothing.find_alpha"),
    (aspic.smoothing, "normalized_weights", "smoothing.normalized_weights"),
    (aspic.runner, "smoothed_gradient", "gradients.estimator"),
    (aspic.runner, "direct_gradient", "gradients.estimator"),
    (aspic.runner, "pice_gradient", "gradients.estimator"),
    (aspic.runner, "trust_region_step", STEP),
    (aspic.natural_gradient, "conjugate_gradient", "natural_gradient.solve"),
    (aspic.natural_gradient, "per_timestep_natural_direction",
     "natural_gradient.solve"),
    (aspic.runner, "run_aspic", RUN),
    (aspic.runner, "IterationRecord", ITERATION),
)


class SpanRecorder:
    """Flat arrays of spans; index order is the order spans were opened."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.cg_iterations: list[int] = []  # one per trust-region step
        self._stack: list[int] = []
        self._run = -1
        self._run_span = -1
        self._iter_first = -1
        self._iterations: list = []  # (first span, iteration span, run span)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.start.append(time.perf_counter() if start is None else start)
        self.end.append(float("nan"))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.end[idx] = time.perf_counter() if end is None else end
        self._stack.pop()

    def top_level(self) -> bool:
        """True when the innermost open span is the current run."""
        return bool(self._stack) and self._stack[-1] == self._run_span

    def begin_run(self) -> int:
        self._run += 1
        self._run_span = self.open(RUN)
        self._iter_first = -1
        return self._run_span

    def end_run(self, idx: int) -> None:
        self.close(idx)
        self._run_span = -1

    def begin_iteration(self) -> None:
        if self.top_level():
            self._iter_first = len(self.start)

    def end_iteration(self, wall_s: float, now: float | None = None) -> None:
        """Close an iteration that ended at ``now`` and lasted ``wall_s``."""
        if self._iter_first < 0:
            return
        if now is None:
            now = time.perf_counter()
        idx = self.open(ITERATION, start=now - wall_s)
        self.close(idx, end=now)
        self._iterations.append((self._iter_first, idx, self._run_span))
        self._iter_first = -1

    def arrays(self) -> dict:
        """Span columns as numpy arrays, with iteration membership resolved:
        top-level spans of an iteration become children of its span."""
        cols = {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "run": np.frombuffer(self.run, dtype=np.int32)}
        cols = {k: v.copy() for k, v in cols.items()}
        iteration = np.full(len(self.start), -1, dtype=np.int32)
        parent = cols["parent"]
        for it, (first, idx, run_span) in enumerate(self._iterations):
            members = parent[first:idx]
            members[members == run_span] = idx
            iteration[first:idx + 1] = it
        cols["iteration"] = iteration
        return cols

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def iteration_problems(cols, iteration_id: int) -> list:
    """Reasons the iteration spans do not hold their children: children
    that outlast the record's ``wall_ms`` (a negative iteration self time),
    or a top-level child outside [end - wall_ms, end] of its iteration.

    The runner reads its clock for ``wall_ms`` just before the record
    wrapper reads it for the iteration's end, so the iteration span starts
    that moment late; a child may start up to START_SLACK_S before it.
    """
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    is_iter = cols["name"] == iteration_id
    self_t = self_times(start, end, parent)
    problems = [f"children of iteration span {i} last {-self_t[i]!r} s "
                f"longer than the iteration"
                for i in np.flatnonzero(is_iter & (self_t < -1e-9))]
    child = np.flatnonzero(parent >= 0)
    child = child[is_iter[parent[child]]]
    it = parent[child]
    outside = child[(start[child] < start[it] - START_SLACK_S)
                    | (end[child] > end[it])]
    problems += [f"span {c} lies outside its iteration span {parent[c]}"
                 for c in outside]
    return problems


def _timed(rec: SpanRecorder, name: str, fn):
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return traced


def _wrapper(rec: SpanRecorder, name: str, fn):
    if name == RUN:
        def traced_run(*args, **kwargs):
            idx = rec.begin_run()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end_run(idx)
        return traced_run
    if name == ITERATION:
        def traced_record(*args, **kwargs):
            now = time.perf_counter()
            record = fn(*args, **kwargs)
            rec.end_iteration(record.wall_ms / 1e3, now)
            return record
        return traced_record
    timed = _timed(rec, name, fn)
    if name == "environments.sample_batch":
        def traced_sample(*args, **kwargs):
            rec.begin_iteration()
            return timed(*args, **kwargs)
        return traced_sample
    if name == STEP:
        def traced_step(*args, **kwargs):
            update = timed(*args, **kwargs)
            rec.cg_iterations.append(update.cg_iterations or 0)
            return update
        return traced_step
    return timed


class Tracer:
    """Installs span wrappers on entry and removes them on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list = []

    def __enter__(self) -> SpanRecorder:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(self.recorder, name, original))
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

