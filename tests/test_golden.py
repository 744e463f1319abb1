"""Golden record streams: short seeded runs must reproduce bit for bit.

Each case is a shipped config from ``configs/`` cut to a small batch and a
few iterations, with two repeats.  The expected value is the sha256 of every
``IterationRecord`` field except ``wall_ms``, in stream order.  A refactor
must leave every digest unchanged; a deliberate change to the numbers
regenerates them and says why in CHANGES.md.

The digests are pinned to one BLAS build (numpy 2.4.6 with its bundled
scipy-openblas, x86_64).  OpenBLAS picks its matrix-product kernel by row
count, so one product over 2 rows and over 4 or more can differ in the last
bit; another BLAS may move the digests of every case whose policy mean is a
matrix product (the MLP, and the 9-feature acrobot basis).
"""

import hashlib
from dataclasses import fields
from pathlib import Path

import pytest

from aspic import ExperimentConfig, IterationRecord, run_aspic

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# name: (config file, overrides)
CASES = {
    "lq_smoothed_cg": ("lq_viapoints.json", dict(
        solver={"kind": "cg", "iters": 2})),
    "lq_direct_pinv": ("lq_viapoints.json", dict(
        estimator="direct", delta=None,
        solver={"kind": "per_timestep_pinv", "rcond": 1e-4})),
    "pendulum_pice_pinv": ("pendulum.json", dict(estimator="pice",
                                                 delta=None)),
    "acrobot_smoothed_pinv": ("acrobot.json", {}),
    "pendulum_mlp_cg": ("pendulum.json", dict(
        policy="mlp", solver={"kind": "cg", "iters": 10},
        env_overrides={"horizon": 1.0})),
}

GOLDEN = {
    "acrobot_smoothed_pinv":
        "7d878a51321754d21390c0a82ec8355bdc01fb846a1b9ca0b4d9eefd02d6c9da",
    "lq_direct_pinv":
        "ff464174c0d66e10ca905effaac1de9a4042d9c737579fccfd6a6e6f62d8b41e",
    "lq_smoothed_cg":
        "8ce0fc29d355c43e60728102d5514f774f33ecf6a49b58262716b13ef7361079",
    "pendulum_mlp_cg":
        "d81387479aa0d6ec436f8793d69309d92fc0a53541bc08419f045a143d2162c0",
    "pendulum_pice_pinv":
        "866ef8f1cda195dc89ecca449ccfa651036bdfdad041e0c9ac7b54c702094f2d",
}


def record_digest(records) -> str:
    names = [f.name for f in fields(IterationRecord) if f.name != "wall_ms"]
    h = hashlib.sha256()
    for run in records:
        for rec in run:
            h.update(repr(tuple(getattr(rec, n) for n in names)).encode())
    return h.hexdigest()


def golden_config(name: str) -> ExperimentConfig:
    path, overrides = CASES[name]
    cfg = ExperimentConfig.from_json(CONFIGS / path)
    return cfg.replace(n_rollouts=8, iterations=3, repeats=2, **overrides)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_stream_matches_golden(name):
    result = run_aspic(golden_config(name))
    assert [len(run) for run in result.records] == [3, 3]
    assert record_digest(result.records) == GOLDEN[name]
