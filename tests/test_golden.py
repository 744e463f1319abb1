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
        "be633c8f307d089803b3c201339a56e053a5de26e87bed0e68d757de345b7820",
    "lq_direct_pinv":
        "eacdc12139d511e2bd6071b72b995335db5f660ecbb6dfa6ec239e8fb9895de6",
    "lq_smoothed_cg":
        "bf7bc95a8bb1b82c4e1fdf964c451f7d91f2632c71a20ea918c90d04da046a71",
    "pendulum_mlp_cg":
        "28468be9d6bdfe82d7d2bdae7032646f65491f5abcb0303924dfa41b109190b2",
    "pendulum_pice_pinv":
        "2cfc65d373ef5824994972d68b3c8cd45d079b8194475bf805cb2870ad630871",
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
