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
        "e5cee29a1de885b96d6c7db381e545fe645722aa006a6cabbb594acccc0a6d82",
    "lq_direct_pinv":
        "9a9ce91eb7025a048c954397e579ef1bf4be698d42af287b7ce23900ebf046e3",
    "lq_smoothed_cg":
        "e9f2039c507370314f8ed84dc574275570511c1790673c7410583db405123ef7",
    "pendulum_mlp_cg":
        "5620a68340e312b650990f38d39c5177a017b85328f95c84df24e02755fe074f",
    "pendulum_pice_pinv":
        "788664653a9d2cfdbc0c7d2393735517ba7e37c7bb30af61c7441654d82ec21c",
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
