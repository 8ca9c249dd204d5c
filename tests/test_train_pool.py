"""Parallel ensemble training: ``--train-workers N`` must be semantics-free
(identical models, histories, and metrics for any worker count)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.model import HashedPerceptron, train_ensemble
from repro.pipeline import PipelineConfig, run_pipeline

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


def blobs(n=80, d=16, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.normal(-1.5, 1.0, size=(n // 2, d)), rng.normal(1.5, 1.0, size=(n // 2, d))]
    )
    y = np.array([-1] * (n // 2) + [1] * (n // 2), dtype=np.int64)
    return X, y


def _ensemble(workers: int):
    X, y = blobs()
    return train_ensemble(
        X,
        y,
        n_features=X.shape[1],
        seeds=[7000, 7001, 7002],
        model_kwargs={"theta": 5.0},
        fit_kwargs={"epochs": 6},
        workers=workers,
    )


def test_worker_count_is_semantics_free_for_training():
    serial = _ensemble(workers=1)
    pooled = _ensemble(workers=4)
    assert len(serial) == len(pooled) == 3
    for a, b in zip(serial, pooled):
        assert a.history == b.history
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert a.model.seed == b.model.seed
        np.testing.assert_array_equal(a.model._salts, b.model._salts)


def test_members_return_in_seed_order():
    members = _ensemble(workers=2)
    assert [m.model.seed for m in members] == [7000, 7001, 7002]
    assert all(m.train_s >= 0.0 for m in members)


def test_pooled_members_match_direct_fit():
    X, y = blobs()
    direct = HashedPerceptron(X.shape[1], theta=5.0, seed=7001)
    direct_history = direct.fit(X, y, epochs=6)
    pooled = _ensemble(workers=3)[1]
    assert pooled.history == direct_history
    np.testing.assert_array_equal(pooled.model.weights, direct.weights)


#: metrics.json fields that may differ between runs: wall-clock only
_VOLATILE = ("created", "elapsed_s", "timings")


def _run(out_dir: Path, **overrides) -> dict:
    config = PipelineConfig(
        trace_dir=str(GOLDEN),
        out_dir=str(out_dir),
        epochs=6,
        seed=7,
        n_models=3,
        theta=5.0,
        **overrides,
    )
    run_pipeline(config)
    metrics = json.loads((out_dir / "metrics.json").read_text())
    for key in _VOLATILE:
        metrics.pop(key, None)
    # the knob under test is allowed to differ in the echoed config
    metrics["config"].pop("train_workers", None)
    return metrics


def test_pipeline_train_workers_invariance(tmp_path):
    serial = _run(tmp_path / "w1", train_workers=1)
    pooled = _run(tmp_path / "w4", train_workers=4)
    assert pooled == serial


def test_pipeline_train_workers_model_artifacts_identical(tmp_path):
    _run(tmp_path / "w1", train_workers=1)
    _run(tmp_path / "w4", train_workers=4)
    for k in range(3):
        a = HashedPerceptron.load(tmp_path / "w1" / "models" / f"member_{k}.npz")
        b = HashedPerceptron.load(tmp_path / "w4" / "models" / f"member_{k}.npz")
        np.testing.assert_array_equal(a.weights, b.weights)


def test_per_member_timings_in_metrics(tmp_path):
    config = PipelineConfig(
        trace_dir=str(GOLDEN), out_dir=str(tmp_path / "run"), epochs=3, n_models=2, theta=5.0
    )
    metrics = run_pipeline(config)
    members = metrics["timings"]["train_members_s"]
    assert len(members) == 2
    assert all(isinstance(v, float) and v >= 0.0 for v in members)


@pytest.mark.parametrize("kernel", ["reference", "blocked"])
def test_pipeline_fit_kernel_is_semantics_free(tmp_path, kernel):
    base = _run(tmp_path / "default")
    variant = _run(tmp_path / kernel, fit_kernel=kernel)
    base["config"].pop("fit_kernel", None)
    variant["config"].pop("fit_kernel", None)
    assert variant == base


# -- shared-memory pool: byte-identical to serial at 2 and 4 workers ---------


def _quarter_faults() -> FaultPlan:
    """The 25% payload-corruption plan the pool bit-identity matrix runs on."""
    return FaultPlan(corrupt_rate=0.25, seed=7)


@pytest.mark.parametrize("workers", [2, 4])
def test_shm_pool_matches_serial_blocked_on_golden(tmp_path, workers):
    serial = _run(tmp_path / "serial", train_workers=1, fit_kernel="blocked")
    shm = _run(tmp_path / f"shm{workers}", train_workers=workers, fit_kernel="blocked")
    assert shm == serial


@pytest.mark.parametrize("workers", [2, 4])
def test_shm_pool_matches_serial_blocked_under_faults(tmp_path, workers):
    serial = _run(
        tmp_path / "serial", train_workers=1, fit_kernel="blocked", faults=_quarter_faults()
    )
    shm = _run(
        tmp_path / f"shm{workers}",
        train_workers=workers,
        fit_kernel="blocked",
        faults=_quarter_faults(),
    )
    assert shm == serial
