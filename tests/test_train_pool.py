"""Parallel ensemble training: ``--train-workers N`` must be semantics-free
(identical models, histories, and metrics for any thread count)."""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ModelError
from repro.faults import FaultPlan
from repro.model import HashedPerceptron, _native, train_ensemble
from repro.pipeline import PipelineConfig, run_pipeline

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


def blobs(n=80, d=16, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.normal(-1.5, 1.0, size=(n // 2, d)), rng.normal(1.5, 1.0, size=(n // 2, d))]
    )
    y = np.array([-1] * (n // 2) + [1] * (n // 2), dtype=np.int64)
    return X, y


def _models(n_features: int) -> list[HashedPerceptron]:
    return [HashedPerceptron(n_features, theta=5.0, seed=s) for s in (7000, 7001, 7002)]


def _ensemble(workers: int):
    X, y = blobs()
    return train_ensemble(_models(X.shape[1]), X, y, epochs=6, workers=workers)


def test_worker_count_is_semantics_free_for_training():
    serial = _ensemble(workers=1)
    pooled = _ensemble(workers=4)
    assert len(serial) == len(pooled) == 3
    for a, b in zip(serial, pooled):
        assert a.history == b.history
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert a.model.seed == b.model.seed
        np.testing.assert_array_equal(a.model._salts, b.model._salts)


def test_threads_over_numpy_fallback_match_serial(monkeypatch):
    """Without the native kernel every member hashes and trains on the numpy
    paths, which hold the GIL; threads must still leave the same bits, also
    when the interpreter switches threads far more often than usual."""
    monkeypatch.setattr(_native, "available", lambda: False)
    serial = _ensemble(workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [_ensemble(workers=workers) for workers in (2, 4)]
    finally:
        sys.setswitchinterval(interval)
    for members in threaded:
        for a, b in zip(serial, members):
            assert a.history == b.history
            np.testing.assert_array_equal(a.model.weights, b.model.weights)


def test_members_return_in_seed_order():
    X, y = blobs()
    models = _models(X.shape[1])
    members = train_ensemble(models, X, y, epochs=6, workers=2)
    assert [m.model for m in members] == models  # fitted in place, in order
    assert [m.model.seed for m in members] == [7000, 7001, 7002]
    assert all(m.train_s >= 0.0 for m in members)


def test_member_fit_error_propagates_without_refit(monkeypatch, caplog):
    """A member that raises inside ``fit`` fails the whole call: no member is
    fitted twice (members not yet started are cancelled), and nothing is
    retried or logged as a warning."""
    X, y = blobs()
    y[3] = 0  # not a +/-1 label: every member's fit raises ModelError
    calls = []
    fit = HashedPerceptron.fit

    def counting_fit(self, *args, **kwargs):
        calls.append(self.seed)
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(HashedPerceptron, "fit", counting_fit)
    # the repro telemetry root owns its own stderr handler and does not
    # propagate; re-enable propagation so caplog sees every record
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    with caplog.at_level(logging.WARNING, logger="repro"):
        with pytest.raises(ModelError, match="labels must be"):
            train_ensemble(_models(X.shape[1]), X, y, epochs=6, workers=2)
    assert calls and len(calls) == len(set(calls))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


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


# -- threads: byte-identical to serial at 2 and 4 workers ------------------


def _quarter_faults() -> FaultPlan:
    """The 25% payload-corruption plan the thread bit-identity matrix runs on."""
    return FaultPlan(corrupt_rate=0.25, seed=7)


def _member_bytes(run_dir: Path) -> list[bytes]:
    """Each saved member's weights and salts (the npz zip stamps mtimes)."""
    models = [HashedPerceptron.load(p) for p in sorted((run_dir / "models").glob("*.npz"))]
    return [m.weights.tobytes() + m._salts.tobytes() for m in models]


@pytest.mark.parametrize("workers", [2, 4])
def test_threads_match_serial_on_golden(tmp_path, workers):
    serial = _run(tmp_path / "serial", train_workers=1)
    threaded = _run(tmp_path / f"t{workers}", train_workers=workers)
    assert threaded == serial
    assert _member_bytes(tmp_path / f"t{workers}") == _member_bytes(tmp_path / "serial")


@pytest.mark.parametrize("workers", [2, 4])
def test_threads_match_serial_under_faults(tmp_path, workers):
    serial = _run(tmp_path / "serial", train_workers=1, faults=_quarter_faults())
    threaded = _run(tmp_path / f"t{workers}", train_workers=workers, faults=_quarter_faults())
    assert threaded == serial
    assert _member_bytes(tmp_path / f"t{workers}") == _member_bytes(tmp_path / "serial")
