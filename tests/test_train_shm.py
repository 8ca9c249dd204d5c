"""Shared-memory train-pool lifecycle: segments must never outlive the fit.

Every exit path — clean completion, a worker SIGKILL'd mid-fit, an injected
mid-fit exception, and a ``KeyboardInterrupt`` in the parent — must leave
``/dev/shm`` free of ``repro-train-*`` residue, and crash paths must degrade
to an in-process refit with a WARNING while producing the byte-identical
final ensemble.  A subprocess case runs a pooled fit under ``-W error`` to
prove no ``resource_tracker`` (or any other) warning fires.
"""

from __future__ import annotations

import glob
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.model import train_ensemble
from repro.model.shm import SEGMENT_PREFIX, AttachedArrays, SharedArrays

SRC = Path(__file__).resolve().parent.parent / "src"


def residue() -> list[str]:
    """Our shared-memory segments currently visible in /dev/shm."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


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


# -- segment plumbing -------------------------------------------------------


def test_share_attach_round_trip():
    arrays = {
        "bins": np.arange(24, dtype=np.uint8).reshape(4, 6),
        "y": np.array([-1, 1, 1, -1], dtype=np.int64),
    }
    with SharedArrays(arrays) as shared:
        attached = AttachedArrays(shared.wire_specs())
        try:
            for key, arr in arrays.items():
                view = attached.arrays[key]
                np.testing.assert_array_equal(view, arr)
                assert view.dtype == arr.dtype and view.shape == arr.shape
        finally:
            attached.close()
    assert not residue()


def test_attached_views_are_read_only():
    with SharedArrays({"a": np.zeros(4, dtype=np.int32)}) as shared:
        with AttachedArrays(shared.wire_specs()) as attached:
            with pytest.raises(ValueError):
                attached.arrays["a"][0] = 1


def test_segments_visible_then_unlinked_on_normal_exit():
    assert not residue()
    with SharedArrays({"a": np.arange(8)}):
        assert len(residue()) == 1
    assert not residue()


def test_segments_unlinked_when_block_raises():
    with pytest.raises(RuntimeError):
        with SharedArrays({"a": np.arange(8)}):
            assert residue()
            raise RuntimeError("boom")
    assert not residue()


def test_segments_unlinked_on_keyboard_interrupt():
    with pytest.raises(KeyboardInterrupt):
        with SharedArrays({"a": np.arange(8)}):
            assert residue()
            raise KeyboardInterrupt
    assert not residue()


def test_close_is_idempotent():
    shared = SharedArrays({"a": np.arange(8)})
    shared.close()
    shared.close()
    assert not residue()


# -- pool exit paths --------------------------------------------------------


def test_no_residue_after_clean_pooled_fit():
    _ensemble(workers=2)
    assert not residue()


def test_worker_sigkill_degrades_with_warning_and_identical_model(
    monkeypatch, caplog
):
    serial = _ensemble(workers=1)
    monkeypatch.setenv("REPRO_TRAIN_POOL_KILL_MEMBER", "1")
    # the repro telemetry root owns its own stderr handler and does not
    # propagate; re-enable propagation so caplog can observe the WARNING
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    with caplog.at_level(logging.WARNING, logger="repro.model.train_pool"):
        pooled = _ensemble(workers=2)
    assert any("train_pool.worker_lost" in r.getMessage() for r in caplog.records)
    for a, b in zip(serial, pooled):
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert a.history == b.history
    assert not residue()


def test_worker_exception_degrades_with_warning_and_identical_model(
    monkeypatch, caplog
):
    serial = _ensemble(workers=1)
    monkeypatch.setenv("REPRO_TRAIN_POOL_RAISE_MEMBER", "2")
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    with caplog.at_level(logging.WARNING, logger="repro.model.train_pool"):
        pooled = _ensemble(workers=2)
    lost = [r for r in caplog.records if "train_pool.worker_lost" in r.getMessage()]
    assert lost and "member=2" in lost[0].getMessage()
    for a, b in zip(serial, pooled):
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert a.history == b.history
    assert not residue()


# -- warnings-as-errors: the resource tracker must stay silent --------------

_W_ERROR_SCRIPT = """
import numpy as np
from repro.model import train_ensemble

rng = np.random.default_rng(0)
X = rng.normal(size=(120, 12))
y = np.where(rng.random(120) > 0.5, 1, -1).astype(np.int64)
members = train_ensemble(
    X, y, n_features=12, seeds=[1, 2, 3],
    fit_kwargs={"epochs": 4}, workers=2,
)
assert len(members) == 3
print("SHM_OK")
"""


def test_pooled_shm_fit_is_warning_free_under_W_error():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _W_ERROR_SCRIPT],
        capture_output=True,
        text=True,
        timeout=180,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "SHM_OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr
    assert "leaked" not in proc.stderr
    assert not residue()
