"""Training-kernel equivalence: the native kernel must be bit-identical to
the kept-as-reference naive epoch across seeds, shuffles, and fault-injected
corpora."""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ModelError
from repro.faults import FaultPlan
from repro.features import Normalizer, build_dataset
from repro.ingest import load_corpus_pooled
from repro.model import HashedPerceptron, _native

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"

needs_native = pytest.mark.skipif(not _native.available(), reason="no C compiler available")


def blobs(n=120, d=24, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(-gap / 2, 1.0, size=(n // 2, d)),
            rng.normal(+gap / 2, 1.0, size=(n // 2, d)),
        ]
    )
    y = np.array([-1] * (n // 2) + [1] * (n // 2), dtype=np.int64)
    order = rng.permutation(n)
    return X[order], y[order]


def fit_pair(X, y, *, seed, epochs=12, theta=5.0, **kw):
    """Train one model per kernel from identical initial state."""
    out = {}
    for kernel in ("reference", "native"):
        model = HashedPerceptron(X.shape[1], theta=theta, seed=seed, **kw)
        history = model.fit(X, y, epochs=epochs, kernel=kernel)
        out[kernel] = (model, history)
    return out


@needs_native
@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_native_kernel_matches_reference_bitwise(seed):
    X, y = blobs(seed=seed)
    pair = fit_pair(X, y, seed=seed)
    ref, ref_h = pair["reference"]
    nat, nat_h = pair["native"]
    assert ref_h == nat_h, "update histories diverged"
    np.testing.assert_array_equal(ref.weights, nat.weights)
    np.testing.assert_array_equal(ref.decision(X), nat.decision(X))


@needs_native
def test_native_matches_reference_under_shuffle_streams():
    """Different fit seeds draw different shuffle orders; every one of them
    must agree bit-for-bit between kernels."""
    X, y = blobs(seed=3)
    for fit_seed in (0, 5, 99):
        ref = HashedPerceptron(X.shape[1], theta=5.0, seed=11)
        nat = HashedPerceptron(X.shape[1], theta=5.0, seed=11)
        ref_h = ref.fit(X, y, epochs=8, seed=fit_seed, kernel="reference")
        nat_h = nat.fit(X, y, epochs=8, seed=fit_seed, kernel="native")
        assert ref_h == nat_h
        np.testing.assert_array_equal(ref.weights, nat.weights)


@needs_native
def test_fit_epoch_kernels_agree_without_shuffle():
    X, y = blobs(seed=2)
    ref = HashedPerceptron(X.shape[1], theta=5.0, seed=4)
    nat = HashedPerceptron(X.shape[1], theta=5.0, seed=4)
    ref_updates = ref.partial_fit(X, y, kernel="reference", shuffle=False)
    assert nat.partial_fit(X, y, kernel="native", shuffle=False) == ref_updates
    np.testing.assert_array_equal(ref.weights, nat.weights)


@needs_native
@pytest.mark.parametrize(
    "faults",
    [
        pytest.param(None, id="clean"),
        pytest.param(FaultPlan(corrupt_rate=0.25, seed=11), id="corrupt-25"),
        pytest.param(FaultPlan(corrupt_rate=0.50, seed=11), id="corrupt-50"),
    ],
)
def test_kernels_agree_on_fault_injected_corpus(faults):
    """The real (possibly salvage-degraded) feature matrices must train
    identically under both kernels, whatever the fault rate did to them."""
    results, _ = load_corpus_pooled(GOLDEN, workers=1, faults=faults)
    assert results, "golden corpus must yield at least one decodable trace"
    dataset = build_dataset([r.trace for r in results])
    X = Normalizer().fit(dataset.X).transform(dataset.X)
    pair = fit_pair(X, dataset.y, seed=7, epochs=6)
    ref, ref_h = pair["reference"]
    nat, nat_h = pair["native"]
    assert ref_h == nat_h
    np.testing.assert_array_equal(ref.weights, nat.weights)


def test_unknown_kernel_is_a_typed_error():
    X, y = blobs(n=20, seed=0)
    model = HashedPerceptron(X.shape[1], seed=0)
    with pytest.raises(ModelError):
        model.fit(X, y, kernel="warp")
    with pytest.raises(ModelError):
        model.partial_fit(X, y, kernel="warp")


def test_plan_indices_computed_once_per_fit_are_reused(monkeypatch):
    """fit() hashes the rows into one TrainPlan and hands that same plan to
    every epoch; no epoch recomputes the indices."""
    X, y = blobs(n=40, seed=1)
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=1)
    hashed, plans = [], []
    flat_from_bins = HashedPerceptron._flat_from_bins
    run_epoch = HashedPerceptron._run_online_epoch

    def spy_hash(self, bins):
        hashed.append(bins.shape)
        return flat_from_bins(self, bins)

    def spy_epoch(self, plan, y, order, kernel):
        plans.append(plan)
        return run_epoch(self, plan, y, order, kernel)

    monkeypatch.setattr(HashedPerceptron, "_flat_from_bins", spy_hash)
    monkeypatch.setattr(HashedPerceptron, "_run_online_epoch", spy_epoch)
    history = model.fit(X, y, epochs=4)
    assert len(history) >= 2
    assert hashed == [X.shape]
    assert len(plans) == len(history)
    assert all(plan is plans[0] for plan in plans)
    np.testing.assert_array_equal(plans[0].flat, model._flat_indices(X))


# -- native C build: one compile per build dir, numpy paths agree -----------


def _has_compiler() -> bool:
    return _native._compiler() is not None


@pytest.mark.skipif(not _has_compiler(), reason="no C compiler available")
def test_concurrent_first_native_load_waits_for_the_compile(tmp_path, monkeypatch):
    """Two threads racing the first load on an empty build dir must both get
    the library; neither may fall back to numpy while the other compiles."""
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_load_attempted", False)
    barrier = threading.Barrier(2)
    seen = []

    def first_call():
        barrier.wait(timeout=60)
        seen.append(_native.available())

    threads = [threading.Thread(target=first_call) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)
        assert not t.is_alive()
    assert seen == [True, True]
    assert len(list(tmp_path.glob("kernel_*.so"))) == 1


@needs_native
def test_native_hash_and_margins_match_numpy_paths(monkeypatch):
    """The fused native hash/scoring routines must agree with the pure-numpy
    implementations bit-for-bit on the same trained weights."""
    X, y = blobs(seed=5)
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=9)
    model.fit(X, y, epochs=6)
    native_flat = model._flat_indices(X)
    native_margins = model.decision(X)
    # force the numpy fallback for the same model and inputs
    monkeypatch.setattr(_native, "available", lambda: False)
    np.testing.assert_array_equal(model._flat_indices(X), native_flat)
    np.testing.assert_array_equal(model.decision(X), native_margins)


@needs_native
def test_numpy_fallback_chunked_scoring_matches_one_shot_and_native(monkeypatch):
    """The numpy scoring path walks the rows in ``DEFAULT_BATCH_SIZE``
    chunks; shrinking the chunk runs that loop many times over a small
    matrix, and the margins must not move by a bit."""
    from repro.model import perceptron

    X, y = blobs(n=50, seed=4)
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=3)
    model.fit(X, y, epochs=6)
    native_margins = model.decision(X)
    monkeypatch.setattr(_native, "available", lambda: False)
    one_shot = model.decision(X)
    monkeypatch.setattr(perceptron, "DEFAULT_BATCH_SIZE", 7)
    chunked = model.decision(X)
    np.testing.assert_array_equal(chunked, one_shot)
    np.testing.assert_array_equal(chunked, native_margins)


def test_auto_kernel_resolves_to_a_real_kernel(monkeypatch):
    from repro.model.kernels import KERNEL_CHOICES, ONLINE_KERNELS, resolve_kernel

    resolved = resolve_kernel("auto")
    assert resolved in ONLINE_KERNELS
    assert resolved == ("native" if _native.available() else "reference")
    assert KERNEL_CHOICES == ("auto", "native", "reference")
    with pytest.raises(ModelError):
        resolve_kernel("warp")
    # without a native build the spec itself trains
    monkeypatch.setattr(_native, "available", lambda: False)
    assert resolve_kernel("auto") == "reference"
