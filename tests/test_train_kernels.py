"""Training-kernel equivalence: the optimized blocked and native kernels
must be bit-identical to the kept-as-reference naive epoch across seeds,
shuffles, and fault-injected corpora."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ModelError
from repro.faults import FaultPlan
from repro.features import Normalizer, build_dataset
from repro.ingest import load_corpus_pooled
from repro.model import HashedPerceptron
from repro.model.kernels import TrainPlan

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


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
    for kernel in ("reference", "blocked"):
        model = HashedPerceptron(X.shape[1], theta=theta, seed=seed, **kw)
        history = model.fit(X, y, epochs=epochs, kernel=kernel)
        out[kernel] = (model.weights.copy(), history)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_blocked_matches_reference_bitwise(seed):
    X, y = blobs(seed=seed)
    pair = fit_pair(X, y, seed=seed)
    ref_w, ref_h = pair["reference"]
    blk_w, blk_h = pair["blocked"]
    assert ref_h == blk_h, "update histories diverged"
    np.testing.assert_array_equal(ref_w, blk_w)


def test_blocked_matches_reference_under_shuffle_streams():
    """Different fit seeds draw different shuffle orders; every one of them
    must agree bit-for-bit between kernels."""
    X, y = blobs(seed=3)
    for fit_seed in (0, 5, 99):
        ref = HashedPerceptron(X.shape[1], theta=5.0, seed=11)
        blk = HashedPerceptron(X.shape[1], theta=5.0, seed=11)
        ref_h = ref.fit(X, y, epochs=8, seed=fit_seed, kernel="reference")
        blk_h = blk.fit(X, y, epochs=8, seed=fit_seed, kernel="blocked")
        assert ref_h == blk_h
        np.testing.assert_array_equal(ref.weights, blk.weights)


def test_fit_epoch_kernels_agree_without_shuffle():
    X, y = blobs(seed=2)
    ref = HashedPerceptron(X.shape[1], theta=5.0, seed=4)
    blk = HashedPerceptron(X.shape[1], theta=5.0, seed=4)
    ref_updates = ref.partial_fit(X, y, kernel="reference", shuffle=False)
    assert blk.partial_fit(X, y, kernel="blocked", shuffle=False) == ref_updates
    np.testing.assert_array_equal(ref.weights, blk.weights)


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
    ref_w, ref_h = pair["reference"]
    blk_w, blk_h = pair["blocked"]
    assert ref_h == blk_h
    np.testing.assert_array_equal(ref_w, blk_w)


def test_train_plan_preserves_index_multiset():
    """CSR dedup must reproduce exactly the flat index multiset per sample —
    that is what makes the fast update bit-identical to ``np.add.at``."""
    X, _ = blobs(n=30, seed=9)
    model = HashedPerceptron(X.shape[1], seed=9)
    flat = model._flat_indices(X)
    plan = TrainPlan.from_flat(flat)
    for i in range(flat.shape[0]):
        ui, cnt = plan.sample(i)
        assert len(ui) == len(np.unique(flat[i]))
        rebuilt = np.sort(np.repeat(ui, cnt))
        np.testing.assert_array_equal(rebuilt, np.sort(flat[i]))
        assert cnt.sum() == flat.shape[1]


def test_plan_indices_computed_once_per_fit_are_reused():
    """The permuted-row scratch is allocated once and reused across epochs."""
    X, y = blobs(n=40, seed=1)
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=1)
    flat = model._flat_indices(X)
    plan = TrainPlan.from_flat(flat)
    order = np.arange(len(y))
    first = plan.permuted_rows(order)
    second = plan.permuted_rows(order[::-1].copy())
    assert first is second  # same buffer, rewritten in place
    np.testing.assert_array_equal(second, flat[order[::-1]])


def test_unknown_kernel_is_a_typed_error():
    X, y = blobs(n=20, seed=0)
    model = HashedPerceptron(X.shape[1], seed=0)
    with pytest.raises(ModelError):
        model.fit(X, y, kernel="warp")
    with pytest.raises(ModelError):
        model.partial_fit(X, y, kernel="warp")


# -- native C kernel: same bits as the spec, or a typed refusal -------------


def _native_available() -> bool:
    from repro.model import _native

    return _native.available()


@pytest.mark.skipif(not _native_available(), reason="no C compiler available")
@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_native_kernel_matches_reference_bitwise(seed):
    X, y = blobs(seed=seed)
    ref = HashedPerceptron(X.shape[1], theta=5.0, seed=seed)
    nat = HashedPerceptron(X.shape[1], theta=5.0, seed=seed)
    ref_h = ref.fit(X, y, epochs=12, kernel="reference")
    nat_h = nat.fit(X, y, epochs=12, kernel="native")
    assert ref_h == nat_h, "update histories diverged"
    np.testing.assert_array_equal(ref.weights, nat.weights)
    np.testing.assert_array_equal(ref.decision(X), nat.decision(X))


@pytest.mark.skipif(not _native_available(), reason="no C compiler available")
def test_native_hash_and_margins_match_numpy_paths(monkeypatch):
    """The fused native hash/scoring routines must agree with the pure-numpy
    implementations bit-for-bit on the same trained weights."""
    from repro.model import _native

    X, y = blobs(seed=5)
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=9)
    model.fit(X, y, epochs=6)
    native_flat = model._flat_indices(X)
    native_margins = model.decision(X)
    # force the numpy fallback for the same model and inputs
    monkeypatch.setattr(_native, "available", lambda: False)
    np.testing.assert_array_equal(model._flat_indices(X), native_flat)
    np.testing.assert_array_equal(model.decision(X), native_margins)


@pytest.mark.skipif(not _native_available(), reason="no C compiler available")
def test_numpy_fallback_chunked_scoring_matches_one_shot_and_native(monkeypatch):
    """The numpy scoring path walks the rows in ``DEFAULT_BATCH_SIZE``
    chunks; shrinking the chunk runs that loop many times over a small
    matrix, and the margins must not move by a bit."""
    from repro.model import _native, perceptron

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


def test_auto_kernel_resolves_to_a_real_kernel():
    from repro.model.kernels import KERNEL_CHOICES, ONLINE_KERNELS, resolve_kernel

    resolved = resolve_kernel("auto")
    assert resolved in ONLINE_KERNELS
    assert "auto" in KERNEL_CHOICES
    with pytest.raises(ModelError):
        resolve_kernel("warp")
