"""Hashed perceptron: convergence on linearly separable data, clamping,
persistence round-trip, config validation, and the chunked quantize pinned
to the full-matrix formula it replaced."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import ModelError
from repro.features.normalize import CHUNK_BYTES, chunk_rows
from repro.model import HashedPerceptron
from repro.model.perceptron import quantize_bins


def separable_set(n: int = 200, d: int = 10, gap: float = 4.0, seed: int = 0):
    """Two well-separated gaussian blobs, labels in {-1, +1}."""
    rng = np.random.default_rng(seed)
    X_neg = rng.normal(loc=-gap / 2, scale=0.5, size=(n // 2, d))
    X_pos = rng.normal(loc=+gap / 2, scale=0.5, size=(n // 2, d))
    X = np.vstack([X_neg, X_pos])
    y = np.array([-1] * (n // 2) + [1] * (n // 2), dtype=np.int64)
    order = rng.permutation(n)
    return X[order], y[order]


def test_converges_on_separable_data():
    X, y = separable_set()
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=1)
    history = model.fit(X, y, epochs=30)
    assert history[-1] < history[0]  # updates decrease as it converges
    assert (model.predict(X) == y).mean() == 1.0


def test_generalizes_to_held_out_separable_data():
    X, y = separable_set(seed=0)
    Xt, yt = separable_set(seed=99)
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=1)
    model.fit(X, y, epochs=30)
    assert (model.predict(Xt) == yt).mean() >= 0.95


def test_weights_respect_clamp():
    X, y = separable_set()
    model = HashedPerceptron(X.shape[1], theta=1000.0, weight_clamp=7, seed=0)
    model.fit(X, y, epochs=10)
    assert model.weights.max() <= 7
    assert model.weights.min() >= -7
    assert np.abs(model.weights).max() == 7  # huge theta forces saturation


def test_default_theta_scales_sublinearly():
    # with ~1k summands a linear theta never lets training converge; the
    # default must grow like sqrt(n_features)
    small = HashedPerceptron(16).theta
    large = HashedPerceptron(1159).theta
    assert large < 1159  # far below the linear regime
    assert large > small


def test_decision_is_deterministic():
    X, y = separable_set(n=40)
    model = HashedPerceptron(X.shape[1], seed=5)
    model.fit(X, y, epochs=3)
    np.testing.assert_array_equal(model.decision(X), model.decision(X))


def test_hash_seed_changes_table_assignment():
    X, _ = separable_set(n=10)
    a = HashedPerceptron(X.shape[1], seed=1)
    b = HashedPerceptron(X.shape[1], seed=2)
    assert not np.array_equal(a._flat_indices(X), b._flat_indices(X))


def test_save_load_round_trip(tmp_path):
    X, y = separable_set()
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=3)
    model.fit(X, y, epochs=10)
    path = tmp_path / "model.npz"
    model.save(path)
    reloaded = HashedPerceptron.load(path)
    np.testing.assert_array_equal(model.weights, reloaded.weights)
    np.testing.assert_array_equal(model.decision(X), reloaded.decision(X))
    assert reloaded.theta == model.theta


def test_load_garbage_is_typed(tmp_path):
    path = tmp_path / "model.npz"
    path.write_bytes(b"not a model")
    with pytest.raises(ModelError):
        HashedPerceptron.load(path)


def test_bad_inputs_are_typed():
    model = HashedPerceptron(4)
    with pytest.raises(ModelError):
        model.decision(np.ones((3, 5)))  # wrong width
    with pytest.raises(ModelError):
        model.partial_fit(np.ones((2, 4)), np.array([0, 2]))  # labels not in {-1,1}
    with pytest.raises(ModelError):
        HashedPerceptron(0)


@pytest.mark.parametrize(
    "config",
    [
        dict(n_tables=0),
        dict(n_tables=(1 << 16) + 1),
        dict(table_bits=0),
        dict(table_bits=31),
        dict(table_bits=40),
        dict(theta=-5.0),
        dict(theta=float("nan")),
        dict(theta=float("inf")),
    ],
)
def test_unbuildable_config_is_refused_at_construction(config):
    # the pipeline, retrain and load all build members through __init__, so
    # one rule keeps a crash, a numpy allocation error and an unloadable
    # published artifact out of all three
    with pytest.raises(ModelError):
        HashedPerceptron(8, **config)


def test_config_range_edges_are_accepted():
    HashedPerceptron(8, n_tables=1, table_bits=1, theta=0.0)
    HashedPerceptron(8, n_tables=1 << 16, table_bits=1)


# ---------------------------------------------------------------------------
# quantize_bins against the full-matrix formula it replaced
# ---------------------------------------------------------------------------


def reference_quantize_bins(X, n_bins):
    """The full-matrix quantize that row chunking replaced, kept as the
    oracle: a float64 and an int64 copy of the whole matrix."""
    X = np.asarray(X, dtype=np.float64)
    scaled = np.clip(X, -4.0, 4.0)
    scaled += 4.0
    scaled *= n_bins / 8.0
    with np.errstate(invalid="ignore"):  # NaN is the one value with no int
        bins = scaled.astype(np.int64)
    np.minimum(bins, n_bins - 1, out=bins)
    return bins.astype(np.uint8)


WIDTH = 24


def quantize_inputs(n_rows, n_bins, seed=0):
    """z-score-like values with every edge case scattered in: NaN, +-inf,
    -0.0, subnormals, +-4.0, each bin edge and its float neighbours."""
    edges = -4.0 + 8.0 * np.arange(n_bins + 1) / n_bins
    special = np.concatenate(
        [
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310],
            [4.0, -4.0, 4.5, -4.5, 1e300, -1e300],
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
        ]
    )
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=3.0, size=(n_rows, WIDTH))
    if X.size:
        idx = rng.choice(X.size, size=min(X.size, 3 * special.size), replace=False)
        X.flat[idx] = np.resize(special, idx.size)
    return X


def chunk_row_counts():
    step = chunk_rows(np.empty((0, WIDTH)))
    return [0, 1, step - 1, step, step + 1]


def assert_same_bins(X, n_bins):
    before = np.array(X, copy=True)
    got = quantize_bins(X, n_bins)
    assert got.dtype == np.uint8 and got.shape == np.shape(X)
    assert got.tobytes() == reference_quantize_bins(X, n_bins).tobytes()
    # the input is only read
    assert np.asarray(X).tobytes() == before.tobytes()


@pytest.mark.parametrize("n_bins", [1, 7, 16, 256])
@pytest.mark.parametrize("n_rows", chunk_row_counts())
def test_quantize_matches_full_matrix_formula(n_rows, n_bins):
    assert_same_bins(quantize_inputs(n_rows, n_bins), n_bins)


@pytest.mark.parametrize("n_bins", [1, 256])
def test_quantize_matches_on_non_contiguous_and_memmapped_input(tmp_path, n_bins):
    step = chunk_rows(np.empty((0, WIDTH)))
    wide = np.hstack([quantize_inputs(2 * step + 3, n_bins, seed=s) for s in (1, 2)])
    assert_same_bins(wide[::2, ::2], n_bins)
    assert_same_bins(np.asfortranarray(wide[:, :WIDTH]), n_bins)
    path = tmp_path / "X.npy"
    np.save(path, wide[:, :WIDTH])
    mapped = np.load(path, mmap_mode="r")
    assert not mapped.flags.writeable
    assert_same_bins(mapped, n_bins)


def test_quantize_holds_its_output_plus_one_chunk():
    X = np.random.default_rng(0).normal(scale=3.0, size=(100_000, WIDTH))
    tracemalloc.start()
    try:
        bins = quantize_bins(X, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the full-matrix formula held a float64 and an int64 copy of X, 16
    # times the uint8 output
    assert peak <= bins.nbytes + 2 * CHUNK_BYTES, peak
