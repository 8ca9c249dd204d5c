"""Feature layer: dataset assembly, NaN/Inf sanitization, z-score round-trip
of persisted statistics, and the in-place normalizer pinned to the
full-matrix formulas it replaced."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import make_trace
from repro.errors import FeatureError
from repro.features import Normalizer, build_dataset
from repro.features.normalize import CHUNK_BYTES, Z_CLIP, chunk_rows


def test_build_dataset_stacks_intervals_with_groups():
    traces = [
        make_trace(program="a", label=-1, n_intervals=3, seed=1),
        make_trace(program="b", label=1, attack_class="x", n_intervals=5, seed=2),
    ]
    ds = build_dataset(traces)
    assert ds.n_samples == 8
    assert list(np.unique(ds.groups)) == [0, 1]
    assert (ds.y[ds.groups == 0] == -1).all()
    assert (ds.y[ds.groups == 1] == 1).all()
    assert ds.trace_labels().tolist() == [-1, 1]


def test_build_dataset_skips_foreign_width():
    traces = [
        make_trace(program="a", n_features=12, seed=1),
        make_trace(program="b", n_features=12, seed=2),
        make_trace(program="weird", n_features=7, seed=3),
    ]
    ds = build_dataset(traces)
    assert len(ds.traces) == 2
    assert ds.skipped == [("weird", "feature_width_7_vs_12")]


def test_build_dataset_empty_is_typed():
    with pytest.raises(FeatureError):
        build_dataset([])


def test_normalizer_sanitizes_nan_inf():
    X = np.array([[1.0, 10.0], [3.0, np.nan], [5.0, np.inf], [7.0, -np.inf]])
    norm = Normalizer(log_scale=False).fit(X)
    Z = norm.transform(X)
    assert np.isfinite(Z).all()
    assert (np.abs(Z) <= Z_CLIP).all()
    # non-finite cells impute to the fitted median -> identical z-scores
    assert Z[1, 1] == Z[2, 1] == Z[3, 1]


def test_normalizer_zero_variance_column_is_safe():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    Z = Normalizer(log_scale=False).fit(X).transform(X)
    assert np.isfinite(Z).all()
    assert (Z[:, 0] == 0).all()  # constant column -> 0, not inf


def test_normalizer_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.lognormal(mean=3.0, sigma=2.0, size=(50, 8))
    X[4, 2] = np.nan
    norm = Normalizer().fit(X)
    path = tmp_path / "stats.json"
    norm.save(path)
    reloaded = Normalizer.load(path)
    assert reloaded.log_scale == norm.log_scale
    np.testing.assert_array_equal(norm.transform(X), reloaded.transform(X))


def test_normalizer_load_rejects_garbage(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text("{not json")
    with pytest.raises(FeatureError):
        Normalizer.load(path)
    path.write_text('{"version": 99}')
    with pytest.raises(FeatureError):
        Normalizer.load(path)


def test_normalizer_rejects_width_mismatch():
    norm = Normalizer(log_scale=False).fit(np.ones((4, 3)))
    with pytest.raises(FeatureError):
        norm.transform(np.ones((4, 5)))


def test_unfitted_transform_is_typed():
    with pytest.raises(FeatureError):
        Normalizer().transform(np.ones((2, 2)))


def test_log_scale_tames_heavy_tails():
    """Counters spanning orders of magnitude stay informative after scaling."""
    X = np.array([[1.0], [1e3], [1e6], [1e9]])
    Z = Normalizer(log_scale=True).fit(X).transform(X)
    # without log scaling three of four samples would collapse near the mean;
    # with it the spacing is roughly even
    gaps = np.diff(Z.ravel())
    assert gaps.min() > 0.3 * gaps.max()


# ---------------------------------------------------------------------------
# in-place fit/transform against the full-matrix formulas they replaced
# ---------------------------------------------------------------------------


def reference_prescale(X, log_scale):
    if not log_scale:
        return X
    with np.errstate(invalid="ignore"):
        return np.sign(X) * np.log1p(np.abs(X))


def reference_fit(X, log_scale):
    """The full-matrix fit that in-place row chunks replaced, kept as the
    oracle: returns (median, mean, std)."""
    X = reference_prescale(np.asarray(X, dtype=np.float64), log_scale)
    finite = np.isfinite(X)
    masked = np.where(finite, X, np.nan)
    with np.errstate(all="ignore"):
        median = np.nan_to_num(np.nanmedian(masked, axis=0), nan=0.0)
        imputed = np.where(finite, X, median)
        mean = imputed.mean(axis=0)
        std = imputed.std(axis=0)
    std[~np.isfinite(std) | (std < 1e-12)] = 1.0
    return median, mean, std


def reference_transform(X, log_scale, median, mean, std):
    X = reference_prescale(np.asarray(X, dtype=np.float64), log_scale)
    imputed = np.where(np.isfinite(X), X, median)
    return np.clip((imputed - mean) / std, -Z_CLIP, Z_CLIP)


WIDTH = 24
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310, 4.0, -4.0, 1e300]


def counter_matrix(n_rows, seed=0):
    """Heavy-tailed signed counters with NaN, +-inf, -0.0, subnormals and
    +-4.0 scattered below row 0, so no column is all non-finite."""
    rng = np.random.default_rng(seed)
    X = rng.lognormal(2.0, 2.0, size=(n_rows, WIDTH)) * rng.choice([-1.0, 1.0], size=(n_rows, WIDTH))
    rest = X[1:]
    if rest.size:
        idx = rng.choice(rest.size, size=min(rest.size, 4 * len(SPECIAL)), replace=False)
        rest.flat[idx] = np.resize(SPECIAL, idx.size)
    return X


def assert_same_as_reference(X, log_scale):
    before = np.array(X, copy=True)
    norm = Normalizer(log_scale=log_scale).fit(X)
    median, mean, std = reference_fit(X, log_scale)
    assert norm.median.tobytes() == median.tobytes()
    assert norm.mean.tobytes() == mean.tobytes()
    assert norm.std.tobytes() == std.tobytes()
    Z = norm.transform(X)
    assert type(Z) is np.ndarray
    assert Z.tobytes() == reference_transform(X, log_scale, median, mean, std).tobytes()
    # neither call writes into the caller's array
    assert np.asarray(X).tobytes() == before.tobytes()


def chunk_row_counts():
    step = chunk_rows(np.empty((0, WIDTH)))
    return [1, step - 1, step, step + 1]


@pytest.mark.parametrize("log_scale", [True, False])
@pytest.mark.parametrize("n_rows", chunk_row_counts())
def test_normalizer_matches_full_matrix_formulas(n_rows, log_scale):
    assert_same_as_reference(counter_matrix(n_rows), log_scale)


@pytest.mark.parametrize("log_scale", [True, False])
def test_normalizer_matches_on_non_contiguous_and_memmapped_input(tmp_path, log_scale):
    step = chunk_rows(np.empty((0, WIDTH)))
    wide = np.hstack([counter_matrix(2 * step + 3, seed=s) for s in (1, 2)])
    assert_same_as_reference(wide[::2, ::2], log_scale)
    assert_same_as_reference(np.asfortranarray(wide[:, :WIDTH]), log_scale)
    path = tmp_path / "X.npy"
    np.save(path, wide[:, :WIDTH])
    mapped = np.load(path, mmap_mode="r")
    assert not mapped.flags.writeable
    assert_same_as_reference(mapped, log_scale)


@pytest.mark.parametrize("log_scale", [True, False])
def test_transform_of_zero_rows(log_scale):
    norm = Normalizer(log_scale=log_scale).fit(counter_matrix(5))
    Z = norm.transform(np.empty((0, WIDTH)))
    assert Z.shape == (0, WIDTH) and Z.dtype == np.float64


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_transform_holds_its_output_plus_one_chunk():
    X = counter_matrix(100_000)
    norm = Normalizer().fit(X[:1000])
    Z, peak = traced_peak(lambda: norm.transform(X))
    # the full-matrix formulas held about 4.1 times the output
    assert peak <= Z.nbytes + 2 * CHUNK_BYTES, peak


def test_fit_holds_one_copy_of_its_input():
    X = counter_matrix(100_000)
    _, peak = traced_peak(lambda: Normalizer().fit(X))
    # one prescaled copy, plus nanmedian's column-sized temporaries and
    # row chunks; the full-matrix formulas held about 4.1 copies
    assert peak <= 1.25 * X.nbytes, peak
