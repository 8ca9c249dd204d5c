"""Hashed perceptron: convergence on linearly separable data, clamping,
persistence round-trip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model import HashedPerceptron


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
