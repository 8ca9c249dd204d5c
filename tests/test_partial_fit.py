"""Incremental-learning contract for the hashed perceptron.

The drift supervisor folds labeled feedback into a served model with
``partial_fit`` / ``ensemble_partial_fit`` instead of a from-scratch refit.
That is only safe because of one pinned property: **one ``partial_fit`` pass
over a batch is bit-identical to the first epoch ``fit`` would have run** on
that batch with the same seed — same shuffle, same kernel, same update rule,
same resulting weight tables.  These tests pin that property plus the
incremental semantics built on top of it (updates start from current
weights, ensemble seed offsets decorrelate members, labels are validated).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model import HashedPerceptron, _native, ensemble_partial_fit

N_FEATURES = 10


def separable(n: int = 80, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) > 0.5, 1, -1)
    X = rng.normal(size=(n, N_FEATURES)) + 2.5 * y[:, None]
    return X, y


def noisy(n: int = 80, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) > 0.5, 1, -1)
    return rng.normal(size=(n, N_FEATURES)), y


class TestBitIdentity:
    @pytest.mark.parametrize("model_seed", [1, 7, 42])
    @pytest.mark.parametrize("data_seed", [0, 3])
    def test_one_pass_matches_first_fit_epoch(self, model_seed, data_seed):
        X, y = noisy(seed=data_seed)
        a = HashedPerceptron(N_FEATURES, seed=model_seed, theta=5.0)
        b = HashedPerceptron(N_FEATURES, seed=model_seed, theta=5.0)
        updates = a.partial_fit(X, y)  # seed defaults to the model's own
        history = b.fit(X, y, epochs=1)
        assert updates == history[0]
        assert np.array_equal(a.weights, b.weights)

    def test_explicit_seed_matches_seeded_fit(self):
        X, y = noisy(seed=5)
        a = HashedPerceptron(N_FEATURES, seed=1, theta=5.0)
        b = HashedPerceptron(N_FEATURES, seed=1, theta=5.0)
        a.partial_fit(X, y, seed=99)
        b.fit(X, y, epochs=1, seed=99)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.skipif(not _native.available(), reason="no C compiler available")
    def test_reference_kernel_agrees(self):
        X, y = noisy(seed=2)
        a = HashedPerceptron(N_FEATURES, seed=3, theta=5.0)
        b = HashedPerceptron(N_FEATURES, seed=3, theta=5.0)
        a.partial_fit(X, y, kernel="native")
        b.partial_fit(X, y, kernel="reference")
        assert np.array_equal(a.weights, b.weights)

    def test_second_pass_differs_from_second_fit_epoch_by_design(self):
        # fit's epoch 2 reuses an advanced rng; a second partial_fit restarts
        # from the seed.  The contract is epoch-1 identity only — pin that the
        # streams really do diverge afterwards so nobody "fixes" it silently.
        X, y = noisy(seed=4)
        a = HashedPerceptron(N_FEATURES, seed=1, theta=5.0)
        b = HashedPerceptron(N_FEATURES, seed=1, theta=5.0)
        a.partial_fit(X, y)
        a.partial_fit(X, y)
        hist = b.fit(X, y, epochs=2)
        if len(hist) == 2:  # fit may stop early if epoch 1 converged
            assert not np.array_equal(a.weights, b.weights)


class TestIncrementalSemantics:
    def test_updates_start_from_current_weights(self):
        X, y = separable()
        model = HashedPerceptron(N_FEATURES, seed=1, theta=5.0)
        model.fit(X, y, epochs=10)
        before = model.weights.copy()
        # a pass over already-learned data makes (near) zero updates and
        # leaves the weights (near) untouched — it did not restart training
        updates = model.partial_fit(X, y)
        assert updates <= 2
        if updates == 0:
            assert np.array_equal(model.weights, before)

    def test_repeated_passes_converge_on_separable_data(self):
        X, y = separable(seed=9)
        model = HashedPerceptron(N_FEATURES, seed=2, theta=5.0)
        counts = [model.partial_fit(X, y, seed=100 + p) for p in range(12)]
        assert counts[-1] == 0
        preds = np.where(model.decision(X) > 0, 1, -1)
        assert (preds == y).mean() == 1.0

    def test_folds_in_new_distribution_without_forgetting(self):
        X_old, y_old = separable(seed=1)
        rng = np.random.default_rng(8)
        y_new = np.where(rng.random(60) > 0.5, 1, -1)
        # a different, disjoint footprint: shifted along other directions
        X_new = rng.normal(size=(60, N_FEATURES)) - 3.0 * y_new[:, None]
        model = HashedPerceptron(N_FEATURES, seed=4, theta=5.0)
        model.fit(X_old, y_old, epochs=10)
        for p in range(10):
            model.partial_fit(
                np.vstack([X_old, X_new]),
                np.concatenate([y_old, y_new]),
                seed=500 + p,
            )
        acc_old = (np.where(model.decision(X_old) > 0, 1, -1) == y_old).mean()
        acc_new = (np.where(model.decision(X_new) > 0, 1, -1) == y_new).mean()
        assert acc_old >= 0.9
        assert acc_new >= 0.9

    def test_no_shuffle_is_deterministic_order(self):
        X, y = noisy(seed=6)
        a = HashedPerceptron(N_FEATURES, seed=1, theta=5.0)
        b = HashedPerceptron(N_FEATURES, seed=2, theta=5.0)
        b._salts = a._salts.copy()  # same tables, different seed
        a.partial_fit(X, y, shuffle=False)
        b.partial_fit(X, y, shuffle=False)
        assert np.array_equal(a.weights, b.weights)

    def test_rejects_bad_labels(self):
        X, _ = noisy(n=10)
        model = HashedPerceptron(N_FEATURES, seed=1)
        with pytest.raises(ModelError, match="labels"):
            model.partial_fit(X, np.zeros(10, dtype=np.int64))


class TestEnsemblePartialFit:
    def test_default_seed_matches_per_member_fit(self):
        X, y = noisy(seed=7)
        members = [HashedPerceptron(N_FEATURES, seed=s, theta=5.0) for s in (1, 2, 3)]
        mirrors = [HashedPerceptron(N_FEATURES, seed=s, theta=5.0) for s in (1, 2, 3)]
        counts = ensemble_partial_fit(members, X, y)
        for m, mirror, updates in zip(members, mirrors, counts):
            assert mirror.fit(X, y, epochs=1)[0] == updates
            assert np.array_equal(m.weights, mirror.weights)

    def test_explicit_seed_offsets_members(self):
        X, y = noisy(seed=7)
        members = [HashedPerceptron(N_FEATURES, seed=s, theta=5.0) for s in (1, 2)]
        ensemble_partial_fit(members, X, y, seed=40)
        for k, seed in enumerate((1, 2)):
            mirror = HashedPerceptron(N_FEATURES, seed=seed, theta=5.0)
            mirror.partial_fit(X, y, seed=40 + 17 * k)
            assert np.array_equal(members[k].weights, mirror.weights)

    def test_empty_ensemble_rejected(self):
        X, y = noisy(n=4)
        with pytest.raises(ModelError, match="empty"):
            ensemble_partial_fit([], X, y)
