"""Versioned artifact store: publish/load round trip, integrity refusal,
last-good fallback, and the hardened ``HashedPerceptron.load`` validation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ArtifactError, ModelError
from repro.features import Normalizer
from repro.model import ArtifactStore, HashedPerceptron, ensemble_margins, margin_scales

N_FEATURES = 12


@pytest.fixture()
def fitted():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, N_FEATURES))
    y = np.where(rng.random(60) > 0.5, 1, -1)
    norm = Normalizer().fit(X)
    Z = norm.transform(X)
    models = []
    for seed in (1, 2, 3):
        m = HashedPerceptron(N_FEATURES, seed=seed, theta=5.0)
        m.fit(Z, y, epochs=3)
        models.append(m)
    return models, norm, margin_scales(models, Z), Z


def publish(store, fitted, **meta):
    models, norm, scales, _ = fitted
    return store.publish(models, norm, scales, meta=meta)


class TestPublishLoad:
    def test_round_trip_scores_identically(self, tmp_path, fitted):
        models, norm, scales, _ = fitted
        store = ArtifactStore(tmp_path / "art")
        result = publish(store, fitted)
        loaded = store.load()
        assert loaded.version == result.version
        assert loaded.scales == scales
        # score_rows applies the persisted normalizer, so feed raw X space
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, N_FEATURES))
        direct = ensemble_margins(models, norm.transform(X), scales)
        assert np.array_equal(loaded.score_rows(X), direct)

    def test_current_pointer_and_versions(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        v1 = publish(store, fitted).version
        v2 = publish(store, fitted).version
        assert store.versions() == [v1, v2]
        assert store.current() == v2
        assert v1.startswith("v0001-") and v2.startswith("v0002-")

    def test_empty_store_refuses(self, tmp_path):
        store = ArtifactStore(tmp_path / "nothing")
        with pytest.raises(ArtifactError):
            store.load()
        with pytest.raises(ArtifactError):
            store.load_with_fallback()

    def test_no_tmp_stager_left_behind(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        publish(store, fitted)
        leftovers = [p.name for p in (tmp_path / "art").iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_mismatched_scales_refused(self, tmp_path, fitted):
        models, norm, scales, _ = fitted
        store = ArtifactStore(tmp_path / "art")
        with pytest.raises(ArtifactError):
            store.publish(models, norm, scales[:-1])


class TestIntegrity:
    def test_checksum_mismatch_refused(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        version = publish(store, fitted).version
        member = tmp_path / "art" / version / "members" / "member_0.npz"
        member.write_bytes(member.read_bytes()[:-7] + b"XXXXXXX")
        with pytest.raises(ArtifactError, match="checksum"):
            store.load()

    def test_missing_file_refused(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        version = publish(store, fitted).version
        (tmp_path / "art" / version / "normalizer.json").unlink()
        with pytest.raises(ArtifactError, match="missing"):
            store.load()

    def test_version_mismatch_refused(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        version = publish(store, fitted).version
        manifest_path = tmp_path / "art" / version / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["artifact_version"] = 999
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="artifact version"):
            store.load()

    def test_garbage_manifest_refused(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        version = publish(store, fitted).version
        (tmp_path / "art" / version / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="JSON"):
            store.load()

    def test_dangling_current_pointer_refused(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        publish(store, fitted)
        (tmp_path / "art" / "CURRENT").write_text("v9999-deadbeef\n")
        with pytest.raises(ArtifactError):
            store.load()


class TestFallback:
    def test_corrupt_current_falls_back_to_last_good(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        v1 = publish(store, fitted).version
        v2 = publish(store, fitted).version
        member = tmp_path / "art" / v2 / "members" / "member_0.npz"
        member.write_bytes(b"not a model at all")
        loaded = store.load_with_fallback()
        assert loaded.version == v1

    def test_dangling_pointer_falls_back(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        v1 = publish(store, fitted).version
        (tmp_path / "art" / "CURRENT").write_text("v9999-cafebabe\n")
        assert store.load_with_fallback().version == v1

    def test_all_versions_bad_raises(self, tmp_path, fitted):
        store = ArtifactStore(tmp_path / "art")
        v1 = publish(store, fitted).version
        (tmp_path / "art" / v1 / "manifest.json").write_text("{}")
        with pytest.raises(ArtifactError, match="no loadable artifact"):
            store.load_with_fallback()


class TestHardenedModelLoad:
    """Satellite: corrupt/truncated model files raise ModelError, never raw
    pickle/zip/KeyError."""

    def _saved(self, tmp_path):
        model = HashedPerceptron(N_FEATURES, seed=5)
        path = tmp_path / "model.npz"
        model.save(path)
        return model, path

    def test_round_trip(self, tmp_path):
        model, path = self._saved(tmp_path)
        loaded = HashedPerceptron.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded._salts, model._salts)

    def test_truncated_file(self, tmp_path):
        _, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ModelError):
            HashedPerceptron.load(path)

    def test_not_a_zip_at_all(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"\x00\x01\x02 garbage")
        with pytest.raises(ModelError):
            HashedPerceptron.load(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, version=1, weights=np.zeros((2, 2)))
        with pytest.raises(ModelError, match="missing keys"):
            HashedPerceptron.load(path)

    def test_wrong_version(self, tmp_path):
        model, path = self._saved(tmp_path)
        with np.load(path) as doc:
            fields = {k: doc[k] for k in doc.files}
        fields["version"] = np.int64(999)
        np.savez(path, **fields)
        with pytest.raises(ModelError, match="version"):
            HashedPerceptron.load(path)

    def test_weights_shape_mismatch(self, tmp_path):
        model, path = self._saved(tmp_path)
        with np.load(path) as doc:
            fields = {k: doc[k] for k in doc.files}
        fields["weights"] = fields["weights"][:, :100]
        np.savez(path, **fields)
        with pytest.raises(ModelError, match="weights shape"):
            HashedPerceptron.load(path)

    def test_salts_shape_mismatch(self, tmp_path):
        model, path = self._saved(tmp_path)
        with np.load(path) as doc:
            fields = {k: doc[k] for k in doc.files}
        fields["salts"] = fields["salts"][:-2]
        np.savez(path, **fields)
        with pytest.raises(ModelError, match="salts shape"):
            HashedPerceptron.load(path)

    def test_non_integral_weights(self, tmp_path):
        model, path = self._saved(tmp_path)
        with np.load(path) as doc:
            fields = {k: doc[k] for k in doc.files}
        fields["weights"] = fields["weights"].astype(np.float64)
        np.savez(path, **fields)
        with pytest.raises(ModelError, match="not integral"):
            HashedPerceptron.load(path)

    def test_bad_config_length(self, tmp_path):
        model, path = self._saved(tmp_path)
        with np.load(path) as doc:
            fields = {k: doc[k] for k in doc.files}
        fields["config"] = fields["config"][:4]
        np.savez(path, **fields)
        with pytest.raises(ModelError, match="config"):
            HashedPerceptron.load(path)

    def test_implausible_table_bits(self, tmp_path):
        model, path = self._saved(tmp_path)
        with np.load(path) as doc:
            fields = {k: doc[k] for k in doc.files}
        config = fields["config"].copy()
        config[2] = 55  # table_bits: would allocate 2**55 weights
        fields["config"] = config
        np.savez(path, **fields)
        with pytest.raises(ModelError, match="table_bits"):
            HashedPerceptron.load(path)

    def test_non_finite_theta(self, tmp_path):
        model, path = self._saved(tmp_path)
        with np.load(path) as doc:
            fields = {k: doc[k] for k in doc.files}
        fields["theta"] = np.float64("nan")
        np.savez(path, **fields)
        with pytest.raises(ModelError, match="theta"):
            HashedPerceptron.load(path)


class TestPinnedScales:
    def test_scaled_margins_are_batch_independent(self, fitted):
        models, norm, scales, Z = fitted
        whole = ensemble_margins(models, Z, scales)
        # scoring any sub-batch alone must reproduce the same per-sample
        # margins bit for bit — the property serving-side batching needs
        for start, stop in ((0, 7), (7, 33), (33, 60)):
            part = ensemble_margins(models, Z[start:stop], scales)
            assert np.array_equal(part, whole[start:stop])

    def test_scales_length_checked(self, fitted):
        models, _, scales, Z = fitted
        with pytest.raises(ModelError, match="margin scales"):
            ensemble_margins(models, Z, scales[:-1])
