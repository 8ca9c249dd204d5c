"""Hashed-weight perceptron, after PerSpectron (MICRO 2020).

Each (feature, quantized-value) pair is hashed into one of ``n_tables``
weight tables; the decision is the sum of the selected weights.  Training is
the classic threshold rule from perceptron branch predictors: update on a
misprediction *or* whenever the margin is below ``theta``, and clamp every
weight to a small signed range so single features cannot saturate the sum.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import ModelError
from . import _native
from .kernels import ONLINE_KERNELS, TrainPlan, resolve_kernel

MODEL_VERSION = 1

#: rows scored per chunk by the numpy decision path; bounds the transient
#: (batch, n_features) int64 index matrix to ~75 MB at 1159 features
DEFAULT_BATCH_SIZE = 8192

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xBF58476D1CE4E5B9)


def quantize_bins(X: np.ndarray, n_bins: int) -> np.ndarray:
    """Map z-scored values into ``n_bins`` integer buckets over [-4, 4],
    packed as uint8.

    This is the only part of index hashing that reads the feature *values*,
    and it is salt-free — every ensemble member with the same ``n_bins``
    shares it.  The trainer and scorer compute it once per matrix and hand
    the bins to each member; the shared-memory train pool ships this uint8
    matrix (8x smaller than the float64 features) instead of ``X`` itself.
    """
    X = np.asarray(X, dtype=np.float64)
    scaled = np.clip(X, -4.0, 4.0)
    scaled += 4.0
    scaled *= n_bins / 8.0
    bins = scaled.astype(np.int64)
    np.minimum(bins, n_bins - 1, out=bins)
    return bins.astype(np.uint8)


class HashedPerceptron:
    def __init__(
        self,
        n_features: int,
        *,
        n_tables: int = 16,
        table_bits: int = 12,
        n_bins: int = 16,
        theta: float | None = None,
        weight_clamp: int = 127,
        seed: int = 0,
    ):
        if n_features < 1:
            raise ModelError("n_features must be >= 1")
        if not (1 <= int(n_bins) <= 256):
            # quantized bins pack into uint8 so ensembles and the shm train
            # pool can share one bins matrix across members
            raise ModelError(f"n_bins must be in [1, 256], got {n_bins}")
        self.n_features = int(n_features)
        self.n_tables = int(n_tables)
        self.table_bits = int(table_bits)
        self.table_size = 1 << self.table_bits
        self.n_bins = int(n_bins)
        # threshold heuristic: scale with sqrt of the summand count, not the
        # count itself -- with ~1k features summed per decision, a linear
        # theta keeps every sample below threshold forever and training
        # degenerates into label counting
        self.theta = float(theta) if theta is not None else 1.93 * n_features**0.5 + 14
        self.weight_clamp = int(weight_clamp)
        self.seed = int(seed)
        self.weights = np.zeros((self.n_tables, self.table_size), dtype=np.int32)

        rng = np.random.default_rng(self.seed)
        self._salts = rng.integers(0, 2**63, size=self.n_features, dtype=np.uint64)
        self._tables = np.arange(self.n_features, dtype=np.int64) % self.n_tables

    # -- hashing ---------------------------------------------------------

    def _quantize(self, X: np.ndarray) -> np.ndarray:
        """Member-config view of :func:`quantize_bins` (uint8 buckets)."""
        return quantize_bins(X, self.n_bins)

    def _check_bins(self, bins: np.ndarray) -> np.ndarray:
        bins = np.asarray(bins)
        if bins.ndim != 2 or bins.shape[1] != self.n_features:
            raise ModelError(
                f"bins shape {bins.shape} does not match n_features={self.n_features}"
            )
        if bins.dtype != np.uint8:
            raise ModelError(f"quantized bins must be uint8, got {bins.dtype}")
        return bins

    def _table_offsets(self) -> np.ndarray:
        """Per-feature flat-index base (table id * table size), int32."""
        return (self._tables * self.table_size).astype(np.int32)

    def _flat_from_bins(self, bins: np.ndarray) -> np.ndarray:
        """Flat weight index per (sample, feature) from quantized bins, as
        int32 — the weight space is n_tables * table_size entries, far below
        2**31, and the narrower dtype halves every training-epoch gather."""
        bins = self._check_bins(bins)
        if _native.available():
            return _native.hash_indices(
                np.ascontiguousarray(bins),
                self._salts,
                self._table_offsets(),
                self.table_size - 1,
            )
        # bins are small non-negative ints, so the uint64 upcast is the same
        # bits the old int64 view produced; the hash then runs in place
        h = bins.astype(np.uint64)
        with np.errstate(over="ignore"):
            h *= _GOLDEN
            h += self._salts[None, :]
            h *= _MIX
        h >>= np.uint64(17)
        out = h.view(np.int64)  # free reinterpret: values are < 2**47 here
        out &= self.table_size - 1
        out += self._tables[None, :] * self.table_size
        return out.astype(np.int32)

    def _check_X(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(
                f"input shape {X.shape} does not match n_features={self.n_features}"
            )
        return X

    def _flat_indices(self, X: np.ndarray) -> np.ndarray:
        return self._flat_from_bins(self._quantize(self._check_X(X)))

    # -- inference -------------------------------------------------------

    def decision(self, X: np.ndarray | None, *, bins: np.ndarray | None = None) -> np.ndarray:
        """Signed margin per sample.

        Pass ``bins`` (a precomputed :func:`quantize_bins` matrix) to skip
        the quantize pass — ensemble scoring quantizes once and shares the
        result across members, which is bit-identical because quantization
        is salt-free.  The numpy path materializes a ``(n_samples,
        n_features)`` index matrix, so large matrices are processed in
        :data:`DEFAULT_BATCH_SIZE` chunks; per-row sums are independent, so
        chunking is bit-identical to one shot.
        The native path fuses hash+gather+sum and never materializes the
        index matrix at all.
        """
        if bins is None:
            bins = self._quantize(self._check_X(X))
        else:
            bins = self._check_bins(bins)
        w = np.ascontiguousarray(self.weights.ravel())
        if _native.available():
            margins = _native.margins_from_bins(
                w,
                np.ascontiguousarray(bins),
                self._salts,
                self._table_offsets(),
                self.table_size - 1,
            )
            return margins.astype(np.float64)
        batch = DEFAULT_BATCH_SIZE
        out = np.empty(bins.shape[0], dtype=np.float64)
        for start in range(0, bins.shape[0], batch):
            flat = self._flat_from_bins(bins[start : start + batch])
            out[start : start + batch] = w[flat].sum(axis=1)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """+1 attack / -1 benign per sample (0 margin counts as benign)."""
        return np.where(self.decision(X) > 0, 1, -1).astype(np.int64)

    # -- training --------------------------------------------------------

    def _check_labels(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if set(np.unique(y)) - {-1, 1}:
            raise ModelError("labels must be -1 or +1")
        return y.astype(np.int64, copy=False)

    def _run_online_epoch(
        self, plan: TrainPlan, y: np.ndarray, order: np.ndarray, kernel: str
    ) -> int:
        fn = ONLINE_KERNELS[resolve_kernel(kernel)]
        return fn(self.weights.ravel(), plan, y, order, self.theta, self.weight_clamp)

    def partial_fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        seed: int | None = None,
        kernel: str = "auto",
        shuffle: bool = True,
    ) -> int:
        """One incremental online pass over a labeled batch; returns the
        number of weight updates made.

        This is the streaming-learning entry point: weights are updated in
        place starting from their current values, so repeated calls fold
        labeled feedback batches into a served model without retraining from
        scratch.  With the default ``seed`` (the model's own) one
        ``partial_fit`` pass over a corpus is **bit-identical** to the first
        epoch of :meth:`fit` on that corpus — the property tests pin this,
        which is what lets the drift supervisor reuse the batch kernels
        verbatim.
        """
        y = self._check_labels(y)
        plan = TrainPlan.from_flat(self._flat_indices(X))
        order = np.arange(len(y))
        if shuffle:
            rng = np.random.default_rng(self.seed if seed is None else seed)
            rng.shuffle(order)
        return self._run_online_epoch(plan, y, order, kernel)

    def fit(
        self,
        X: np.ndarray | None,
        y: np.ndarray,
        *,
        epochs: int = 20,
        seed: int | None = None,
        kernel: str = "auto",
        bins: np.ndarray | None = None,
    ) -> list[int]:
        """Train until an epoch makes no misprediction-driven updates or the
        epoch budget runs out; returns per-epoch update counts.

        Label validation and hash-index computation run **once** here and are
        reused by every epoch.  Each epoch is the sequential threshold rule
        over a fresh shuffle, bit-identical for every ``kernel``.  ``bins``
        optionally supplies the precomputed (salt-free) :func:`quantize_bins`
        matrix for ``X`` so ensemble trainers quantize once per matrix
        instead of once per member; the shared-memory pool passes an
        attached read-only view.
        """
        kernel = resolve_kernel(kernel)
        y = self._check_labels(y)
        if bins is None:
            bins = self._quantize(self._check_X(X))
        plan = TrainPlan.from_flat(self._flat_from_bins(bins))
        rng = np.random.default_rng(self.seed if seed is None else seed)
        n = len(y)
        history = []
        for _ in range(epochs):
            order = np.arange(n)
            rng.shuffle(order)
            updates = self._run_online_epoch(plan, y, order, kernel)
            history.append(updates)
            if updates == 0:
                break
        return history

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            version=MODEL_VERSION,
            weights=self.weights,
            salts=self._salts,
            config=np.array(
                [
                    self.n_features,
                    self.n_tables,
                    self.table_bits,
                    self.n_bins,
                    self.weight_clamp,
                    self.seed,
                ],
                dtype=np.int64,
            ),
            theta=np.float64(self.theta),
        )

    #: npz keys a saved model must carry; anything less is a truncated or
    #: foreign file, not a model
    _REQUIRED_KEYS = ("version", "weights", "salts", "config", "theta")

    @classmethod
    def load(cls, path) -> "HashedPerceptron":
        """Load a saved model, validating every field before trusting it.

        Corrupt, truncated, or foreign files raise :class:`ModelError` with a
        specific reason — never a raw ``zipfile``/``pickle``/``KeyError`` —
        so the artifact loader and serving layer can refuse them cleanly.
        """
        try:
            with np.load(path) as doc:
                missing = [k for k in cls._REQUIRED_KEYS if k not in doc.files]
                if missing:
                    raise ModelError(f"{path}: model file missing keys {missing}")
                if int(doc["version"]) != MODEL_VERSION:
                    raise ModelError(
                        f"{path}: unsupported model version {int(doc['version'])}, "
                        f"expected {MODEL_VERSION}"
                    )
                config = np.asarray(doc["config"])
                if config.shape != (6,):
                    raise ModelError(
                        f"{path}: config must hold 6 values, got shape {config.shape}"
                    )
                n_features, n_tables, table_bits, n_bins, clamp, seed = (
                    int(v) for v in config
                )
                if not (1 <= table_bits <= 30):
                    raise ModelError(f"{path}: implausible table_bits {table_bits}")
                if not (1 <= n_tables <= 1 << 16):
                    raise ModelError(f"{path}: implausible n_tables {n_tables}")
                theta = float(doc["theta"])
                if not np.isfinite(theta) or theta < 0:
                    raise ModelError(f"{path}: theta {theta} is not a finite non-negative value")
                model = cls(
                    n_features,
                    n_tables=n_tables,
                    table_bits=table_bits,
                    n_bins=n_bins,
                    theta=theta,
                    weight_clamp=clamp,
                    seed=seed,
                )
                weights = np.asarray(doc["weights"])
                if weights.shape != model.weights.shape:
                    raise ModelError(
                        f"{path}: weights shape {weights.shape} does not match "
                        f"config shape {model.weights.shape}"
                    )
                if not np.issubdtype(weights.dtype, np.integer):
                    raise ModelError(f"{path}: weights dtype {weights.dtype} is not integral")
                salts = np.asarray(doc["salts"])
                if salts.shape != (model.n_features,):
                    raise ModelError(
                        f"{path}: salts shape {salts.shape} does not match "
                        f"n_features={model.n_features}"
                    )
                if salts.dtype != np.uint64:
                    raise ModelError(f"{path}: salts dtype {salts.dtype} is not uint64")
                model.weights = weights.astype(np.int32)
                model._salts = salts
        except ModelError:
            raise
        except Exception as exc:
            raise ModelError(f"cannot load model from {path}: {exc}") from exc
        return model


# ---------------------------------------------------------------------------
# batched scoring over ensembles and trace groups
# ---------------------------------------------------------------------------


def ensemble_margins(models, X: np.ndarray, *, scales=None) -> np.ndarray:
    """Per-sample margin averaged over ensemble members, each normalized by
    its own mean magnitude so no member dominates.

    By default the normalizing magnitude is the mean ``|margin|`` of the
    batch being scored, which makes the result depend on *what else* is in
    the batch.  Pass ``scales`` (one positive float per member, e.g. the
    mean training-set magnitude recorded in a model artifact) to pin the
    normalization: per-sample margins are then independent of batching, so
    a serving path that coalesces arbitrary requests into micro-batches is
    bit-identical to scoring the whole corpus at once.
    """
    if not models:
        raise ModelError("ensemble is empty")
    if scales is not None and len(scales) != len(models):
        raise ModelError(
            f"got {len(scales)} margin scales for {len(models)} ensemble members"
        )
    bins = _shared_quantize(models, X)
    total = np.zeros(np.asarray(X).shape[0], dtype=np.float64)
    for k, model in enumerate(models):
        d = model.decision(X, bins=bins)
        scale = float(scales[k]) if scales is not None else np.abs(d).mean()
        total += d / (scale + 1e-9)
    return total / len(models)


def _shared_quantize(models, X: np.ndarray) -> np.ndarray | None:
    """One :func:`quantize_bins` matrix for the whole ensemble, or None when
    members disagree on quantization config (each then quantizes itself).
    Quantization is salt-free, so sharing it is bit-identical."""
    first = models[0]
    if any(
        m.n_bins != first.n_bins or m.n_features != first.n_features for m in models
    ):
        return None
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != first.n_features:
        raise ModelError(
            f"input shape {X.shape} does not match n_features={first.n_features}"
        )
    return quantize_bins(X, first.n_bins)


def ensemble_partial_fit(
    models,
    X: np.ndarray,
    y: np.ndarray,
    *,
    seed: int | None = None,
    kernel: str = "auto",
) -> list[int]:
    """One :meth:`HashedPerceptron.partial_fit` pass per ensemble member;
    returns per-member update counts.

    With ``seed=None`` every member shuffles with its own model seed, so the
    result is bit-identical to the first epoch each member's :meth:`fit`
    would have run.  Passing ``seed`` decorrelates the visit orders across
    repeated feedback batches (member ``k`` uses ``seed + 17 * k``).
    """
    if not models:
        raise ModelError("ensemble is empty")
    return [
        model.partial_fit(
            X, y, seed=None if seed is None else seed + 17 * k, kernel=kernel
        )
        for k, model in enumerate(models)
    ]


def margin_scales(models, X: np.ndarray) -> list[float]:
    """Per-member mean ``|margin|`` over a reference matrix (typically the
    training set) — the fixed normalization constants stored in a model
    artifact so serving-time margins do not depend on batch composition."""
    if not models:
        raise ModelError("ensemble is empty")
    bins = _shared_quantize(models, X)
    return [
        float(np.abs(model.decision(X, bins=bins)).mean())
        for model in models
    ]


def trace_verdicts(margins: np.ndarray, groups: np.ndarray, n_traces: int) -> np.ndarray:
    """Mean per-interval margin per trace -> +1/-1 verdict (0 for traces with
    no samples).  One ``bincount`` pass instead of a per-trace mask loop."""
    margins = np.asarray(margins, dtype=np.float64)
    groups = np.asarray(groups, dtype=np.int64)
    if margins.shape != groups.shape:
        raise ModelError(
            f"margins shape {margins.shape} does not match groups shape {groups.shape}"
        )
    if groups.size and (groups.min() < 0 or groups.max() >= n_traces):
        raise ModelError("groups index outside [0, n_traces)")
    sums = np.bincount(groups, weights=margins, minlength=n_traces)
    counts = np.bincount(groups, minlength=n_traces)
    verdicts = np.zeros(n_traces, dtype=np.int64)
    seen = counts > 0
    with np.errstate(invalid="ignore"):
        verdicts[seen] = np.where(sums[seen] / counts[seen] > 0, 1, -1)
    return verdicts
