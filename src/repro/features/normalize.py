"""NaN/Inf sanitization + z-score normalization with persisted statistics.

The fitted statistics (per-column median for imputation, mean, std) are
saved as JSON so a model trained in one process can score traffic in another
with bit-identical preprocessing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..errors import FeatureError

STATS_VERSION = 1

#: z-scores are clipped here; salvaged corpora contain the occasional
#: misaligned decode that would otherwise dominate every dot product
Z_CLIP = 8.0

#: float64 bytes one row chunk spans.  The full-matrix passes (signed log,
#: impute and z-score here, quantize in :mod:`repro.model.perceptron`) run
#: chunk by chunk, so beside their one full-size output they hold
#: temporaries of about this size however many rows the matrix has
CHUNK_BYTES = 1 << 20


def chunk_rows(X: np.ndarray) -> int:
    """Rows per chunk of ``X``: as many as fit in :data:`CHUNK_BYTES` of
    float64, and at least one."""
    return max(1, CHUNK_BYTES // (8 * max(1, math.prod(X.shape[1:]))))


class Normalizer:
    """fit() on training data, transform() anywhere, save()/load() between.

    With ``log_scale`` (the default) values pass through a signed ``log1p``
    before the z-score: hardware counters are heavy-tailed across many orders
    of magnitude, and interval-length differences between captures become
    additive shifts the z-score absorbs.

    ``fit`` and ``transform`` never write into the caller's array (on warm
    runs a read-only memmap from the dataset cache).  Each makes one new
    float64 copy and works on it in place, one :func:`chunk_rows` chunk at
    a time, so a call holds that copy plus about :data:`CHUNK_BYTES` of
    temporaries.  Every step is elementwise, or a column reduction over the
    whole copy, so the results are the same bits as one full-matrix pass.
    """

    def __init__(self, *, log_scale: bool = True):
        self.log_scale = log_scale
        self.median: np.ndarray | None = None
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.mean is not None

    def _prescale(self, X: np.ndarray) -> np.ndarray:
        """A new float64 array holding ``X``, signed-log scaled when
        ``log_scale``; fit and transform then work in place on it."""
        if not self.log_scale:
            return np.array(X, dtype=np.float64)
        out = np.empty_like(X, dtype=np.float64, subok=False)
        step = chunk_rows(X)
        with np.errstate(invalid="ignore"):
            for start in range(0, len(X), step):
                rows = np.asarray(X[start : start + step], dtype=np.float64)
                part = out[start : start + step]
                np.abs(rows, out=part)
                np.log1p(part, out=part)
                # np.sign maps -0.0 to +0.0, which np.copysign would not
                np.multiply(np.sign(rows), part, out=part)
        return out

    def fit(self, X: np.ndarray) -> "Normalizer":
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] == 0:
            raise FeatureError(f"cannot fit normalizer on shape {X.shape}")
        X = self._prescale(X)
        step = chunk_rows(X)
        any_finite = False
        for start in range(0, len(X), step):
            part = X[start : start + step]
            bad = ~np.isfinite(part)
            any_finite = any_finite or not bad.all()
            part[bad] = np.nan
        if not any_finite:
            raise FeatureError("training matrix has no finite values")
        with np.errstate(all="ignore"):
            self.median = np.nan_to_num(np.nanmedian(X, axis=0), nan=0.0)
            for start in range(0, len(X), step):
                part = X[start : start + step]
                np.copyto(part, self.median, where=np.isnan(part))
            self.mean = X.mean(axis=0)
            # np.std's own steps, done in place: the same bits without its
            # full-size matrix of squared deviations
            X -= self.mean
            np.square(X, out=X)
            std = np.sqrt(X.sum(axis=0) / len(X))
        std[~np.isfinite(std) | (std < 1e-12)] = 1.0
        self.std = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Impute non-finite cells with the fitted median, z-score, clip."""
        if not self.fitted:
            raise FeatureError("normalizer is not fitted")
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.mean.shape[0]:
            raise FeatureError(
                f"matrix shape {X.shape} does not match fitted width {self.mean.shape[0]}"
            )
        Z = self._prescale(X)
        step = chunk_rows(Z)
        for start in range(0, len(Z), step):
            part = Z[start : start + step]
            np.copyto(part, self.median, where=~np.isfinite(part))
            part -= self.mean
            part /= self.std
            np.clip(part, -Z_CLIP, Z_CLIP, out=part)
        return Z

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict:
        if not self.fitted:
            raise FeatureError("cannot persist an unfitted normalizer")
        return {
            "version": STATS_VERSION,
            "n_features": int(self.mean.shape[0]),
            "log_scale": self.log_scale,
            "median": self.median.tolist(),
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
        }

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "Normalizer":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise FeatureError(f"cannot load normalizer stats from {path}: {exc}") from exc
        if doc.get("version") != STATS_VERSION:
            raise FeatureError(f"unsupported normalizer stats version {doc.get('version')!r}")
        norm = cls(log_scale=bool(doc.get("log_scale", False)))
        try:
            norm.median = np.asarray(doc["median"], dtype=np.float64)
            norm.mean = np.asarray(doc["mean"], dtype=np.float64)
            norm.std = np.asarray(doc["std"], dtype=np.float64)
        except KeyError as exc:
            raise FeatureError(f"normalizer stats missing field {exc}") from exc
        if not (norm.median.shape == norm.mean.shape == norm.std.shape):
            raise FeatureError("normalizer stats arrays disagree on width")
        return norm
