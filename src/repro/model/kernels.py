"""Training kernels for the hashed perceptron.

Every kernel runs ONE epoch of the threshold rule over a precomputed
:class:`TrainPlan` and shares the same contract::

    updates = kernel(w, plan, y, order, theta, clamp)

where ``w`` is the flattened (raveled view) weight array, ``plan`` holds the
per-sample hash indices (computed **once per fit()**, not per epoch), ``y``
the ±1 labels, and ``order`` the visit order for this epoch.  ``w`` is
mutated in place; the return value is the number of weight updates made.

Why a plan?  Profiling the seed implementation showed the per-sample loop
spends almost nothing on margins (a ~3 µs gather) and nearly everything on
the update: ``np.add.at`` over a sample's 1.1k (possibly duplicated) indices
costs ~87 µs and the old full-array ``np.clip`` another ~14 µs.  The plan
precomputes, per sample, the *deduplicated* index list with multiplicities
(CSR layout), so an update becomes ``take / += target*count / clip / scatter``
— four primitive calls, ~12 µs, and bit-identical because adding ``target``
once per occurrence equals adding ``target * multiplicity`` once, and
clamping only the touched entries equals the full clip (every untouched
weight is already in range).

Two numpy kernels:

- :func:`fit_epoch_reference` — the naive per-sample loop with ``np.add.at``,
  kept as the executable specification.  The equivalence tests pin the fast
  kernels against it bit-for-bit.
- :func:`fit_epoch_blocked` — bit-identical to the reference.  Margins are
  computed for a whole block of samples in one vectorized gather+sum; a run
  of samples needing no update is *conflict-free* (no weight changed while
  walking it), so the precomputed margins stay valid and the entire run is
  decided without per-sample Python work.  At the first below-threshold
  sample the CSR update is applied and the walk restarts just after it.
  Block size adapts: it grows geometrically through update-free stretches
  (converged epochs stream in a handful of numpy calls) and shrinks while
  updates are dense (early epochs pay only for short gathers).

A third, :func:`fit_epoch_native`, is the reference loop compiled to C
(:mod:`repro.model._native`): same sequential order, same integer
arithmetic, bit-identical weights — available only where a C compiler (or a
cached build) exists, which :func:`resolve_kernel` probes when asked for
``"auto"``.  The native path reads ``plan.flat`` directly and never touches
the CSR, so the plan builds its dedup lazily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from . import _native

#: adaptive block bounds for :func:`fit_epoch_blocked`; tuned on the seed
#: corpus — small floor because dense early epochs advance only a couple of
#: samples per restart, so oversized blocks just re-gather thrown-away rows
MIN_BLOCK = 4
MAX_BLOCK = 512


@dataclass
class TrainPlan:
    """Per-``fit()`` precompute: hash indices plus their CSR dedup.

    ``flat``   — ``(n_samples, n_features)`` flat weight indices.
    ``uidx``   — concatenated per-sample *unique* indices.
    ``ucount`` — multiplicity of each unique index (hash collisions inside a
    sample map several features to one slot).
    ``uoffs``  — ``(n_samples + 1,)`` row offsets into ``uidx``/``ucount``.

    The CSR triple is built lazily on first access: the blocked kernel needs
    it for its scatter updates, but the native kernel walks ``flat``
    directly, and skipping the row-wise ``np.sort`` is a measurable slice of
    a small-corpus fit.
    """

    flat: np.ndarray
    #: lazily-built (uidx, ucount, uoffs) dedup, see :meth:`_ensure_csr`
    _csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    #: lazily-allocated (n_samples, n_features) buffer reused by every
    #: epoch's row permutation, so 20 epochs cost one allocation
    _row_scratch: np.ndarray | None = None

    @classmethod
    def from_flat(cls, flat: np.ndarray) -> "TrainPlan":
        return cls(flat=flat)

    def _ensure_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build the dedup CSR fully vectorized (row-wise sort + first-
        occurrence mask); costs one ``np.sort`` over the index matrix."""
        if self._csr is not None:
            return self._csr
        flat = self.flat
        n, f = flat.shape
        sf = np.sort(flat, axis=1)
        first = np.ones((n, f), dtype=bool)
        if f > 1:
            first[:, 1:] = sf[:, 1:] != sf[:, :-1]
        row_uniques = first.sum(axis=1)
        uoffs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_uniques, out=uoffs[1:])
        uidx = sf[first]
        first_pos = np.flatnonzero(first.ravel())
        nxt = np.empty_like(first_pos)
        # each row starts with a first-occurrence, so the successor of a
        # row's last unique is exactly the next row's start — no per-row fixup
        nxt[:-1] = first_pos[1:]
        if len(nxt):
            nxt[-1] = sf.size
        ucount = (nxt - first_pos).astype(np.int32)
        self._csr = (uidx, ucount, uoffs)
        return self._csr

    @property
    def uidx(self) -> np.ndarray:
        return self._ensure_csr()[0]

    @property
    def ucount(self) -> np.ndarray:
        return self._ensure_csr()[1]

    @property
    def uoffs(self) -> np.ndarray:
        return self._ensure_csr()[2]

    def sample(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The unique indices and multiplicities of sample ``i``."""
        uidx, ucount, uoffs = self._ensure_csr()
        s, e = uoffs[i], uoffs[i + 1]
        return uidx[s:e], ucount[s:e]

    def permuted_rows(self, order: np.ndarray) -> np.ndarray:
        """``flat`` rows in ``order``, written into the reused scratch."""
        if self._row_scratch is None:
            self._row_scratch = np.empty_like(self.flat)
        np.take(self.flat, order, axis=0, out=self._row_scratch)
        return self._row_scratch


def fit_epoch_reference(
    w: np.ndarray,
    plan: TrainPlan,
    y: np.ndarray,
    order: np.ndarray,
    theta: float,
    clamp: int,
) -> int:
    """Naive online pass: one margin, one decision, one update per sample."""
    flat = plan.flat
    updates = 0
    for i in order:
        idx = flat[i]
        margin = int(w[idx].sum())
        target = int(y[i])
        if target * margin <= theta:
            np.add.at(w, idx, target)
            w[idx] = np.clip(w[idx], -clamp, clamp)
            updates += 1
    return updates


def fit_epoch_blocked(
    w: np.ndarray,
    plan: TrainPlan,
    y: np.ndarray,
    order: np.ndarray,
    theta: float,
    clamp: int,
    *,
    min_block: int = MIN_BLOCK,
    max_block: int = MAX_BLOCK,
) -> int:
    """Bit-identical online pass that skips conflict-free runs in blocks.

    Margins computed at block start remain valid for every sample visited
    before the first weight update, so the prefix of the block up to (and
    excluding) the first below-threshold sample is decided in one vectorized
    step — exactly as the sequential reference would have decided it.
    """
    updates = 0
    n = len(order)
    pos = 0
    block = max(1, int(min_block))
    max_block = max(block, int(max_block))
    # permute rows once per epoch so every block is a contiguous *view* —
    # per-block row gathers would re-read the index matrix on every restart
    fo = plan.permuted_rows(order)
    yo = y.take(order)
    uidx, ucount, uoffs = plan.uidx, plan.ucount, plan.uoffs
    while pos < n:
        fb = fo[pos : pos + block]
        # int32 accumulator is exact (|margin| <= n_features * clamp << 2**31)
        # and halves the reduction bandwidth
        margins = w.take(fb).sum(axis=1, dtype=np.int32)
        needs = yo[pos : pos + block] * margins <= theta
        p = int(needs.argmax())
        if not needs[p]:
            # conflict-free run: no update, every precomputed margin was valid
            pos += len(fb)
            block = min(block * 2, max_block)
            continue
        i = order[pos + p]
        target = int(yo[pos + p])
        s, e = uoffs[i], uoffs[i + 1]
        ui = uidx[s:e]
        wu = w.take(ui)
        wu += target * ucount[s:e]
        # min/max instead of np.clip: the clip wrapper's bound checks cost
        # more than the clamp itself at this call rate
        np.minimum(wu, clamp, out=wu)
        np.maximum(wu, -clamp, out=wu)
        w[ui] = wu
        updates += 1
        pos += p + 1
        block = max(block // 2, min_block, 1)
    return updates


def fit_epoch_native(
    w: np.ndarray,
    plan: TrainPlan,
    y: np.ndarray,
    order: np.ndarray,
    theta: float,
    clamp: int,
) -> int:
    """The reference loop compiled to C — bit-identical, no CSR needed.

    Raises :class:`ModelError` when no compiler or cached build is
    available; callers wanting graceful degradation go through
    :func:`resolve_kernel`.
    """
    if not _native.available():
        raise ModelError(
            "native kernel unavailable (no C compiler and no cached build); "
            "use kernel='auto' to fall back automatically"
        )
    return _native.fit_epoch(w, plan.flat, y, order, theta, clamp)


#: online kernels, selectable by name; all share one training order
ONLINE_KERNELS = {
    "blocked": fit_epoch_blocked,
    "native": fit_epoch_native,
    "reference": fit_epoch_reference,
}

#: kernel names accepted by ``fit``/``partial_fit``: the
#: concrete kernels plus ``auto`` (best available, always bit-identical)
KERNEL_CHOICES = ("auto", *sorted(ONLINE_KERNELS))


def resolve_kernel(name: str) -> str:
    """Map a requested kernel name to a concrete ``ONLINE_KERNELS`` entry.

    ``auto`` picks the native kernel when a compiled build is usable and the
    blocked numpy kernel otherwise — the two are bit-identical, so the
    choice is invisible to everything but wall-clock.
    """
    if name == "auto":
        return "native" if _native.available() else "blocked"
    if name not in ONLINE_KERNELS:
        raise ModelError(
            f"unknown kernel {name!r}; expected one of {list(KERNEL_CHOICES)}"
        )
    return name
