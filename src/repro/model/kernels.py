"""Training kernels for the hashed perceptron.

Every kernel runs ONE epoch of the threshold rule over a precomputed
:class:`TrainPlan` and shares the same contract::

    updates = kernel(w, plan, y, order, theta, clamp)

where ``w`` is the flattened (raveled view) weight array, ``plan`` holds the
per-sample hash indices (computed **once per fit()**, not per epoch), ``y``
the ±1 labels, and ``order`` the visit order for this epoch.  ``w`` is
mutated in place; the return value is the number of weight updates made.

Two kernels:

- :func:`fit_epoch_reference` — the naive per-sample loop with ``np.add.at``,
  kept as the executable specification.  The equivalence tests pin the
  native kernel against it bit-for-bit.
- :func:`fit_epoch_native` — the reference loop compiled to C
  (:mod:`repro.model._native`): same sequential order, same integer
  arithmetic, bit-identical weights — available only where a C compiler (or
  a cached build) exists, which :func:`resolve_kernel` probes when asked for
  ``"auto"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from . import _native


@dataclass
class TrainPlan:
    """Per-``fit()`` precompute: ``flat``, the ``(n_samples, n_features)``
    flat weight indices every epoch reads."""

    flat: np.ndarray

    @classmethod
    def from_flat(cls, flat: np.ndarray) -> "TrainPlan":
        return cls(flat=flat)


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


def fit_epoch_native(
    w: np.ndarray,
    plan: TrainPlan,
    y: np.ndarray,
    order: np.ndarray,
    theta: float,
    clamp: int,
) -> int:
    """The reference loop compiled to C — bit-identical.

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
    "native": fit_epoch_native,
    "reference": fit_epoch_reference,
}

#: kernel names accepted by ``fit``/``partial_fit``: the
#: concrete kernels plus ``auto`` (best available, always bit-identical)
KERNEL_CHOICES = ("auto", *sorted(ONLINE_KERNELS))


def resolve_kernel(name: str) -> str:
    """Map a requested kernel name to a concrete ``ONLINE_KERNELS`` entry.

    ``auto`` picks the native kernel when a compiled build is usable and the
    reference loop otherwise — the two are bit-identical, so the choice is
    invisible to everything but wall-clock.
    """
    if name == "auto":
        return "native" if _native.available() else "reference"
    if name not in ONLINE_KERNELS:
        raise ModelError(
            f"unknown kernel {name!r}; expected one of {list(KERNEL_CHOICES)}"
        )
    return name
