"""Thread-parallel ensemble training over one shared bins matrix.

:func:`train_ensemble` fits the caller's :class:`HashedPerceptron` members
**in place** and returns, in model order, each member's update history and
training seconds.  Worker count is semantics-free exactly like the ingest
pool: a member's fit depends only on its own salts, seed and weights, never
on which thread runs it or on shared mutable state, so ``workers=N`` leaves
bit-identical weights to ``workers=1`` for any ``N`` — the train-pool
regression tests pin this.

The caller's thread quantizes the feature matrix **once** into the
salt-free uint8 bins matrix every member reads.  ``workers <= 1`` fits the
members one after another on the calling thread; more workers fit them on a
thread pool that shares that bins array and the labels.  The native epoch
kernel is called through ctypes, which releases the GIL, so threads overlap
the epochs; the numpy reference kernel holds the GIL, so without a compiler
threads stay correct but bring no speedup.  A member that raises in ``fit``
propagates its exception to the caller.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import get_logger, log_event
from .perceptron import HashedPerceptron, quantize_bins

logger = get_logger("repro.model.train_pool")


@dataclass
class TrainedMember:
    """One fitted ensemble member plus its training record."""

    model: HashedPerceptron
    history: list[int] = field(default_factory=list)
    train_s: float = 0.0


def train_ensemble(
    models: list[HashedPerceptron],
    X: np.ndarray,
    y: np.ndarray,
    *,
    epochs: int = 20,
    seed: int | None = None,
    workers: int = 1,
) -> list[TrainedMember]:
    """Fit every member of ``models`` in place on ``(X, y)`` for up to
    ``epochs`` epochs; records are returned in ``models`` order.

    Each member starts from its current weights, so callers pass freshly
    built (or zeroed) members to train from scratch.  With ``seed=None``
    every member shuffles with its own model seed; a given ``seed`` fits
    member ``k`` with ``seed + 17 * k`` (the :func:`ensemble_partial_fit`
    rule), so members keep distinct visit orders.  ``workers <= 1`` fits on
    the calling thread; more workers fit members on that many threads.
    Both are bit-identical.
    """
    t_start = time.monotonic()
    n_workers = max(1, min(workers, len(models)))
    log_event(logger, "train_pool.start", workers=n_workers, members=len(models))
    y = np.asarray(y)
    # quantization is salt-free, so one bins matrix serves every member
    # that shares a bin count (all of them, unless an artifact was edited)
    bins = {n: quantize_bins(X, n) for n in sorted({m.n_bins for m in models})}

    def fit_one(k: int) -> TrainedMember:
        model = models[k]
        t0 = time.monotonic()
        history = model.fit(
            None,
            y,
            epochs=epochs,
            seed=None if seed is None else seed + 17 * k,
            bins=bins[model.n_bins],
        )
        return TrainedMember(model=model, history=history, train_s=time.monotonic() - t0)

    if n_workers <= 1:
        members = [fit_one(k) for k in range(len(models))]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as executor:
            members = list(executor.map(fit_one, range(len(models))))
    for k, member in enumerate(members):
        log_event(
            logger,
            "train_pool.member",
            member=k,
            seed=member.model.seed,
            epochs=len(member.history),
            elapsed=f"{member.train_s:.3f}",
        )
    log_event(
        logger,
        "train_pool.done",
        workers=n_workers,
        members=len(members),
        elapsed=f"{time.monotonic() - t_start:.3f}",
    )
    return members
