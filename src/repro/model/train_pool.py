"""Process-based parallel ensemble training over shared memory.

:func:`train_ensemble` fits every hash-seeded ensemble member and returns
them **in model order**, with per-member training seconds and update
histories.  Worker count is semantics-free exactly like the ingest pool:
each member's training depends only on its own seed (hash salts, shuffle
order, and weights all derive from it, never from worker identity or shared
state), so ``workers=N`` produces bit-identical models to ``workers=1`` for
any ``N`` — the train-pool regression tests pin this.

The parent quantizes the feature matrix **once** into the salt-free uint8
bins matrix every member shares.  Serial training hands it to each member
in turn; the pool puts bins + labels into ``multiprocessing.shared_memory``
via :mod:`repro.model.shm` and ships workers only segment names,
dtypes/shapes, and member seeds.  Workers attach read-only views and fit
against them directly — no per-worker matrix pickle, no per-member
re-quantize.  The parent owns segment lifetime: a ``finally`` unlinks
everything on success, worker crash, and ``KeyboardInterrupt`` alike, which
the resource-leak tests pin.

A worker that dies mid-fit (e.g. SIGKILL) or raises degrades gracefully:
the pool logs a ``train_pool.worker_lost`` WARNING and refits that member
in-process, producing the identical final model because member fits are
pure functions of ``(seed, data)``.

Workers ship back ``(weights, history, elapsed)`` rather than whole models;
the parent reconstructs each member from its seed (which regenerates the
identical salts) and installs the trained weights.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import get_logger, log_event
from .perceptron import HashedPerceptron, quantize_bins
from .shm import AttachedArrays, SharedArrays

logger = get_logger("repro.model.train_pool")

#: failure-injection hooks for the crash/leak test suites: set to a member
#: index to SIGKILL the fitting worker / raise mid-fit for that member
_KILL_ENV = "REPRO_TRAIN_POOL_KILL_MEMBER"
_RAISE_ENV = "REPRO_TRAIN_POOL_RAISE_MEMBER"


@dataclass
class TrainedMember:
    """One fitted ensemble member plus its training record."""

    model: HashedPerceptron
    history: list[int] = field(default_factory=list)
    train_s: float = 0.0


def _maybe_inject_failure(member: int) -> None:
    """Test hooks: die or raise while fitting a specific member."""
    kill = os.environ.get(_KILL_ENV)
    if kill is not None and int(kill) == member:
        os.kill(os.getpid(), signal.SIGKILL)
    raise_at = os.environ.get(_RAISE_ENV)
    if raise_at is not None and int(raise_at) == member:
        raise RuntimeError(f"injected mid-fit failure for member {member}")


def _fit_one(
    k: int,
    n_features: int,
    seed: int,
    model_kwargs: dict,
    fit_kwargs: dict,
    *,
    y: np.ndarray,
    bins: np.ndarray,
) -> tuple[int, np.ndarray, list[int], float]:
    """Fit member ``k`` from the shared quantized bins matrix."""
    t0 = time.monotonic()
    model = HashedPerceptron(n_features, seed=seed, **model_kwargs)
    history = model.fit(None, y, bins=bins, **fit_kwargs)
    return k, model.weights, history, time.monotonic() - t0


_SHM_STATE: tuple | None = None


def _init_shm_worker(
    wire_specs: dict, model_kwargs: dict, fit_kwargs: dict
) -> None:
    """Attach to the parent's segments once per worker process.

    The attachment is read-only and is never unlinked here — segment
    lifetime belongs to the parent (see :mod:`repro.model.shm`).  The
    mapping is released implicitly when the worker exits.
    """
    global _SHM_STATE
    attached = AttachedArrays(wire_specs)
    _SHM_STATE = (attached, model_kwargs, fit_kwargs)


def _fit_member_shm(task: tuple[int, int, int]) -> tuple[int, np.ndarray, list[int], float]:
    k, n_features, seed = task
    assert _SHM_STATE is not None, "worker initializer did not run"
    attached, model_kwargs, fit_kwargs = _SHM_STATE
    _maybe_inject_failure(k)
    return _fit_one(
        k,
        n_features,
        seed,
        model_kwargs,
        fit_kwargs,
        y=attached.arrays["y"],
        bins=attached.arrays["bins"],
    )


def train_ensemble(
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_features: int,
    seeds: list[int],
    model_kwargs: dict | None = None,
    fit_kwargs: dict | None = None,
    workers: int = 1,
) -> list[TrainedMember]:
    """Fit one member per seed; results are returned in ``seeds`` order.

    ``workers <= 1`` trains serially in-process; more workers fit members
    in a process pool that attaches to one shared-memory bins matrix.  Both
    are bit-identical.  ``model_kwargs`` feeds the :class:`HashedPerceptron`
    constructor (minus ``seed``); ``fit_kwargs`` feeds
    :meth:`HashedPerceptron.fit`.
    """
    model_kwargs = dict(model_kwargs or {})
    fit_kwargs = dict(fit_kwargs or {})
    t_start = time.monotonic()
    n_workers = max(1, min(workers, len(seeds))) if seeds else 1
    log_event(logger, "train_pool.start", workers=n_workers, members=len(seeds))
    y = np.asarray(y)
    n_bins = int(model_kwargs.get("n_bins", 16))
    # quantization is salt-free, so one bins matrix serves every member —
    # the serial fast path and the shm payload (uint8: 8x smaller than the
    # float64 features)
    bins = quantize_bins(X, n_bins)

    def fit_here(k: int) -> tuple[int, np.ndarray, list[int], float]:
        return _fit_one(k, n_features, seeds[k], model_kwargs, fit_kwargs, y=y, bins=bins)

    if n_workers <= 1:
        results = [fit_here(k) for k in range(len(seeds))]
    else:
        results = [None] * len(seeds)
        lost: list[tuple[int, str]] = []
        with SharedArrays({"bins": bins, "y": y.astype(np.int64, copy=False)}) as shared:
            with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_init_shm_worker,
                initargs=(shared.wire_specs(), model_kwargs, fit_kwargs),
            ) as executor:
                futures = [
                    executor.submit(_fit_member_shm, (k, n_features, seed))
                    for k, seed in enumerate(seeds)
                ]
                for k, fut in enumerate(futures):
                    try:
                        results[k] = fut.result()
                    except Exception as exc:  # worker died or raised mid-fit
                        lost.append((k, f"{type(exc).__name__}: {exc}"))
        # refit lost members in the parent, after the (possibly broken) pool
        # is torn down; the parent's own bins matrix holds the same bytes
        for k, reason in lost:
            log_event(
                logger,
                "train_pool.worker_lost",
                level=logging.WARNING,
                member=k,
                seed=seeds[k],
                reason=reason[:200],
            )
            results[k] = fit_here(k)
    members: list[TrainedMember] = []
    for k, weights, history, elapsed in results:
        model = HashedPerceptron(n_features, seed=seeds[k], **model_kwargs)
        model.weights = np.asarray(weights, dtype=np.int32)
        members.append(TrainedMember(model=model, history=history, train_s=elapsed))
        log_event(
            logger,
            "train_pool.member",
            member=k,
            seed=seeds[k],
            epochs=len(history),
            elapsed=f"{elapsed:.3f}",
        )
    log_event(
        logger,
        "train_pool.done",
        workers=n_workers,
        members=len(members),
        elapsed=f"{time.monotonic() - t_start:.3f}",
    )
    return members
