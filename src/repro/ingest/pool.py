"""Process-based parallel corpus ingestion.

:func:`load_corpus_pooled` fans the corpus walk out over a
``ProcessPoolExecutor`` while keeping every observable output identical to
the serial :meth:`~repro.ingest.loader.TraceLoader.load_corpus` walk:

- **Ordered results.**  Files are submitted in sorted-path order and results
  are consumed with ``executor.map``, which preserves submission order no
  matter which worker finishes first.  The quarantine manifest therefore
  lists entries in the same order a serial run would.
- **Deterministic fault injection.**  Every worker builds its own
  :class:`~repro.faults.FaultInjector` from the same :class:`FaultPlan`, and
  the injector derives each decision from ``(plan seed, path, attempt)`` —
  never from worker identity or shared RNG state — so a file draws the exact
  same faults whichever worker it lands on and ``REPRO_FAULTS`` replays stay
  deterministic for any ``--workers`` value.
- **Typed failures only.**  Workers catch exactly the exceptions the serial
  loader quarantines (:class:`TraceDecodeError`, :class:`RetryExhausted`)
  and ship their ``describe()`` dicts back; anything else is a bug and
  propagates out of the pool.

Caching composes: each worker opens the same cache *root* and the cache's
atomic entry writes make concurrent stores of the same key safe (last
``os.replace`` wins with identical content, since keys are content hashes).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ..errors import RetryExhausted, TraceDecodeError
from ..faults import FaultPlan
from ..telemetry import get_logger, log_event
from .loader import LoadResult, TraceLoader, corpus_paths
from .quarantine import QuarantineManifest
from .retry import RetryPolicy

logger = get_logger("repro.ingest.pool")

_WORKER_LOADER: TraceLoader | None = None


def _init_worker(
    root: str,
    retry_policy: RetryPolicy | None,
    decode_timeout_s: float,
    faults: FaultPlan | None,
    cache_root: str | None,
) -> None:
    """Build this worker's loader once; every task reuses it."""
    global _WORKER_LOADER
    cache = None
    if cache_root is not None:
        from ..cache import FeatureCache

        cache = FeatureCache(cache_root)
    _WORKER_LOADER = TraceLoader(
        root,
        retry_policy=retry_policy,
        decode_timeout_s=decode_timeout_s,
        faults=faults,
        cache=cache,
    )


def _load_one(path_str: str) -> tuple[str, str, object]:
    """Worker task: load one file, returning a picklable outcome tuple."""
    assert _WORKER_LOADER is not None, "worker initializer did not run"
    try:
        result = _WORKER_LOADER.load(path_str)
    except (TraceDecodeError, RetryExhausted) as exc:
        return ("quarantine", path_str, exc.describe())
    return ("ok", path_str, result)


def load_corpus_pooled(
    root,
    *,
    workers: int = 1,
    retry_policy: RetryPolicy | None = None,
    decode_timeout_s: float = 10.0,
    faults: FaultPlan | None = None,
    cache_root=None,
) -> tuple[list[LoadResult], QuarantineManifest]:
    """Load a corpus with ``workers`` processes (``<= 1`` runs serially
    in-process).  Semantics match ``TraceLoader.load_corpus`` exactly; only
    wall-clock changes."""
    cache_root = str(cache_root) if cache_root is not None else None
    if workers <= 1:
        cache = None
        if cache_root is not None:
            from ..cache import FeatureCache

            cache = FeatureCache(cache_root)
        loader = TraceLoader(
            root,
            retry_policy=retry_policy,
            decode_timeout_s=decode_timeout_s,
            faults=faults,
            cache=cache,
        )
        return loader.load_corpus()

    paths = corpus_paths(root)
    quarantine = QuarantineManifest(root=str(Path(root)))
    results: list[LoadResult] = []
    t_start = time.monotonic()
    n_workers = max(1, min(workers, len(paths))) if paths else 1
    log_event(logger, "pool.start", workers=n_workers, files=len(paths), root=str(root))
    if paths:
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_worker,
            initargs=(str(root), retry_policy, decode_timeout_s, faults, cache_root),
        ) as executor:
            chunksize = max(1, len(paths) // (n_workers * 4))
            outcomes = executor.map(_load_one, (str(p) for p in paths), chunksize=chunksize)
            for status, path_str, payload in outcomes:
                name = Path(path_str).name
                if status == "quarantine":
                    entry = quarantine.add_described(path_str, payload)
                    log_event(
                        logger,
                        "ingest.quarantine",
                        path=name,
                        code=entry.code,
                        error=entry.error,
                    )
                    continue
                assert isinstance(payload, LoadResult)
                if payload.report.degraded:
                    log_event(
                        logger,
                        "ingest.degraded",
                        path=name,
                        mode=payload.report.mode,
                        notes=";".join(payload.report.notes) or "-",
                    )
                results.append(payload)
    log_event(
        logger,
        "pool.done",
        workers=n_workers,
        loaded=len(results),
        quarantined=len(quarantine),
        cache_hits=sum(1 for r in results if r.from_cache),
        elapsed=f"{time.monotonic() - t_start:.3f}",
    )
    log_event(
        logger,
        "ingest.done",
        root=str(root),
        loaded=len(results),
        quarantined=len(quarantine),
    )
    return results, quarantine
