"""Corpus ingestion: one loop over a corpus's files, in-process or fanned
out over a ``ProcessPoolExecutor``.

:func:`load_corpus_pooled` turns each file's load outcome into a result or a
quarantine entry in one loop, fed by builtin ``map`` in-process at
``workers <= 1`` and by ``executor.map`` above that, so every observable
output is identical for any worker count:

- **Ordered results.**  Both ``map``\\ s yield outcomes in input order no
  matter which worker finishes first, and the input is the walk's load
  order.  The quarantine manifest therefore lists entries in the same order
  whatever the worker count.
- **Deterministic fault injection.**  Every worker gets a copy of the same
  loader, and its :class:`~repro.faults.FaultInjector` derives each decision
  from ``(plan seed, path, attempt)`` — never from worker identity or shared
  RNG state — so a file draws the exact same faults whichever worker it
  lands on and ``REPRO_FAULTS`` replays stay deterministic for any
  ``--workers`` value.
- **Typed failures only.**  Outcomes carry exactly the exceptions ingest
  quarantines (:class:`TraceDecodeError`, :class:`RetryExhausted`) as their
  ``describe()`` dicts; anything else is a bug and propagates.

Caching composes: each worker's loader copy opens the same cache *root* and
the cache's atomic entry writes make concurrent stores of the same key safe
(last ``os.replace`` wins with identical content, since keys are content
hashes).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from functools import partial
from pathlib import Path

from ..cache import FeatureCache
from ..errors import RetryExhausted, TraceDecodeError
from ..faults import FaultPlan
from ..telemetry import get_logger, log_event
from .loader import LoadResult, TraceLoader, corpus_files
from .quarantine import QuarantineManifest
from .retry import RetryPolicy

logger = get_logger("repro.ingest.pool")


def _outcome(loader: TraceLoader, path: str) -> tuple[str, str, object]:
    """Load one file, returning a picklable outcome tuple."""
    try:
        return ("ok", path, loader.load(path))
    except (TraceDecodeError, RetryExhausted) as exc:
        return ("quarantine", path, exc.describe())


def load_corpus_pooled(
    root,
    *,
    paths: list[str] | None = None,
    workers: int = 1,
    retry_policy: RetryPolicy | None = None,
    decode_timeout_s: float = 10.0,
    faults: FaultPlan | None = None,
    cache_root=None,
) -> tuple[list[LoadResult], QuarantineManifest]:
    """Load ``paths`` (by default every file :func:`corpus_files` finds
    under ``root``, in its order) with ``workers`` processes; ``<= 1`` loads
    in-process.  The worker count changes only wall-clock."""
    if paths is None:
        paths = [f.path for f in corpus_files(root)]
    # the pool pickles a copy per chunk of work; copies are interchangeable,
    # since the loader holds no state but decode-cache counters no one reads
    load = partial(
        _outcome,
        TraceLoader(
            retry_policy=retry_policy,
            decode_timeout_s=decode_timeout_s,
            faults=faults,
            cache=None if cache_root is None else FeatureCache(cache_root),
        ),
    )
    n_workers = max(1, min(workers, len(paths)))
    quarantine = QuarantineManifest(root=str(Path(root)))
    results: list[LoadResult] = []
    t_start = time.monotonic()
    with ExitStack() as stack:
        if n_workers <= 1:
            outcomes = map(load, paths)
        else:
            executor = stack.enter_context(ProcessPoolExecutor(max_workers=n_workers))
            chunksize = max(1, len(paths) // (n_workers * 4))
            outcomes = executor.map(load, paths, chunksize=chunksize)
        for status, path, payload in outcomes:
            name = os.path.basename(path)
            if status == "quarantine":
                entry = quarantine.add_described(path, payload)
                log_event(
                    logger, "ingest.quarantine", path=name, code=entry.code, error=entry.error
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
        "ingest.done",
        root=str(root),
        workers=n_workers,
        loaded=len(results),
        quarantined=len(quarantine),
        cache_hits=sum(1 for r in results if r.from_cache),
        elapsed=f"{time.monotonic() - t_start:.3f}",
    )
    return results, quarantine
