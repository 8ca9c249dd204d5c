"""The corpus loader: reads trace-cache files with retry, per-file decode
timeouts, fault injection, optional content-addressed caching, and
skip-and-continue quarantine semantics."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..errors import RetryExhausted, TraceDecodeError
from ..faults import FaultInjector, FaultPlan
from ..sim.trace import DecodeReport, Trace, decode_trace
from ..telemetry import get_logger, log_event
from .quarantine import QuarantineManifest
from .retry import RetryPolicy, retry_call

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..cache import FeatureCache

logger = get_logger("repro.ingest")

#: the corpus layout: every ``.pkl`` file at any depth under the corpus root,
#: so flat corpora and the payload-hash-sharded layout ``repro.gen`` writes
#: (``shard_xx/*.pkl``) load alike
CORPUS_GLOB = "**/*.pkl"


def corpus_paths(root) -> list[Path]:
    """Every corpus file under ``root``, in load order."""
    return sorted(Path(root).glob(CORPUS_GLOB))


@dataclass
class LoadResult:
    path: str
    trace: Trace
    report: DecodeReport
    #: True when the decode was served by the feature cache
    from_cache: bool = False


class TraceLoader:
    """Walks a trace-cache directory and yields decoded traces.

    Failure policy:

    - ``OSError`` while reading bytes is treated as transient and retried
      with exponential backoff; exhaustion quarantines the file.
    - :class:`TraceDecodeError` (any subclass) is permanent: the file is
      quarantined immediately, never retried.
    - Anything else is a bug and propagates.

    When a :class:`~repro.cache.FeatureCache` is attached, the loader keys it
    on the exact bytes it is about to decode (after fault injection), so a
    warm cache replays decodes without ever invoking the salvage parser while
    injected corruption still keys to its own (corrupt) content address.
    """

    def __init__(
        self,
        root,
        *,
        retry_policy: RetryPolicy | None = None,
        decode_timeout_s: float = 10.0,
        faults: FaultPlan | None = None,
        cache: "FeatureCache | None" = None,
    ):
        self.root = Path(root)
        self.retry_policy = retry_policy or RetryPolicy()
        self.decode_timeout_s = decode_timeout_s
        self.injector = FaultInjector(faults) if faults and faults.active else None
        self.cache = cache

    # -- single file -----------------------------------------------------

    def _read_bytes(self, path: Path) -> bytes:
        def attempt(n: int) -> bytes:
            if self.injector is not None:
                self.injector.maybe_io_error(str(path), n)
            return path.read_bytes()

        def on_retry(n: int, exc: BaseException, delay: float) -> None:
            log_event(
                logger,
                "ingest.retry",
                path=path.name,
                attempt=n,
                delay=f"{delay:.3f}",
                error=type(exc).__name__,
            )

        return retry_call(attempt, self.retry_policy, on_retry=on_retry)

    def load(self, path) -> LoadResult:
        """Load one file.  Raises ``RetryExhausted`` or ``TraceDecodeError``."""
        path = Path(path)
        data = self._read_bytes(path)
        if self.injector is not None:
            data = self.injector.corrupt(data, str(path))
        key = None
        if self.cache is not None:
            key = self.cache.key(data)
            cached = self.cache.get(key, path=str(path))
            if cached is not None:
                trace, report = cached
                return LoadResult(path=str(path), trace=trace, report=report, from_cache=True)
        deadline = time.monotonic() + self.decode_timeout_s
        trace, report = decode_trace(data, path=str(path), deadline=deadline)
        if self.cache is not None and key is not None:
            self.cache.put(key, trace, report)
        return LoadResult(path=str(path), trace=trace, report=report)

    # -- whole corpus ----------------------------------------------------

    def iter_corpus(self, quarantine: QuarantineManifest) -> Iterator[LoadResult]:
        """Yield a ``LoadResult`` per decodable file; quarantine the rest."""
        for path in corpus_paths(self.root):
            try:
                result = self.load(path)
            except (TraceDecodeError, RetryExhausted) as exc:
                entry = quarantine.add(str(path), exc)
                log_event(
                    logger,
                    "ingest.quarantine",
                    path=path.name,
                    code=entry.code,
                    error=entry.error,
                )
                continue
            if result.report.degraded:
                log_event(
                    logger,
                    "ingest.degraded",
                    path=path.name,
                    mode=result.report.mode,
                    notes=";".join(result.report.notes) or "-",
                )
            yield result

    def load_corpus(self) -> tuple[list[LoadResult], QuarantineManifest]:
        quarantine = QuarantineManifest(root=str(self.root))
        results = list(self.iter_corpus(quarantine))
        log_event(
            logger,
            "ingest.done",
            root=str(self.root),
            loaded=len(results),
            quarantined=len(quarantine),
        )
        return results, quarantine
