"""The corpus walk and the per-file loader: :func:`corpus_files` finds a
corpus's files; :class:`TraceLoader` reads one with retry, a decode timeout,
fault injection, and optional content-addressed caching.  The corpus-level
loop that quarantines failures is
:func:`repro.ingest.pool.load_corpus_pooled`."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from ..faults import FaultInjector, FaultPlan
from ..sim.trace import DecodeReport, Trace, decode_trace
from ..telemetry import get_logger, log_event
from .retry import RetryPolicy, retry_call

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..cache import FeatureCache

logger = get_logger("repro.ingest")


class CorpusFile(NamedTuple):
    """One file found by :func:`corpus_files`."""

    #: spelled as ``Path(root).glob`` spells it: fault decisions, quarantine
    #: entries and load results key on this string
    path: str
    #: relative to the corpus root: the dataset-cache key names files by it
    rel: str


def corpus_files(root) -> list[CorpusFile]:
    """Every corpus file under ``root``, in load order: each ``.pkl`` entry
    at any depth, so flat corpora and the payload-hash-sharded layout
    ``repro.gen`` writes (``shard_xx/*.pkl``) load alike.

    One ``scandir`` walk that finds, spells and orders paths exactly as
    ``sorted(Path(root).glob("**/*.pkl"))`` does: hidden entries and
    directories named ``*.pkl`` match too, symlinked directories are not
    descended, and visiting each directory's entries by name, a directory's
    own match before its contents, is ``Path``'s part-by-part order."""
    base = str(Path(root))
    prefix = "" if base == "." else base.rstrip(os.sep) + os.sep
    found: list[CorpusFile] = []

    def visit(rel_dir: str) -> None:
        try:
            with os.scandir(prefix + rel_dir or ".") as it:
                entries = sorted(it, key=attrgetter("name"))
        except OSError:
            return
        for entry in entries:
            rel = rel_dir + entry.name
            if entry.name.endswith(".pkl"):
                found.append(CorpusFile(prefix + rel, rel))
            try:
                is_dir = entry.is_dir(follow_symlinks=False)
            except OSError:
                is_dir = False
            if is_dir:
                visit(rel + os.sep)

    visit("")
    return found


@dataclass
class LoadResult:
    path: str
    trace: Trace
    report: DecodeReport
    #: True when the decode was served by the feature cache
    from_cache: bool = False


class TraceLoader:
    """Loads one trace-cache file at a time.

    Failure policy:

    - ``OSError`` while reading bytes is treated as transient and retried
      with exponential backoff; exhaustion raises :class:`RetryExhausted`.
    - :class:`TraceDecodeError` (any subclass) is permanent: it is raised
      at once, never retried.
    - Anything else is a bug and propagates.

    When a :class:`~repro.cache.FeatureCache` is attached, the loader keys it
    on the exact bytes it is about to decode (after fault injection), so a
    warm cache replays decodes without ever invoking the salvage parser while
    injected corruption still keys to its own (corrupt) content address.
    """

    def __init__(
        self,
        *,
        retry_policy: RetryPolicy | None = None,
        decode_timeout_s: float = 10.0,
        faults: FaultPlan | None = None,
        cache: "FeatureCache | None" = None,
    ):
        self.retry_policy = retry_policy or RetryPolicy()
        self.decode_timeout_s = decode_timeout_s
        self.injector = FaultInjector(faults) if faults and faults.active else None
        self.cache = cache

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
