"""Ingestion layer: fault-tolerant corpus loading.

Transient I/O errors are retried with exponential backoff
(:mod:`repro.ingest.retry`); undecodable files are recorded in a quarantine
manifest (:mod:`repro.ingest.quarantine`) and skipped -- one bad file never
aborts a run (:mod:`repro.ingest.loader` walks a corpus and loads one file,
:mod:`repro.ingest.pool` loads a corpus in-process or on worker processes).
"""

from .loader import CorpusFile, LoadResult, TraceLoader, corpus_files
from .pool import load_corpus_pooled
from .quarantine import QuarantineManifest
from .retry import RetryPolicy, retry_call

__all__ = [
    "CorpusFile",
    "corpus_files",
    "TraceLoader",
    "LoadResult",
    "QuarantineManifest",
    "RetryPolicy",
    "retry_call",
    "load_corpus_pooled",
]
