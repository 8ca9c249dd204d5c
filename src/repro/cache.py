"""Content-addressed cache of decoded traces.

Salvage-decoding a damaged capture costs ~150 ms; re-reading its cached,
cleanly re-encoded form costs ~1 ms.  The cache keys every entry on the
SHA-256 of the *exact bytes that were decoded* (post fault-injection, so a
corrupted read can never alias a clean one) plus the codec and cache schema
versions, which makes entries immutable: a key either maps to the one true
decode of those bytes or it does not exist.

Entry layout (one file per entry, fanned out over 256 subdirectories)::

    magic "RFC1" | u32 doc length | doc JSON | codec body

The *doc* carries the :class:`~repro.sim.trace.DecodeReport` (mode, notes,
salvage bookkeeping) and a CRC-32 of the body; the *body* is the trace
re-serialized with :func:`~repro.sim.trace.encode_trace`, so reads go
through the codec's restricted-unpickler clean path — the salvage decoder is
never needed for a warm entry.

Failure policy: the cache must never make a run worse than no cache.

- Writes are atomic (temp file + ``os.replace``) so a crashed run cannot
  leave a torn entry behind.
- Reads verify magic, CRC, and the codec decode; any mismatch counts as a
  miss, deletes the bad entry (``cache.invalid`` event), and the caller
  falls back to the real decoder.
- ``OSError`` anywhere inside the cache is swallowed (with an event): a
  read-only or full disk degrades to cache-off behavior.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

from .sim.salvage import SalvageReport
from .sim.trace import TRACE_VERSION, DecodeReport, Trace, decode_trace, encode_trace
from .telemetry import get_logger, log_event

logger = get_logger("repro.cache")

#: bump when the entry layout or the doc schema changes; old entries then
#: simply never hit and age out
CACHE_VERSION = 1

_MAGIC = b"RFC1"
_DOC_LEN = struct.Struct("<I")
_MAX_DOC = 1 << 20


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0
    errors: int = 0

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
            "errors": self.errors,
        }


class FeatureCache:
    """Maps ``sha256(payload) + versions`` to a decoded ``(Trace, DecodeReport)``."""

    def __init__(self, root):
        self.root = Path(root)
        self.stats = CacheStats()

    # -- keys ------------------------------------------------------------

    def key(self, payload: bytes) -> str:
        """Content address for ``payload``: digest over the bytes and every
        version that affects what they decode to."""
        h = hashlib.sha256()
        h.update(f"repro-cache:{CACHE_VERSION}:{TRACE_VERSION}:".encode())
        h.update(payload)
        return h.hexdigest()

    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.trace"

    # -- read ------------------------------------------------------------

    def get(self, key: str, *, path: str = "<cache>") -> tuple[Trace, DecodeReport] | None:
        """Return the cached decode for ``key`` or None.  Corrupt entries are
        deleted and reported as a miss; the caller re-decodes and re-stores."""
        entry = self.entry_path(key)
        try:
            blob = entry.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError as exc:
            self.stats.errors += 1
            log_event(logger, "cache.error", op="read", key=key, error=type(exc).__name__)
            self.stats.misses += 1
            return None
        decoded = self._decode_entry(blob, path)
        if decoded is None:
            self._invalidate(entry, key)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        log_event(logger, "cache.hit", level=logging.DEBUG, key=key, path=path)
        return decoded

    def _decode_entry(self, blob: bytes, path: str) -> tuple[Trace, DecodeReport] | None:
        header = len(_MAGIC) + _DOC_LEN.size
        if len(blob) < header or blob[: len(_MAGIC)] != _MAGIC:
            return None
        (doc_len,) = _DOC_LEN.unpack_from(blob, len(_MAGIC))
        body_start = header + doc_len
        if doc_len > _MAX_DOC or body_start > len(blob):
            return None
        try:
            doc = json.loads(blob[header:body_start].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        body = blob[body_start:]
        if not isinstance(doc, dict) or doc.get("cache_version") != CACHE_VERSION:
            return None
        if doc.get("crc32") != zlib.crc32(body):
            return None
        try:
            trace, _ = decode_trace(body, path=path)
        except Exception:
            # entry passed its CRC but the body will not decode: a schema
            # change without a CACHE_VERSION bump, or bit rot inside the CRC
            # collision space -- either way, re-decode from source
            return None
        report = self._report_from_doc(doc, path)
        return trace, report

    @staticmethod
    def _report_from_doc(doc: dict, path: str) -> DecodeReport:
        rep = doc.get("report") or {}
        report = DecodeReport(
            path=path,
            mode=str(rep.get("mode", "clean")),
            notes=[str(n) for n in rep.get("notes", [])],
        )
        salvage = rep.get("salvage")
        if isinstance(salvage, dict):
            try:
                report.salvage = SalvageReport(**salvage)
            except TypeError:
                report.notes.append("cache_salvage_report_dropped")
        return report

    # -- write -----------------------------------------------------------

    def put(self, key: str, trace: Trace, report: DecodeReport) -> bool:
        """Store a decode under ``key``.  Returns False (and logs) instead of
        raising when the entry cannot be written."""
        try:
            body = encode_trace(trace)
        except Exception as exc:  # pragma: no cover - encode of a decoded trace
            self.stats.errors += 1
            log_event(logger, "cache.error", op="encode", key=key, error=type(exc).__name__)
            return False
        rep: dict = {"mode": report.mode, "notes": list(report.notes)}
        if report.salvage is not None:
            rep["salvage"] = asdict(report.salvage)
        doc = json.dumps(
            {"cache_version": CACHE_VERSION, "crc32": zlib.crc32(body), "report": rep},
            sort_keys=True,
        ).encode("utf-8")
        blob = _MAGIC + _DOC_LEN.pack(len(doc)) + doc + body
        entry = self.entry_path(key)
        tmp = entry.with_name(f".{entry.name}.{os.getpid()}.tmp")
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, entry)
        except OSError as exc:
            self.stats.errors += 1
            log_event(logger, "cache.error", op="write", key=key, error=type(exc).__name__)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self.stats.stores += 1
        log_event(logger, "cache.store", level=logging.DEBUG, key=key, bytes=len(blob))
        return True

    # -- maintenance -----------------------------------------------------

    def _invalidate(self, entry: Path, key: str) -> None:
        self.stats.invalidated += 1
        log_event(logger, "cache.invalid", key=key, entry=entry.name)
        try:
            entry.unlink(missing_ok=True)
        except OSError as exc:
            self.stats.errors += 1
            log_event(logger, "cache.error", op="unlink", key=key, error=type(exc).__name__)

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.trace"))
