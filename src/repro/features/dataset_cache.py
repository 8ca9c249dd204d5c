"""Memory-mapped columnar dataset cache: the second cache tier.

The per-trace decode cache (:mod:`repro.cache`) makes re-*decoding* a corpus
cheap, but a warm run still pays ~1.6 ms of Python per trace: one file read
per ``.pkl``, one restricted-unpickle per cache entry, and a trace-by-trace
``build_dataset`` loop.  At 100k traces that is minutes of ingest+featurize
before a single weight updates.  This module caches the *assembled* artifact
instead: after one cold assembly, the full :class:`~repro.features.Dataset`
— ``X``, ``y``, ``groups``, per-trace metadata, the skip list, the
quarantine manifest, and the ingest summary — is persisted as ``.npy``
shards plus a JSON manifest, and warm runs ``np.load(..., mmap_mode="r")``
the matrix back in milliseconds.

Key composition (:meth:`DatasetCache.corpus_key`): a sha256 over

- the dataset-cache, decode-cache, and trace-codec schema versions,
- the per-file decode timeout (a ``DecodeTimeout`` quarantine depends on it),
- the fault-injection plan, retry budget, and the corpus path *as passed*
  when faults are active (fault decisions key on the path string, and the
  quarantine set depends on how many retries a flaky path gets), and
- every corpus file's relative path + sha256 of its exact on-disk bytes,
  sorted by path — unreadable files contribute a poison token instead of a
  digest, so a corpus with a vanishing file can never alias a healthy one.

The files are the ones :func:`~repro.ingest.loader.corpus_files` finds, and
the key carries that list: on a miss, :func:`assemble_corpus` loads exactly
the files the key covers, so a file that lands after the sweep can never
end up in an entry whose key does not cover it.

Any byte change anywhere — a flipped payload byte, an added/removed/renamed
file, a codec or cache schema bump, a different fault plan — therefore
misses cleanly and falls back to cold assembly.  The sweep itself never
decodes or unpickles anything: it is a stat+hash walk, and like git's index
it memoizes ``(size, mtime_ns) -> sha256`` per corpus so a warm sweep is
pure stats — a file is only re-hashed when its stat signature moved.  The
memo is an accelerator, not an authority: it never changes *what* the key
covers, only whether a hash must be recomputed, and a torn or deleted memo
just means one slower sweep.

Entry layout (one directory per key, fanned out over 256 subdirectories)::

    <root>/sweeps/<dir-tag>.tsv           # stat-validated hash memos per
                                          # corpus directory (git-index style)
    <root>/<key[:2]>/<key>/
        MANIFEST.json                     # schema versions, per-shard CRC32/
                                          # size/shape/dtype, per-trace meta,
                                          # skip list, quarantine, ingest doc
        X.npy  y.npy  groups.npy          # the columnar shards
        normalizer_seed<k>_frac<f>.json   # fitted Normalizer stats per split
        normalized_seed<k>_frac<f>.npy    # the normalized matrix for that
        normalized_seed<k>_frac<f>.json   # split (+ CRC32/shape meta), so a
                                          # warm run skips the transform too

Failure policy — identical to the decode cache: the tier must never make a
run worse than no cache.  Entries are published by staging into a temp
directory and atomically renaming it into place; reads verify schema
versions, and every ``.npy`` is written by :func:`_save_npy` and checked
(size, CRC-32, shape, dtype) by :func:`_check_npy`; any mismatch deletes
the entry (``dataset_cache.invalid`` event) and falls back to cold assembly;
``OSError`` anywhere degrades to cache-off behavior with an event.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import stat as stat_mod
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..cache import CACHE_VERSION, CacheStats
from ..errors import IngestError
from ..faults import FaultPlan
from ..ingest import CorpusFile, corpus_files, load_corpus_pooled
from ..ingest.quarantine import QuarantineManifest
from ..ingest.retry import RetryPolicy
from ..sim.trace import TRACE_VERSION, family_key
from ..telemetry import get_logger, log_event
from .assemble import Dataset, build_dataset
from .normalize import Normalizer

logger = get_logger("repro.features.dataset_cache")

#: bump when the entry layout, manifest schema, or key recipe changes; old
#: entries then simply never hit and age out
DATASET_CACHE_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"

#: the columnar shards every entry carries, with their expected dtypes
_SHARDS = (("X.npy", "float64"), ("y.npy", "int64"), ("groups.npy", "int64"))

_HASH_CHUNK = 4 * 1024 * 1024


@dataclass(frozen=True)
class CorpusKey:
    """Digest of everything that can change what a corpus assembles to."""

    digest: str
    bytes: int
    #: the files the digest covers, in load order: what a miss loads
    walk: list[CorpusFile] = field(default_factory=list, hash=False, compare=False)
    #: relpath -> sha256 hex of on-disk bytes (a poison token for unreadable
    #: files); carried so a store can stamp per-trace payload hashes without
    #: re-reading the corpus
    file_digests: dict[str, str] = field(default_factory=dict, hash=False, compare=False)

    @property
    def files(self) -> int:
        return len(self.walk)


@dataclass(slots=True)
class TraceMeta:
    """The slice of a :class:`~repro.sim.trace.Trace` the pipeline's split
    and per-family evaluation actually read, rehydrated from the manifest.
    ``slots`` because warm loads build one per trace — 100k of these."""

    program: str
    label: int
    attack_class: str | None
    interval: int
    n_intervals: int
    payload_sha256: str = ""

    @property
    def is_attack(self) -> bool:
        return self.label > 0


def _file_digest(path: str) -> tuple[str, int]:
    """Worker task for the key sweep: (sha256 | poison, size).  Never
    raises: an unreadable file poisons the key instead."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(_HASH_CHUNK)
            if len(data) < _HASH_CHUNK:  # one-shot for small traces
                return hashlib.sha256(data).hexdigest(), len(data)
            h = hashlib.sha256(data)
            size = len(data)
            while True:
                chunk = fh.read(_HASH_CHUNK)
                if not chunk:
                    break
                h.update(chunk)
                size += len(chunk)
    except OSError as exc:
        return f"!unreadable:{type(exc).__name__}", 0
    return h.hexdigest(), size


def _crc32_file(path: Path) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_HASH_CHUNK)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc


def _save_npy(path: Path, arr: np.ndarray) -> dict:
    """Write ``arr`` to ``path`` (any name: ``np.save`` gets a file object,
    so it appends no suffix) and return the meta :func:`_check_npy` checks
    it against."""
    with open(path, "wb") as fh:
        np.save(fh, arr, allow_pickle=False)
    return {
        "bytes": path.stat().st_size,
        "crc32": _crc32_file(path),
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
    }


def _check_npy(path: Path, meta, dtype: str) -> np.ndarray | str:
    """The ``.npy`` at ``path`` memory-mapped, if it is what
    :func:`_save_npy` recorded in ``meta`` with dtype ``dtype``; otherwise
    the first check it fails.  ``OSError`` other than a missing file
    propagates."""
    if not isinstance(meta, dict):
        return "unreferenced_in_manifest"
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return "missing"
    if size != meta.get("bytes"):
        return f"size_{size}_vs_{meta.get('bytes')}"
    if _crc32_file(path) != meta.get("crc32"):
        return "crc_mismatch"
    try:
        arr = np.load(path, mmap_mode="r", allow_pickle=False)
    except ValueError:
        return "unloadable"
    if list(arr.shape) != meta.get("shape") or str(arr.dtype) != dtype:
        return "shape_or_dtype_mismatch"
    return arr


def _fault_stamp(
    trace_dir, faults: FaultPlan | None, retry_policy: RetryPolicy | None
) -> str:
    """Key fragment for fault injection.  Inactive plans stamp a constant so
    moving a clean corpus between directories still hits; active plans pin
    the plan, the retry budget, and the corpus path the fault RNG keys on."""
    if faults is None or not faults.active:
        return "faults=none"
    policy = retry_policy or RetryPolicy()
    return (
        f"faults=io:{faults.io_rate!r},corrupt:{faults.corrupt_rate!r},"
        f"seed:{faults.seed},transient:{faults.transient},"
        f"attempts:{policy.attempts},dir:{trace_dir}"
    )


class DatasetCache:
    """Maps a corpus digest to a memory-mapped assembled dataset."""

    def __init__(self, root):
        self.root = Path(root)
        self.stats = CacheStats()

    # -- keys ------------------------------------------------------------

    def _sweep_memo_path(self, trace_dir) -> Path:
        tag = hashlib.sha256(str(Path(trace_dir).resolve()).encode()).hexdigest()[:16]
        return self.root / "sweeps" / f"{tag}.tsv"

    def _load_sweep_memo(
        self, trace_dir
    ) -> tuple[dict[str, tuple[int, int, str]], tuple[str, str] | None]:
        """``(relpath -> (size, mtime_ns, sha256), cached)`` where ``cached``
        is the memo's own ``(key-params sha, corpus digest)`` header if one
        was recorded.  A missing, torn, or garbled memo degrades to an empty
        one (every file re-hashes); it can never change what a key covers."""
        try:
            raw = self._sweep_memo_path(trace_dir).read_text()
        except OSError:
            return {}, None
        memo: dict[str, tuple[int, int, str]] = {}
        cached: tuple[str, str] | None = None
        for line in raw.splitlines():
            parts = line.split("\x00")
            if (
                parts[0] == "#1"
                and len(parts) == 3
                and len(parts[1]) == 64
                and len(parts[2]) == 64
            ):
                cached = (parts[1], parts[2])
                continue
            if len(parts) != 4 or len(parts[3]) != 64:
                continue
            try:
                memo[parts[0]] = (int(parts[1]), int(parts[2]), parts[3])
            except ValueError:
                continue
        return memo, cached

    def _store_sweep_memo(
        self,
        trace_dir,
        memo: dict[str, tuple[int, int, str]],
        cached: tuple[str, str] | None = None,
    ) -> None:
        path = self._sweep_memo_path(trace_dir)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        header = f"#1\x00{cached[0]}\x00{cached[1]}\n" if cached is not None else ""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                header
                + "".join(
                    f"{rel}\x00{size}\x00{mtime}\x00{sha}\n"
                    for rel, (size, mtime, sha) in sorted(memo.items())
                )
            )
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def corpus_key(
        self,
        trace_dir,
        *,
        faults: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        decode_timeout_s: float = 30.0,
        workers: int = 1,
    ) -> CorpusKey:
        """Digest the corpus without decoding it: a stat+hash sweep over
        every file :func:`~repro.ingest.loader.corpus_files` finds.  Files
        whose ``(size, mtime_ns)`` matches the per-corpus memo reuse the
        memoized sha256; only changed files are re-hashed (serially at
        ``workers <= 1``, via a thread pool otherwise).  When every file
        stat-matches and the memo was written under the same key parameters,
        the memo's own corpus digest is reused outright — the fully-warm
        sweep is one scandir walk plus one stat per file."""
        header = (
            f"repro-dataset-cache:{DATASET_CACHE_VERSION}:{CACHE_VERSION}:"
            f"{TRACE_VERSION}:timeout={decode_timeout_s!r}:"
            f"{_fault_stamp(trace_dir, faults, retry_policy)}\n"
        )
        header_sha = hashlib.sha256(header.encode()).hexdigest()
        walk = corpus_files(trace_dir)
        memo, cached = self._load_sweep_memo(trace_dir)
        fresh: dict[str, tuple[int, int, str]] = {}
        digests: dict[str, str] = {}
        total = 0
        to_hash: list[tuple[CorpusFile, os.stat_result | None]] = []
        for file in walk:
            try:
                st = os.stat(file.path)
            except OSError:
                st = None
            if st is not None and stat_mod.S_ISREG(st.st_mode):
                hit = memo.get(file.rel)
                if hit is not None and hit[0] == st.st_size and hit[1] == st.st_mtime_ns:
                    digests[file.rel] = hit[2]
                    fresh[file.rel] = hit
                    total += st.st_size
                    continue
            to_hash.append((file, st))
        if (
            not to_hash
            and len(fresh) == len(memo)
            and cached is not None
            and cached[0] == header_sha
        ):
            return CorpusKey(digest=cached[1], bytes=total, walk=walk, file_digests=digests)
        if to_hash:
            if workers > 1 and len(to_hash) > 1:
                n_threads = min(32, max(2, workers * 4))
                with ThreadPoolExecutor(max_workers=n_threads) as pool:
                    hashed = list(pool.map(_file_digest, (f.path for f, _ in to_hash)))
            else:
                hashed = [_file_digest(f.path) for f, _ in to_hash]
            for (file, st), (digest, size) in zip(to_hash, hashed):
                digests[file.rel] = digest
                total += size
                if (
                    st is not None
                    and stat_mod.S_ISREG(st.st_mode)
                    and not digest.startswith("!")
                ):
                    fresh[file.rel] = (st.st_size, st.st_mtime_ns, digest)
        h = hashlib.sha256()
        h.update(header.encode())
        for relpath in sorted(digests):
            h.update(f"{relpath}\x00{digests[relpath]}\n".encode())
        key_digest = h.hexdigest()
        # the memoized corpus digest only covers memoizable content: every
        # walked file regular and hashed (no poison tokens, nothing skipped)
        memoizable = len(fresh) == len(walk)
        if fresh != memo or cached != (header_sha, key_digest):
            self._store_sweep_memo(
                trace_dir, fresh, (header_sha, key_digest) if memoizable else None
            )
        return CorpusKey(digest=key_digest, bytes=total, walk=walk, file_digests=digests)

    def entry_dir(self, digest: str) -> Path:
        return self.root / digest[:2] / digest

    # -- read ------------------------------------------------------------

    def load(
        self, key: CorpusKey
    ) -> tuple[Dataset, QuarantineManifest, dict] | None:
        """Rehydrate the cached assembly for ``key`` — ``(dataset,
        quarantine, ingest summary)`` — or None.  Any torn, truncated, or
        stale entry is deleted and reported as a miss; the caller falls back
        to cold assembly."""
        entry = self.entry_dir(key.digest)
        try:
            loaded = self._load_verified(entry, key)
        except FileNotFoundError:
            self.stats.misses += 1
            log_event(
                logger, "dataset_cache.miss", level=logging.DEBUG, key=key.digest[:12]
            )
            return None
        except OSError as exc:
            self.stats.errors += 1
            self.stats.misses += 1
            log_event(
                logger,
                "dataset_cache.error",
                op="load",
                key=key.digest[:12],
                error=type(exc).__name__,
            )
            return None
        if loaded is None:
            self._invalidate(entry, key.digest)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        dataset = loaded[0]
        log_event(
            logger,
            "dataset_cache.hit",
            key=key.digest[:12],
            traces=len(dataset.traces),
            samples=dataset.n_samples,
        )
        return loaded

    def _load_verified(
        self, entry: Path, key: CorpusKey
    ) -> tuple[Dataset, QuarantineManifest, dict] | None:
        """Parse + verify one entry; None means invalid (caller deletes).
        A missing manifest raises ``FileNotFoundError``."""
        raw = (entry / MANIFEST_NAME).read_text()
        try:
            doc = json.loads(raw)
        except ValueError:
            log_event(logger, "dataset_cache.torn_manifest", key=key.digest[:12])
            return None
        if not isinstance(doc, dict):
            return None
        if (
            doc.get("dataset_cache_version") != DATASET_CACHE_VERSION
            or doc.get("cache_version") != CACHE_VERSION
            or doc.get("trace_version") != TRACE_VERSION
            or doc.get("key") != key.digest
        ):
            return None
        shards = doc.get("shards")
        if not isinstance(shards, dict):
            return None
        arrays: dict[str, np.ndarray] = {}
        for name, dtype in _SHARDS:
            arr = _check_npy(entry / name, shards.get(name), dtype)
            if isinstance(arr, str):
                return None
            arrays[name] = arr
        try:
            traces = [
                TraceMeta(
                    program=str(t[0]),
                    label=int(t[1]),
                    attack_class=None if t[2] is None else str(t[2]),
                    interval=int(t[3]),
                    n_intervals=int(t[4]),
                    payload_sha256=str(t[5]),
                )
                for t in doc["traces"]
            ]
            skipped = [(str(p), str(r)) for p, r in doc["skipped"]]
            ingest = dict(doc["ingest"])
            qdoc = doc["quarantine"]
            quarantine = QuarantineManifest(root=str(qdoc.get("root", "")))
            for raw_entry in qdoc.get("entries", []):
                quarantine.add_described(raw_entry["path"], dict(raw_entry["desc"]))
        except (KeyError, IndexError, TypeError, ValueError):
            return None
        X = arrays["X.npy"]
        if X.ndim != 2 or len(traces) == 0:
            return None
        if arrays["y.npy"].shape != (X.shape[0],) or arrays["groups.npy"].shape != (
            X.shape[0],
        ):
            return None
        dataset = Dataset(
            X=X,
            y=arrays["y.npy"],
            groups=arrays["groups.npy"],
            traces=traces,
            skipped=skipped,
        )
        return dataset, quarantine, ingest

    # -- write -----------------------------------------------------------

    def store(
        self,
        key: CorpusKey,
        dataset: Dataset,
        *,
        quarantine: QuarantineManifest,
        ingest: dict,
        trace_paths: list[str] | None = None,
        trace_dir=None,
    ) -> bool:
        """Persist a cold assembly under ``key``.  Returns False (and logs)
        instead of raising when the entry cannot be written.

        ``trace_paths`` maps each *input* trace index (``dataset.
        source_indices`` values) to its load path so per-trace payload
        hashes can be stamped from the key sweep without re-reading files.
        """
        entry = self.entry_dir(key.digest)
        tmp = self.root / f".tmp-{key.digest[:16]}-{os.getpid()}"
        try:
            if entry.is_dir():
                return False  # someone already published this key
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            shards = {
                name: _save_npy(tmp / name, np.ascontiguousarray(arr, dtype=dtype))
                for (name, dtype), arr in zip(
                    _SHARDS, (dataset.X, dataset.y, dataset.groups)
                )
            }
            doc = {
                "dataset_cache_version": DATASET_CACHE_VERSION,
                "cache_version": CACHE_VERSION,
                "trace_version": TRACE_VERSION,
                "key": key.digest,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "corpus": {"files": key.files, "bytes": key.bytes},
                "shards": shards,
                "traces": self._trace_docs(dataset, key, trace_paths),
                "skipped": [list(pair) for pair in dataset.skipped],
                "quarantine": {
                    "root": quarantine.root,
                    "entries": [
                        {
                            "path": e.path,
                            "desc": {
                                "code": e.code,
                                "type": e.error,
                                "message": e.message,
                                **e.detail,
                            },
                        }
                        for e in quarantine.entries
                    ],
                },
                "ingest": {k: v for k, v in ingest.items() if k != "cache"},
                "families": self._family_counts(dataset),
                "gen": self._gen_provenance(trace_dir),
            }
            (tmp / MANIFEST_NAME).write_text(
                json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
            )
            entry.parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp, entry)
        except OSError as exc:
            self.stats.errors += 1
            log_event(
                logger,
                "dataset_cache.error",
                op="write",
                key=key.digest[:12],
                error=type(exc).__name__,
            )
            shutil.rmtree(tmp, ignore_errors=True)
            return False
        self.stats.stores += 1
        log_event(
            logger,
            "dataset_cache.store",
            key=key.digest[:12],
            traces=len(dataset.traces),
            samples=dataset.n_samples,
            bytes=sum(s["bytes"] for s in shards.values()),
        )
        return True

    @staticmethod
    def _trace_docs(
        dataset: Dataset, key: CorpusKey, trace_paths: list[str] | None
    ) -> list[list]:
        """Compact per-trace rows: [program, label, attack_class, interval,
        n_intervals, payload_sha256]."""
        shas: list[str] = [""] * len(dataset.traces)
        if trace_paths is not None and dataset.source_indices is not None:
            by_path = {f.path: key.file_digests.get(f.rel, "") for f in key.walk}
            shas = [by_path.get(trace_paths[i], "") for i in dataset.source_indices.tolist()]
        return [
            [t.program, int(t.label), t.attack_class, int(t.interval), int(t.n_intervals), shas[k]]
            for k, t in enumerate(dataset.traces)
        ]

    @staticmethod
    def _family_counts(dataset: Dataset) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for t in dataset.traces:
            cell = out.setdefault(
                family_key(t), {"kind": "attack" if t.is_attack else "benign", "traces": 0}
            )
            cell["traces"] += 1
        return {k: out[k] for k in sorted(out)}

    @staticmethod
    def _gen_provenance(trace_dir) -> dict | None:
        """When the corpus came out of ``repro.gen``, record the generator's
        own manifest digest so dataset-cache entries are traceable back to
        the exact synthetic corpus that produced them."""
        if trace_dir is None:
            return None
        manifest = Path(trace_dir) / "MANIFEST.json"
        try:
            doc = json.loads(manifest.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or "gen_version" not in doc:
            return None
        return {
            "gen_version": doc.get("gen_version"),
            "seed": doc.get("seed"),
            "count": doc.get("count"),
            "corpus_digest": doc.get("corpus_digest"),
        }

    # -- normalizer sidecars ---------------------------------------------

    @staticmethod
    def _normalizer_name(seed: int, test_frac: float) -> str:
        return f"normalizer_seed{seed}_frac{test_frac!r}.json"

    def load_normalizer(
        self, key: CorpusKey, *, seed: int, test_frac: float, n_features: int
    ) -> Normalizer | None:
        """The fitted normalizer for this corpus + split, or None.  Stats are
        JSON round-tripped through ``repr`` floats, so a loaded normalizer
        transforms bit-identically to a freshly fitted one."""
        path = self.entry_dir(key.digest) / self._normalizer_name(seed, test_frac)
        if not path.is_file():
            return None
        try:
            norm = Normalizer.load(path)
        except Exception:
            log_event(
                logger, "dataset_cache.bad_normalizer", key=key.digest[:12], file=path.name
            )
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        if norm.mean.shape[0] != n_features:
            return None
        log_event(
            logger,
            "dataset_cache.normalizer_hit",
            level=logging.DEBUG,
            key=key.digest[:12],
            file=path.name,
        )
        return norm

    def store_normalizer(
        self, key: CorpusKey, normalizer: Normalizer, *, seed: int, test_frac: float
    ) -> bool:
        entry = self.entry_dir(key.digest)
        if not entry.is_dir():
            return False
        path = entry / self._normalizer_name(seed, test_frac)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(normalizer.to_json()) + "\n")
            os.replace(tmp, path)
        except OSError as exc:
            self.stats.errors += 1
            log_event(
                logger,
                "dataset_cache.error",
                op="write_normalizer",
                key=key.digest[:12],
                error=type(exc).__name__,
            )
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        return True

    # -- normalized-matrix sidecars --------------------------------------

    @staticmethod
    def _normalized_base(seed: int, test_frac: float) -> str:
        return f"normalized_seed{seed}_frac{test_frac!r}"

    def load_normalized(
        self, key: CorpusKey, *, seed: int, test_frac: float, shape: tuple[int, ...]
    ) -> np.ndarray | None:
        """The memory-mapped normalized matrix for this corpus + split, or
        None.  The shard holds the exact float64 bytes a fresh
        ``Normalizer.transform`` produced, so a sidecar hit is bit-identical
        to recomputing — any size/CRC/shape mismatch drops both sidecar
        files and the caller transforms as if the sidecar never existed."""
        entry = self.entry_dir(key.digest)
        base = self._normalized_base(seed, test_frac)
        meta_path = entry / f"{base}.json"
        npy_path = entry / f"{base}.npy"
        try:
            meta = json.loads(meta_path.read_text())
        except FileNotFoundError:
            if npy_path.is_file():  # torn publish: shard without meta
                self._drop_normalized(meta_path, npy_path, key)
            return None
        except (OSError, ValueError):
            self._drop_normalized(meta_path, npy_path, key)
            return None
        arr = None
        if (
            isinstance(meta, dict)
            and meta.get("dataset_cache_version") == DATASET_CACHE_VERSION
            and meta.get("shape") == list(shape)
        ):
            try:
                arr = _check_npy(npy_path, meta, "float64")
            except OSError:
                pass
        if not isinstance(arr, np.ndarray):
            self._drop_normalized(meta_path, npy_path, key)
            return None
        log_event(
            logger,
            "dataset_cache.normalized_hit",
            level=logging.DEBUG,
            key=key.digest[:12],
            file=npy_path.name,
        )
        return arr

    def _drop_normalized(self, meta_path: Path, npy_path: Path, key: CorpusKey) -> None:
        log_event(
            logger, "dataset_cache.bad_normalized", key=key.digest[:12], file=npy_path.name
        )
        for path in (meta_path, npy_path):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def store_normalized(
        self, key: CorpusKey, X_all: np.ndarray, *, seed: int, test_frac: float
    ) -> bool:
        """Persist the normalized matrix beside its entry.  The shard lands
        before its meta file, so a crash between the two reads as torn and
        self-heals on the next load."""
        entry = self.entry_dir(key.digest)
        if not (entry / MANIFEST_NAME).is_file():
            return False
        base = self._normalized_base(seed, test_frac)
        npy_path = entry / f"{base}.npy"
        meta_path = entry / f"{base}.json"
        npy_tmp = entry / f".{base}.npy.{os.getpid()}.tmp"
        meta_tmp = entry / f".{base}.json.{os.getpid()}.tmp"
        try:
            meta = {
                "dataset_cache_version": DATASET_CACHE_VERSION,
                **_save_npy(npy_tmp, np.ascontiguousarray(X_all, dtype=np.float64)),
            }
            os.replace(npy_tmp, npy_path)
            meta_tmp.write_text(json.dumps(meta, sort_keys=True) + "\n")
            os.replace(meta_tmp, meta_path)
        except OSError as exc:
            self.stats.errors += 1
            log_event(
                logger,
                "dataset_cache.error",
                op="write_normalized",
                key=key.digest[:12],
                error=type(exc).__name__,
            )
            for path in (npy_tmp, meta_tmp):
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
            return False
        return True

    # -- maintenance -----------------------------------------------------

    def _invalidate(self, entry: Path, digest: str) -> None:
        self.stats.invalidated += 1
        log_event(logger, "dataset_cache.invalid", key=digest[:12])
        try:
            shutil.rmtree(entry)
        except OSError as exc:
            self.stats.errors += 1
            log_event(
                logger,
                "dataset_cache.error",
                op="rmtree",
                key=digest[:12],
                error=type(exc).__name__,
            )

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*/" + MANIFEST_NAME))


def entry_problems(entry_dir) -> list[str]:
    """Audit one cache entry in place (no deletion): returns a list of
    problems, empty when the entry is internally consistent.  Shared by
    ``tools/audit_dataset_cache.py`` and the test suite."""
    entry = Path(entry_dir)
    problems: list[str] = []
    manifest = entry / MANIFEST_NAME
    try:
        doc = json.loads(manifest.read_text())
    except FileNotFoundError:
        return ["manifest_missing"]
    except OSError as exc:
        return [f"manifest_unreadable:{type(exc).__name__}"]
    except ValueError:
        return ["manifest_torn"]
    if not isinstance(doc, dict):
        return ["manifest_not_object"]
    if doc.get("dataset_cache_version") != DATASET_CACHE_VERSION:
        problems.append(f"stale_schema:{doc.get('dataset_cache_version')!r}")
    if doc.get("key") != entry.name:
        problems.append("key_mismatch")
    shards = doc.get("shards")
    if not isinstance(shards, dict):
        return problems + ["shards_missing"]
    referenced = {MANIFEST_NAME}
    for name, dtype in _SHARDS:
        referenced.add(name)
        try:
            checked = _check_npy(entry / name, shards.get(name), dtype)
        except OSError as exc:
            checked = f"unreadable:{type(exc).__name__}"
        if isinstance(checked, str):
            problems.append(f"{name}:{checked}")
    for child in entry.iterdir():
        if child.name in referenced or child.name.startswith(
            ("normalizer_", "normalized_")
        ):
            continue
        problems.append(f"orphan:{child.name}")
    return problems


# ---------------------------------------------------------------------------
# the one-call corpus assembly path (shared by pipeline and serve.retrain)
# ---------------------------------------------------------------------------


@dataclass
class CorpusAssembly:
    """Everything a corpus resolves to, whichever tier produced it."""

    dataset: Dataset
    quarantine: QuarantineManifest
    #: files / loaded / quarantined / quarantine_counts / degraded
    ingest: dict
    #: decode-cache hit count for this run (None on a dataset-cache hit or
    #: when no decode cache was configured)
    decode_cache_hits: int | None
    #: metrics doc for the dataset-cache tier (None when the tier is off)
    dataset_cache: dict | None
    #: wall-clock spent on ingest proper (key sweep + decode or entry load)
    ingest_s: float
    cache: DatasetCache | None = None
    key: CorpusKey | None = None


def assemble_corpus(
    trace_dir,
    *,
    workers: int = 1,
    retry_policy: RetryPolicy | None = None,
    decode_timeout_s: float = 30.0,
    faults: FaultPlan | None = None,
    cache_root=None,
    dataset_cache_root=None,
    quarantine_path=None,
) -> CorpusAssembly:
    """Resolve a corpus directory to an assembled :class:`Dataset`.

    With ``dataset_cache_root`` set, a warm corpus short-circuits the whole
    decode+assemble path through one mmap load; a miss hands the files the
    key swept to :func:`load_corpus_pooled`, assembles them with
    :func:`build_dataset` and publishes the result for the next run.
    Raises :class:`IngestError` when the corpus has no decodable traces
    (same contract as the pipeline).
    """
    t0 = time.monotonic()
    cache = DatasetCache(dataset_cache_root) if dataset_cache_root is not None else None
    key = None
    if cache is not None:
        key = cache.corpus_key(
            trace_dir,
            faults=faults,
            retry_policy=retry_policy,
            decode_timeout_s=decode_timeout_s,
            workers=workers,
        )
        cached = cache.load(key)
        if cached is not None:
            dataset, quarantine, ingest = cached
            if quarantine_path is not None:
                quarantine.write(quarantine_path)
            return CorpusAssembly(
                dataset=dataset,
                quarantine=quarantine,
                ingest=ingest,
                decode_cache_hits=None,
                dataset_cache={"enabled": True, "hit": True, "key": key.digest[:12]},
                ingest_s=time.monotonic() - t0,
                cache=cache,
                key=key,
            )

    results, quarantine = load_corpus_pooled(
        trace_dir,
        # a miss loads exactly the files the key covers
        paths=None if key is None else [f.path for f in key.walk],
        workers=workers,
        retry_policy=retry_policy,
        decode_timeout_s=decode_timeout_s,
        faults=faults,
        cache_root=cache_root,
    )
    if quarantine_path is not None:
        quarantine.write(quarantine_path)
    n_files = len(results) + len(quarantine)
    if not results:
        # the entire corpus was quarantined (or the directory is empty):
        # refuse loudly instead of training on an empty matrix
        log_event(
            logger,
            "pipeline.empty_corpus",
            level=logging.ERROR,
            trace_dir=str(trace_dir),
            files=n_files,
            quarantined=len(quarantine),
            counts=json.dumps(quarantine.counts(), sort_keys=True),
        )
        raise IngestError(
            f"no decodable traces under {trace_dir} "
            f"({n_files} files, {len(quarantine)} quarantined)"
        )
    t_ingest = time.monotonic()

    dataset = build_dataset([r.trace for r in results])
    ingest = {
        "files": n_files,
        "loaded": len(results),
        "quarantined": len(quarantine),
        "quarantine_counts": quarantine.counts(),
        "degraded": sum(1 for r in results if r.report.degraded),
    }
    dataset_cache_doc = None
    if cache is not None and key is not None:
        stored = cache.store(
            key,
            dataset,
            quarantine=quarantine,
            ingest=ingest,
            trace_paths=[r.path for r in results],
            trace_dir=trace_dir,
        )
        dataset_cache_doc = {
            "enabled": True,
            "hit": False,
            "stored": stored,
            "key": key.digest[:12],
        }
    return CorpusAssembly(
        dataset=dataset,
        quarantine=quarantine,
        ingest=ingest,
        decode_cache_hits=(
            sum(1 for r in results if r.from_cache) if cache_root is not None else None
        ),
        dataset_cache=dataset_cache_doc,
        ingest_s=t_ingest - t0,
        cache=cache,
        key=key,
    )
