"""Optional C fast path for the hot perceptron loops, loaded via ctypes.

The three exported routines mirror the numpy implementations *exactly* —
same integer arithmetic, same uint64 hash mixing, same sequential update
order — so every result is bit-identical to the pure-numpy path and the
kernel-equivalence tests can pin one against the other.  What changes is
only the constant factor: the epoch loop spends its time in ~1.4M random
gathers into a 256 KB weight table per pass, which C does at L2 speed while
the numpy reference loop pays Python-level work per sample.

Compilation is lazy and cached: the first call compiles the embedded source
with ``cc -O2 -shared -fPIC`` into a content-addressed ``.so`` under
``REPRO_NATIVE_DIR`` (default: ``_build/`` next to this file), so every
later process just ``dlopen``s it.  No compiler, a failed compile, or
``REPRO_NATIVE=off`` all degrade to the numpy paths; nothing in the
system *requires* the fast path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from ..telemetry import get_logger, log_event

logger = get_logger("repro.model.native")

#: bump when the C source changes incompatibly; part of the cache key
NATIVE_VERSION = 1

_SOURCE = r"""
#include <stdint.h>

/* One online epoch of the perceptron threshold rule, sequential over
 * `order`, exactly like kernels.fit_epoch_reference: gather the margin,
 * update on target*margin <= theta (add target once per index occurrence,
 * then clamp the touched entries).  Returns the number of updates. */
int64_t fit_epoch(int32_t *w, const int32_t *flat, const int64_t *order,
                  const int64_t *y, int64_t n, int64_t f, double theta,
                  int32_t clamp) {
    int64_t updates = 0;
    for (int64_t s = 0; s < n; s++) {
        const int64_t i = order[s];
        const int32_t *row = flat + i * f;
        int64_t margin = 0;
        for (int64_t j = 0; j < f; j++) margin += w[row[j]];
        const int64_t target = y[i];
        if ((double)(target * margin) <= theta) {
            const int32_t t = (int32_t)target;
            for (int64_t j = 0; j < f; j++) w[row[j]] += t;
            for (int64_t j = 0; j < f; j++) {
                int32_t v = w[row[j]];
                if (v > clamp) v = clamp;
                if (v < -clamp) v = -clamp;
                w[row[j]] = v;
            }
            updates++;
        }
    }
    return updates;
}

/* Flat weight indices from quantized bins for one member: the same
 * splitmix-style mixing as HashedPerceptron._indices, with the per-feature
 * table offset folded in.  uint64 arithmetic wraps exactly like numpy's. */
void hash_indices(const uint8_t *bins, const uint64_t *salts,
                  const int32_t *table_off, int64_t n, int64_t f,
                  uint64_t mask, int32_t *out) {
    const uint64_t golden = 0x9E3779B97F4A7C15ULL;
    const uint64_t mix = 0xBF58476D1CE4E5B9ULL;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *brow = bins + i * f;
        int32_t *orow = out + i * f;
        for (int64_t j = 0; j < f; j++) {
            uint64_t h = (uint64_t)brow[j];
            h *= golden;
            h += salts[j];
            h *= mix;
            h >>= 17;
            orow[j] = (int32_t)(h & mask) + table_off[j];
        }
    }
}

/* Per-row signed margins for one member, fused hash+gather+sum: avoids
 * materializing the (n, f) index matrix the numpy scoring path needs. */
void margins_from_bins(const int32_t *w, const uint8_t *bins,
                       const uint64_t *salts, const int32_t *table_off,
                       int64_t n, int64_t f, uint64_t mask, int64_t *out) {
    const uint64_t golden = 0x9E3779B97F4A7C15ULL;
    const uint64_t mix = 0xBF58476D1CE4E5B9ULL;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *brow = bins + i * f;
        int64_t margin = 0;
        for (int64_t j = 0; j < f; j++) {
            uint64_t h = (uint64_t)brow[j];
            h *= golden;
            h += salts[j];
            h *= mix;
            h >>= 17;
            margin += w[(int32_t)(h & mask) + table_off[j]];
        }
        out[i] = margin;
    }
}
"""

_lib: ctypes.CDLL | None = None
_load_attempted = False
_load_lock = threading.Lock()


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "_build"


def _compiler() -> str | None:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


def _compile(so_path: Path) -> bool:
    """Compile the embedded source to ``so_path`` atomically; False on any
    failure (missing compiler, bad flags, read-only filesystem)."""
    cc = _compiler()
    if cc is None:
        log_event(logger, "native.no_compiler")
        return False
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
            src = Path(tmp) / "kernel.c"
            obj = Path(tmp) / "kernel.so"
            src.write_text(_SOURCE)
            proc = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", str(obj), str(src)],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                log_event(
                    logger,
                    "native.compile_failed",
                    cc=cc,
                    stderr=proc.stderr.decode(errors="replace")[-200:],
                )
                return False
            os.replace(obj, so_path)  # atomic: concurrent compiles converge
        return True
    except (OSError, subprocess.SubprocessError) as exc:
        log_event(logger, "native.compile_failed", cc=cc, stderr=str(exc)[:200])
        return False


def _bind(so_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(so_path))
    lib.fit_epoch.restype = ctypes.c_int64
    lib.fit_epoch.argtypes = [
        ctypes.c_void_p,  # w
        ctypes.c_void_p,  # flat
        ctypes.c_void_p,  # order
        ctypes.c_void_p,  # y
        ctypes.c_int64,  # n
        ctypes.c_int64,  # f
        ctypes.c_double,  # theta
        ctypes.c_int32,  # clamp
    ]
    lib.hash_indices.restype = None
    lib.hash_indices.argtypes = [
        ctypes.c_void_p,  # bins
        ctypes.c_void_p,  # salts
        ctypes.c_void_p,  # table_off
        ctypes.c_int64,  # n
        ctypes.c_int64,  # f
        ctypes.c_uint64,  # mask
        ctypes.c_void_p,  # out
    ]
    lib.margins_from_bins.restype = None
    lib.margins_from_bins.argtypes = [
        ctypes.c_void_p,  # w
        ctypes.c_void_p,  # bins
        ctypes.c_void_p,  # salts
        ctypes.c_void_p,  # table_off
        ctypes.c_int64,  # n
        ctypes.c_int64,  # f
        ctypes.c_uint64,  # mask
        ctypes.c_void_p,  # out
    ]
    return lib


def _load_once() -> ctypes.CDLL | None:
    if os.environ.get("REPRO_NATIVE", "").lower() in ("off", "0", "no"):
        return None
    key = hashlib.sha256(
        f"{NATIVE_VERSION}\n{_SOURCE}".encode()
    ).hexdigest()[:16]
    so_path = _cache_dir() / f"kernel_{key}.so"
    try:
        if not so_path.exists() and not _compile(so_path):
            return None
        return _bind(so_path)
    except OSError as exc:
        log_event(logger, "native.load_failed", error=str(exc)[:200])
        return None


def load() -> ctypes.CDLL | None:
    """The bound library, compiling on first use; None when unavailable.

    The first load runs once, under a lock: a thread that calls in while
    another compiles waits for that result instead of seeing None."""
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    with _load_lock:
        if not _load_attempted:
            _lib = _load_once()
            _load_attempted = True
    return _lib


def available() -> bool:
    return load() is not None


# -- array-level wrappers (validate layout, then hand off raw pointers) ----


def _require_c(a: np.ndarray, dtype) -> np.ndarray:
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"expected C-contiguous {dtype}, got {a.dtype}")
    return a


def fit_epoch(
    w: np.ndarray,
    flat: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    theta: float,
    clamp: int,
) -> int:
    lib = load()
    assert lib is not None, "native kernel not available"
    _require_c(w, np.int32)
    _require_c(flat, np.int32)
    order = np.ascontiguousarray(order, dtype=np.int64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    n, f = flat.shape
    return int(
        lib.fit_epoch(
            w.ctypes.data,
            flat.ctypes.data,
            order.ctypes.data,
            y.ctypes.data,
            n,
            f,
            float(theta),
            int(clamp),
        )
    )


def hash_indices(
    bins: np.ndarray, salts: np.ndarray, table_off: np.ndarray, mask: int
) -> np.ndarray:
    lib = load()
    assert lib is not None, "native kernel not available"
    _require_c(bins, np.uint8)
    _require_c(salts, np.uint64)
    _require_c(table_off, np.int32)
    n, f = bins.shape
    out = np.empty((n, f), dtype=np.int32)
    lib.hash_indices(
        bins.ctypes.data,
        salts.ctypes.data,
        table_off.ctypes.data,
        n,
        f,
        int(mask),
        out.ctypes.data,
    )
    return out


def margins_from_bins(
    w: np.ndarray, bins: np.ndarray, salts: np.ndarray, table_off: np.ndarray, mask: int
) -> np.ndarray:
    lib = load()
    assert lib is not None, "native kernel not available"
    _require_c(w, np.int32)
    _require_c(bins, np.uint8)
    _require_c(salts, np.uint64)
    _require_c(table_off, np.int32)
    n, f = bins.shape
    out = np.empty(n, dtype=np.int64)
    lib.margins_from_bins(
        w.ctypes.data,
        bins.ctypes.data,
        salts.ctypes.data,
        table_off.ctypes.data,
        n,
        f,
        int(mask),
        out.ctypes.data,
    )
    return out
