"""The ``Trace`` record and the versioned ``.trace_cache`` codec.

On-disk format (version 4): a little-endian ``u64`` version header equal to
``4`` followed by a pickle body of one :class:`Trace` instance.  Decoding is
two-tiered:

1. **clean path** -- the body is loaded with a restricted unpickler that only
   admits :class:`Trace` and the numpy array-reconstruction globals.
2. **salvage path** -- the seed corpus was captured through a UTF-8
   decode/encode round trip with ``errors="ignore"``, which silently *deleted*
   every byte that did not form valid UTF-8 (pickle opcodes ``\\x80 \\x8c
   \\x93 \\x94``..., high bytes of ints and floats).  The salvage parser walks
   the surviving landmarks (length-prefixed field names survive because they
   are ASCII), re-derives the array shape from the stat-name list, and
   re-aligns the float payload with :func:`repro.sim.salvage.salvage_f64`.

Every failure raises a :class:`~repro.errors.TraceDecodeError` subclass --
never a bare exception -- so the ingest layer can quarantine by typed reason.
"""

from __future__ import annotations

import io
import pickle
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    BadHeader,
    DecodeTimeout,
    SchemaMismatch,
    TraceDecodeError,
    TruncatedTrace,
)
from .salvage import SalvageReport, _score_alignment, salvage_f64

TRACE_VERSION = 4
_HEADER = struct.Struct("<Q")

#: mangled-body signature: SHORT_BINUNICODE markers stripped, lengths survive
_BODY_LANDMARK = b"\x0frepro.sim.trace\x05Trace"
#: how deep into the file the landmark may sit (headers lose bytes too)
_LANDMARK_WINDOW = 96

_MAX_DIM = 1_000_000
_MAX_CELLS = 64 * 1024 * 1024  # 512 MB of float64 -- decode bomb guard

#: printable ASCII; deleting these from a byte string leaves it empty
#: exactly when every byte in it is printable
_PRINTABLE = bytes(range(0x20, 0x7F))


# ---------------------------------------------------------------------------
# the record
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Trace:
    """One captured execution: per-interval hardware-state feature rows."""

    program: str
    label: int
    attack_class: str | None
    interval: int
    rows: np.ndarray
    stat_names: list[str] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_intervals(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.rows.shape[1])

    @property
    def is_attack(self) -> bool:
        return self.label > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.program == other.program
            and self.label == other.label
            and self.attack_class == other.attack_class
            and self.interval == other.interval
            and self.rows.shape == other.rows.shape
            and np.array_equal(self.rows, other.rows, equal_nan=True)
            and self.stat_names == other.stat_names
            and self.meta == other.meta
        )


def family_key(trace) -> str:
    """A trace's family, for per-family evaluation, dataset-cache manifests
    and served answers: attacks group by ``attack_class`` (the generator
    stamps the family name there; the real corpus carries its capture
    class), benign traces by workload program — both survive the salvage
    decoder, unlike ``meta``.  Takes a :class:`Trace` or anything with its
    ``is_attack``, ``attack_class`` and ``program``."""
    if trace.is_attack:
        return trace.attack_class or trace.program
    return trace.program


@dataclass
class DecodeReport:
    """How a trace was decoded and how much of it survived."""

    path: str
    mode: str = "clean"  # "clean" | "salvage"
    notes: list[str] = field(default_factory=list)
    salvage: SalvageReport | None = None

    @property
    def degraded(self) -> bool:
        return self.mode != "clean" or bool(self.notes)

    def describe(self) -> dict:
        out = {"path": self.path, "mode": self.mode, "notes": list(self.notes)}
        if self.salvage is not None:
            out["salvage"] = self.salvage.describe()
        return out


# ---------------------------------------------------------------------------
# encode + clean decode
# ---------------------------------------------------------------------------


def encode_trace(trace: Trace) -> bytes:
    """Serialize to the version-4 on-disk format."""
    rows = np.ascontiguousarray(np.asarray(trace.rows, dtype=np.float64))
    if rows.ndim != 2:
        raise SchemaMismatch(f"rows must be 2-D, got shape {rows.shape}")
    trace.rows = rows
    return _HEADER.pack(TRACE_VERSION) + pickle.dumps(trace, protocol=4)


def write_trace(path, trace: Trace) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_trace(trace))


_ALLOWED_GLOBALS = {
    ("repro.sim.trace", "Trace"),
    ("numpy.core.multiarray", "_reconstruct"),
    ("numpy._core.multiarray", "_reconstruct"),
    ("numpy", "ndarray"),
    ("numpy", "dtype"),
}


class _RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) not in _ALLOWED_GLOBALS:
            raise pickle.UnpicklingError(f"global {module}.{name} is not allowed in traces")
        if name == "Trace":
            return Trace
        if name == "_reconstruct":
            from numpy._core import multiarray  # numpy >= 2; alias of numpy.core

            return multiarray._reconstruct
        return getattr(np, name)


def _validate(trace: Trace) -> Trace:
    if not isinstance(trace, Trace):
        raise SchemaMismatch(f"body decodes to {type(trace).__name__}, not Trace")
    if not isinstance(trace.program, str) or not trace.program:
        raise SchemaMismatch("program must be a non-empty string")
    if not isinstance(trace.label, int) or isinstance(trace.label, bool):
        raise SchemaMismatch(f"label must be int, got {type(trace.label).__name__}")
    if trace.attack_class is not None and not isinstance(trace.attack_class, str):
        raise SchemaMismatch("attack_class must be str or None")
    if not isinstance(trace.interval, int) or trace.interval < 0:
        raise SchemaMismatch("interval must be a non-negative int")
    rows = np.asarray(trace.rows, dtype=np.float64)
    if rows.ndim != 2:
        raise SchemaMismatch(f"rows must be 2-D, got shape {rows.shape}")
    trace.rows = rows
    if trace.stat_names is not None:
        if not all(isinstance(s, str) for s in trace.stat_names):
            raise SchemaMismatch("stat_names must be a list of strings")
        if len(trace.stat_names) != rows.shape[1]:
            raise SchemaMismatch(
                f"stat_names has {len(trace.stat_names)} entries for {rows.shape[1]} columns"
            )
    if not isinstance(trace.meta, dict):
        raise SchemaMismatch("meta must be a dict")
    return trace


# ---------------------------------------------------------------------------
# decode entry point
# ---------------------------------------------------------------------------


def decode_trace(
    data: bytes, *, path: str = "<bytes>", deadline: float | None = None
) -> tuple[Trace, DecodeReport]:
    """Decode one trace-cache blob.

    Raises a :class:`TraceDecodeError` subclass on any failure; ``deadline``
    is a ``time.monotonic()`` timestamp bounding the decode.
    """
    report = DecodeReport(path=path)
    if len(data) < _HEADER.size + 1:
        raise TruncatedTrace(f"{path}: {len(data)} bytes is shorter than the version header")
    (version,) = _HEADER.unpack_from(data)
    salvageable = data[0] == TRACE_VERSION and data.find(_BODY_LANDMARK, 0, _LANDMARK_WINDOW) >= 0

    if version == TRACE_VERSION:
        try:
            trace = _validate(_RestrictedUnpickler(io.BytesIO(data[_HEADER.size :])).load())
            return trace, report
        except TraceDecodeError:
            if not salvageable:
                raise
        except EOFError as exc:
            if not salvageable:
                raise TruncatedTrace(f"{path}: pickle body ends early: {exc}") from exc
        except Exception as exc:
            if not salvageable:
                raise SchemaMismatch(f"{path}: undecodable v4 body: {exc}") from exc
        report.notes.append("clean_decode_failed")
    elif not salvageable:
        raise BadHeader(
            f"{path}: version header is {version:#x}, expected {TRACE_VERSION} "
            "and no salvageable body signature found"
        )
    else:
        report.notes.append("mangled_header")

    report.mode = "salvage"
    trace = _salvage_decode(data, path, deadline, report)
    return _validate(trace), report


def read_trace(path, *, deadline: float | None = None) -> tuple[Trace, DecodeReport]:
    """Read and decode one trace file.  OSError propagates (retryable)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_trace(data, path=str(path), deadline=deadline)


# ---------------------------------------------------------------------------
# salvage parser
# ---------------------------------------------------------------------------


def _expect(data: bytes, pattern: bytes, start: int, end: int | None, what: str) -> int:
    i = data.find(pattern, start, end)
    if i >= 0:
        return i
    if end is None or end > len(data):
        raise TruncatedTrace(f"trace body ends before {what}")
    raise SchemaMismatch(f"cannot locate {what}")


def _ascii(data: bytes, start: int, length: int, what: str) -> str:
    raw = data[start : start + length]
    if len(raw) < length:
        raise TruncatedTrace(f"trace body ends inside {what}")
    if raw.translate(None, _PRINTABLE):
        raise SchemaMismatch(f"{what} contains non-printable bytes")
    return raw.decode("ascii")


def _check_deadline(deadline: float | None, what: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise DecodeTimeout(f"decode exceeded its time budget during {what}")


def _parse_int_field(seg: bytes, what: str, notes: list[str], *, lenient: bool = False) -> int:
    """Parse a pickled int whose payload bytes may have been deleted.

    ``seg`` runs from the opcode byte up to the next field landmark.
    """
    if not seg:
        raise SchemaMismatch(f"{what} value is missing")
    op, payload = seg[:1], seg[1:]
    if op == b"K":  # BININT1
        if not payload:
            raise SchemaMismatch(f"{what}: BININT1 payload missing")
        return payload[0]
    if op == b"M":  # BININT2
        if len(payload) >= 2:
            return struct.unpack("<H", payload[:2])[0]
        notes.append(f"{what}_low_byte_only")
        return payload[0] if payload else 0
    if op == b"J":  # BININT (i32)
        if len(payload) >= 4:
            return struct.unpack("<i", payload[:4])[0]
        if not payload:
            # all four bytes were >= 0x80 and got deleted; the only small
            # int with that encoding is -1 (0xffffffff)
            notes.append(f"{what}_bytes_stripped_assumed_-1")
            return -1
        if lenient:
            # some payload bytes were deleted so their positions are unknown;
            # the value is unrecoverable but the field is advisory
            notes.append(f"{what}_unrecoverable")
            return 0
        raise SchemaMismatch(f"{what}: BININT payload partially stripped")
    raise SchemaMismatch(f"{what}: unrecognized int encoding {op!r}")


def _name_at(data: bytes, p: int) -> str | None:
    """Decode a length-prefixed ASCII string at ``p``, or None if the bytes
    there do not form one."""
    if p >= len(data):
        return None
    c = data[p]
    if not (1 <= c <= 0x7F):
        return None
    raw = data[p + 1 : p + 1 + c]
    if len(raw) < c or raw.translate(None, _PRINTABLE):
        return None
    return raw.decode("ascii")


_RESYNC_WINDOW = 256


def _parse_stat_names(data: bytes, p: int, notes: list[str]) -> tuple[list[str], int]:
    """Parse the length-prefixed stat-name list; returns (names, meta_pos).

    The pickler emits a protocol-4 FRAME marker (``\\x95`` + u64 length)
    roughly every 64 KiB; after byte stripping its residue (one byte plus a
    run of zeros) lands between names, so unparseable stretches are skipped
    by resyncing to the next plausible entry.
    """
    names: list[str] = []
    while True:
        if p >= len(data):
            raise TruncatedTrace("trace body ends inside stat_names list")
        c = data[p]
        if c == 0x65:  # 'e' APPENDS -- closes a batch of up to 1000 items
            if data[p + 1 : p + 2] == b"(":  # next batch opens immediately
                p += 2
                continue
            if data[p + 1 : p + 6] == b"\x04meta":
                return names, p + 1
        name = _name_at(data, p)
        if name is None:
            limit = min(len(data), p + _RESYNC_WINDOW)
            q = p + 1
            while q < limit and _name_at(data, q) is None and not (
                data[q] == 0x65 and data[q + 1 : q + 6] == b"\x04meta"
            ):
                q += 1
            if q >= limit:
                raise SchemaMismatch(
                    f"stat_names list unparseable past entry #{len(names)}"
                )
            notes.append(f"stat_names_resync@{len(names)}")
            p = q
            continue
        names.append(name)
        p += 1 + c


_META_WIDTHS = {b"K": 1, b"M": 2, b"J": 4, b"G": 8}


def _meta_boundary(data: bytes, q: int) -> bool:
    """Does position ``q`` look like the start of the next meta key or the
    dict terminator?"""
    if q >= len(data):
        return False
    c = data[q]
    if c in (0x75, 0x62, 0x2E, 0x68):  # u SETITEMS / b BUILD / . STOP / h memo key
        return True
    if 1 <= c <= 0x40:
        raw = data[q + 1 : q + 1 + c]
        return len(raw) == c and not raw.translate(None, _PRINTABLE)
    return False


def _parse_meta(data: bytes, p: int, notes: list[str]) -> dict:
    """Best-effort parse of the trailing ``meta`` dict.  Values whose bytes
    were stripped are recorded as None; structural surprises end the parse
    with a note rather than an error -- meta is advisory."""
    meta: dict = {}
    if data[p : p + 5] != b"\x04meta":
        notes.append("meta_missing")
        return meta
    p += 5
    if data[p : p + 1] != b"}":
        notes.append("meta_malformed")
        return meta
    p += 1
    if data[p : p + 1] == b"(":
        p += 1
    while p < len(data):
        c = data[p]
        if c in (0x75, 0x62, 0x2E):
            return meta
        if c == 0x68:  # memoized key: referent unknown after byte stripping
            notes.append("meta_memo_key_skipped")
            key = None
            p += 2
        elif 1 <= c <= 0x40:
            try:
                key = _ascii(data, p + 1, c, "meta key")
            except TraceDecodeError:
                notes.append("meta_parse_stopped")
                return meta
            p += 1 + c
        else:
            notes.append("meta_parse_stopped")
            return meta
        op = data[p : p + 1]
        if op == b"N":
            value: object = None
            p += 1
        elif op in _META_WIDTHS:
            width = _META_WIDTHS[op]
            survived = next(
                (k for k in range(width, -1, -1) if _meta_boundary(data, p + 1 + k)), None
            )
            if survived is None:
                notes.append("meta_parse_stopped")
                return meta
            raw = data[p + 1 : p + 1 + survived]
            if survived == width:
                if op == b"K":
                    value = raw[0]
                elif op == b"M":
                    value = struct.unpack("<H", raw)[0]
                elif op == b"J":
                    value = struct.unpack("<i", raw)[0]
                else:
                    value = struct.unpack(">d", raw)[0]
            else:
                value = None
                notes.append("meta_value_degraded")
            p += 1 + survived
        else:
            notes.append("meta_parse_stopped")
            return meta
        if key is not None:
            meta[key] = value
    notes.append("meta_unterminated")
    return meta


def _salvage_decode(
    data: bytes, path: str, deadline: float | None, report: DecodeReport
) -> Trace:
    notes = report.notes
    _check_deadline(deadline, "salvage header scan")

    # --- scalar fields, located by their ASCII key landmarks -------------
    pi = _expect(data, b"\x07program", 0, _LANDMARK_WINDOW + 64, "program field")
    if pi + 9 > len(data):
        raise TruncatedTrace("trace body ends inside program field")
    program = _ascii(data, pi + 9, data[pi + 8], "program name")
    cursor = pi + 9 + data[pi + 8]

    li = _expect(data, b"\x05label", cursor, cursor + 64, "label field")
    ai = _expect(data, b"\x0cattack_class", li, li + 96, "attack_class field")
    label = _parse_int_field(data[li + 6 : ai], "label", notes)

    ii = _expect(data, b"\x08interval", ai, ai + 96, "interval field")
    seg = data[ai + 13 : ii]
    if not seg:
        raise SchemaMismatch("attack_class value is missing")
    if seg[:1] == b"N":
        attack_class: str | None = None
    elif seg[:1] in (b"h", b"j"):
        # memo reference; the only string memoized before this point is the
        # program name
        attack_class = program
    else:
        attack_class = _ascii(data, ai + 14, seg[0], "attack_class")

    ri = _expect(data, b"\x04rows", ii + 9, ii + 9 + 64, "rows field")
    interval = _parse_int_field(data[ii + 9 : ri], "interval", notes, lenient=True)

    # --- array header ----------------------------------------------------
    ni = _expect(data, b"\x07ndarray", ri, ri + 96, "ndarray constructor")
    si = _expect(data, b"R(K\x01", ni, ni + 64, "array state")
    di = _expect(data, b"\x05dtype", si + 4, si + 4 + 48, "array dtype")
    shape_seg = data[si + 4 : di]
    if shape_seg[-2:-1] == b"h":  # trailing BINGET of the memoized "numpy"
        shape_seg = shape_seg[:-2]
    if shape_seg[:1] != b"K" or len(shape_seg) < 2:
        raise SchemaMismatch(f"unrecognized array shape encoding {shape_seg!r}")
    n_intervals = shape_seg[1]
    n_features: int | None = None
    dim2 = shape_seg[2:]
    if dim2[:1] == b"M" and len(dim2) >= 3:
        n_features = struct.unpack("<H", dim2[1:3])[0]
    elif dim2[:1] == b"K" and len(dim2) >= 2:
        n_features = dim2[1]
    # else: the BININT2 payload lost a byte; recovered from stat_names below

    ti = _expect(data, b"NNNJJK\x00tb", di, di + 96, "dtype state")
    bpos = ti + 9
    if data[bpos : bpos + 1] != b"B":
        raise SchemaMismatch("rows payload opcode missing")

    end_i = _expect(data, b"tb\nstat_names](", bpos, None, "stat_names section")
    stat_names, meta_pos = _parse_stat_names(data, end_i + 15, notes)
    meta = _parse_meta(data, meta_pos, notes)

    if stat_names:
        if n_features is not None and n_features != len(stat_names):
            raise SchemaMismatch(
                f"shape says {n_features} features but {len(stat_names)} stat names"
            )
        n_features = len(stat_names)
    if n_features is None:
        raise SchemaMismatch("feature count unrecoverable (shape stripped, no stat names)")
    if not (1 <= n_intervals <= _MAX_DIM and 1 <= n_features <= _MAX_DIM):
        raise SchemaMismatch(f"implausible array shape ({n_intervals}, {n_features})")
    count = n_intervals * n_features
    if count > _MAX_CELLS:
        raise SchemaMismatch(f"array of {count} cells exceeds the decode-bomb guard")

    # --- float payload ---------------------------------------------------
    # Up to 4 declared-length bytes survive after 'B'; prefer an exact match
    # against the expected byte count, otherwise pick the start offset whose
    # leading floats score as most plausible.
    start = None
    if len(data) >= bpos + 5 and struct.unpack("<I", data[bpos + 1 : bpos + 5])[0] == count * 8:
        start = bpos + 5
    else:
        notes.append("payload_length_field_degraded")
        best_score = -1
        for k in range(5):
            cand = bpos + 1 + k
            if cand > end_i:
                break
            score = _score_alignment(data[cand:end_i], 0)
            if score > best_score:
                best_score, start = score, cand
    if start is None:
        raise TruncatedTrace("rows payload is empty")

    _check_deadline(deadline, "payload salvage")
    values, srep = salvage_f64(data[start:end_i], count, deadline=deadline)
    report.salvage = srep
    if srep.nan_fraction > 0.5:
        notes.append("payload_mostly_unrecoverable")

    return Trace(
        program=program,
        label=label,
        attack_class=attack_class,
        interval=interval,
        rows=values.reshape(n_intervals, n_features),
        stat_names=stat_names or None,
        meta=meta,
    )
