"""Best-effort recovery of float64 payloads from lossy byte streams.

The seed trace corpus was captured by a tool that passed every file through
a UTF-8 decode/encode round trip with ``errors="ignore"``.  Pure-ASCII bytes
(< 0x80) survived, bytes that happened to form valid UTF-8 sequences
survived, and every other byte was silently *deleted*.  For the pickled
float64 matrices this means a small percentage of bytes are simply missing,
which shifts the alignment of everything that follows.

:func:`salvage_f64` re-aligns such a stream greedily: it decodes 8-byte
chunks while they look like plausible hardware-counter values, and on the
first implausible chunk it searches a small window of "bytes dropped here" /
"frame header inserted here" hypotheses, scoring each by how many of the
following floats become plausible again.  Unrecoverable values are emitted
as NaN so the feature layer can impute them; they are never invented.

The decode is linear in the buffer.  Before the walk, the buffer is decoded
once at each of the 8 byte offsets, in bounded chunks, into two uint8
tables with one entry per byte position, stored lane by lane (the entries
for positions ``o, o+8, o+16, ...`` sit next to each other): whether the
float starting there is plausible, and how many of the ``_LOOKAHEAD``
floats starting there are.  A plausible run is then one ``bytearray.find``
for the next zero along the current lane, which costs O(its length), and
each resync hypothesis is one lookup in the score table.  Peak memory is
about three times the buffer: the output and the two tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import DecodeTimeout

# Plausibility envelope for gem5-style counter values.  Anything outside is
# assumed to be a misaligned decode.  Zero is by far the most common value.
_ABS_MIN = 1e-12
_ABS_MAX = 1e15

#: candidate resync hypotheses, in preference order:
#:  +d  -> d bytes were dropped inside the current float (value lost)
#:  -8  -> an 8-byte pickle frame header was inserted into the stream
_SHIFTS = (1, 2, 3, 4, 5, 6, 7, -8, 8, 9, 10, 11, 12)
_LOOKAHEAD = 6

#: floats per plausibility batch while building the tables; bounds the
#: float64 and bool temporaries to about 100 KB whatever the buffer size
_TABLE_CHUNK = 1 << 13


@dataclass
class SalvageReport:
    """Bookkeeping for one salvaged payload."""

    expected_floats: int = 0
    recovered_floats: int = 0
    nan_floats: int = 0
    resyncs: int = 0
    bytes_dropped: int = 0
    truncated: bool = False
    clean: bool = True
    notes: list[str] = field(default_factory=list)

    @property
    def nan_fraction(self) -> float:
        if self.expected_floats == 0:
            return 0.0
        return self.nan_floats / self.expected_floats

    def describe(self) -> dict:
        return {
            "expected_floats": self.expected_floats,
            "recovered_floats": self.recovered_floats,
            "nan_floats": self.nan_floats,
            "nan_fraction": round(self.nan_fraction, 6),
            "resyncs": self.resyncs,
            "bytes_dropped": self.bytes_dropped,
            "truncated": self.truncated,
            "clean": self.clean,
        }


def _plausible(values: np.ndarray) -> np.ndarray:
    a = np.abs(values)
    return np.isfinite(values) & ((values == 0.0) | ((a >= _ABS_MIN) & (a <= _ABS_MAX)))


def _score_alignment(buf: bytes, pos: int) -> int:
    """How many of the next ``_LOOKAHEAD`` floats at ``pos`` look sane."""
    n = min(_LOOKAHEAD, (len(buf) - pos) // 8) if 0 <= pos else 0
    if n <= 0:
        return 0
    return int(_plausible(np.frombuffer(buf, dtype="<f8", count=n, offset=pos)).sum())


def _lane_tables(buf: bytes) -> tuple[bytearray, bytearray, int]:
    """Plausibility and lookahead-score tables for every byte position.

    Byte position ``p`` lives at index ``(p % 8) * stride + p // 8`` of both
    tables.  Each lane ends in at least ``_LOOKAHEAD`` zeros, so a float with
    fewer than ``_LOOKAHEAD`` floats after it scores only those that exist,
    and positions with no whole float left read as implausible and score 0.
    """
    n = len(buf)
    stride = n // 8 + _LOOKAHEAD
    plausible = bytearray(8 * stride)
    scores = bytearray(8 * stride)
    plausible_u8 = np.frombuffer(plausible, dtype=np.uint8)
    scores_u8 = np.frombuffer(scores, dtype=np.uint8)
    for offset in range(min(8, n)):
        base = offset * stride
        floats = (n - offset) // 8
        for i in range(0, floats, _TABLE_CHUNK):
            k = min(_TABLE_CHUNK, floats - i)
            chunk = np.frombuffer(buf, dtype="<f8", count=k, offset=offset + 8 * i)
            plausible_u8[base + i : base + i + k] = _plausible(chunk)
    # windows starting in a lane's last _LOOKAHEAD - 1 entries run into the
    # next lane; no position inside the buffer maps to those entries
    window = scores_u8[: scores_u8.size - _LOOKAHEAD + 1]
    window[:] = plausible_u8[: window.size]
    for k in range(1, _LOOKAHEAD):
        window += plausible_u8[k : k + window.size]
    return plausible, scores, stride


def salvage_f64(
    buf: bytes,
    count: int,
    *,
    deadline: float | None = None,
) -> tuple[np.ndarray, SalvageReport]:
    """Decode up to ``count`` little-endian float64 values from ``buf``.

    Returns the values (exactly ``count`` long, NaN-padded) together with a
    :class:`SalvageReport`.  Never raises on corrupt input; only
    :class:`~repro.errors.DecodeTimeout` can escape, when ``deadline`` (a
    ``time.monotonic()`` timestamp) is exceeded.
    """
    report = SalvageReport(expected_floats=count)
    out = np.full(count, np.nan, dtype=np.float64)
    size = len(buf)
    plausible, scores, stride = _lane_tables(buf)
    pos = 0
    emitted = 0

    while emitted < count:
        if deadline is not None and time.monotonic() > deadline:
            raise DecodeTimeout(
                f"salvage exceeded deadline after {emitted}/{count} floats"
            )
        n = min(count - emitted, (size - pos) // 8) if 0 <= pos else 0
        if n <= 0:
            break
        at = (pos & 7) * stride + (pos >> 3)
        bad = plausible.find(0, at, at + n)
        good = n if bad < 0 else bad - at
        if good > 0:
            out[emitted : emitted + good] = np.frombuffer(buf, dtype="<f8", count=good, offset=pos)
            emitted += good
            pos += 8 * good
        if bad < 0:
            # the plausible run filled the output or reached the buffer's end
            break

        # the float at pos is implausible: it is damaged.  Search resync
        # hypotheses; the damaged float itself is unrecoverable.
        report.clean = False
        report.resyncs += 1
        best_shift, best_score = None, -1
        base = pos + 8
        base_score = scores[(base & 7) * stride + (base >> 3)] if base < size else 0
        for shift in _SHIFTS:
            nxt = pos + 8 - shift if shift > 0 else pos + 8 + (-shift)
            if nxt > size:
                continue
            score = scores[(nxt & 7) * stride + (nxt >> 3)] if 0 <= nxt < size else 0
            if score > best_score:
                best_shift, best_score = shift, score
                if score == _LOOKAHEAD:
                    break  # no later hypothesis can score higher
        if best_shift is None or best_score <= base_score:
            # no hypothesis beats "just a weird value in place": skip one
            # float, keep alignment.
            out[emitted] = np.nan
            report.nan_floats += 1
            emitted += 1
            pos += 8
            continue
        out[emitted] = np.nan
        report.nan_floats += 1
        emitted += 1
        if best_shift > 0:
            report.bytes_dropped += best_shift
            pos += 8 - best_shift
        else:
            report.notes.append(f"inserted_bytes@{pos}")
            pos += 8 + (-best_shift)

    if emitted < count:
        missing = count - emitted
        report.nan_floats += missing
        report.truncated = True
        report.clean = False
        report.notes.append(f"short_payload:{missing}_floats_missing")
    report.recovered_floats = count - report.nan_floats
    return out, report
