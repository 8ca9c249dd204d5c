"""The float64 salvage decoder: pinned corpus output, a differential check
against the original quadratic loop, and bounds on time and memory.

``reference_salvage_f64`` below is the decoder as it was before the lane
tables: after every resync it decodes and re-checks the whole rest of the
buffer.  It is the oracle; ``repro.sim.salvage`` keeps only the linear
decoder, which must agree with it value for value (NaN bits included) and
report for report.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.errors import DecodeTimeout
from repro.sim.salvage import _LOOKAHEAD, _SHIFTS, SalvageReport, _plausible, salvage_f64
from repro.sim.trace import decode_trace

FIXTURES = Path(__file__).resolve().parent / "fixtures"

_spec = importlib.util.spec_from_file_location(
    "make_salvage_digests", FIXTURES / "make_salvage_digests.py"
)
make_salvage_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_salvage_digests)


# ---------------------------------------------------------------------------
# the oracle: the original loop, verbatim
# ---------------------------------------------------------------------------


def _decode_at(buf: bytes, pos: int, count: int) -> np.ndarray:
    if pos < 0 or pos >= len(buf):
        return np.empty(0, dtype=np.float64)
    avail = (len(buf) - pos) // 8
    n = min(count, max(avail, 0))
    if n <= 0:
        return np.empty(0, dtype=np.float64)
    return np.frombuffer(buf, dtype="<f8", count=n, offset=pos)


def _score_alignment(buf: bytes, pos: int) -> int:
    """How many of the next ``_LOOKAHEAD`` floats at ``pos`` look sane."""
    chunk = _decode_at(buf, pos, _LOOKAHEAD)
    if chunk.size == 0:
        return 0
    return int(_plausible(chunk).sum())


def reference_salvage_f64(
    buf: bytes,
    count: int,
    *,
    deadline: float | None = None,
) -> tuple[np.ndarray, SalvageReport]:
    report = SalvageReport(expected_floats=count)
    out = np.full(count, np.nan, dtype=np.float64)
    pos = 0
    emitted = 0

    while emitted < count:
        if deadline is not None and time.monotonic() > deadline:
            raise DecodeTimeout(
                f"salvage exceeded deadline after {emitted}/{count} floats"
            )
        chunk = _decode_at(buf, pos, count - emitted)
        if chunk.size == 0:
            break
        ok = _plausible(chunk)
        bad = np.argmin(ok) if not ok.all() else chunk.size
        if bad > 0:
            out[emitted : emitted + bad] = chunk[:bad]
            emitted += bad
            pos += 8 * bad
        if ok.all():
            if emitted >= count:
                break
            # plausible prefix consumed the whole buffer
            pos = len(buf)
            break

        # chunk[bad] is implausible: the current float is damaged.  Search
        # resync hypotheses; the damaged float itself is unrecoverable.
        report.clean = False
        report.resyncs += 1
        best_shift, best_score = None, -1
        base_score = _score_alignment(buf, pos + 8)
        for shift in _SHIFTS:
            nxt = pos + 8 - shift if shift > 0 else pos + 8 + (-shift)
            if nxt > len(buf):
                continue
            score = _score_alignment(buf, nxt)
            if score > best_score:
                best_shift, best_score = shift, score
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


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def utf8_round_trip(raw: bytes) -> bytes:
    """The damage the committed captures went through."""
    return raw.decode("utf-8", errors="ignore").encode("utf-8")


def damaged_counters(n_floats: int, seed: int = 0) -> bytes:
    """``n_floats`` counter-like values (80% zeros, the rest integers up to
    1e6) after the UTF-8 round trip: about one resync per 60 bytes, near the
    committed captures' one per 85."""
    rng = np.random.default_rng(seed)
    values = np.where(
        rng.random(n_floats) < 0.8, 0.0, rng.integers(1, 10**6, n_floats).astype(np.float64)
    )
    return utf8_round_trip(values.astype("<f8").tobytes())


def assert_matches_reference(buf: bytes, count: int) -> SalvageReport:
    got, report = salvage_f64(buf, count)
    want, expected = reference_salvage_f64(buf, count)
    assert got.tobytes() == want.tobytes()
    for f in dataclasses.fields(SalvageReport):
        assert getattr(report, f.name) == getattr(expected, f.name), f.name
    assert report.nan_fraction == expected.nan_fraction
    return report


# ---------------------------------------------------------------------------
# the committed corpus
# ---------------------------------------------------------------------------


def test_corpus_decodes_to_pinned_digests(real_trace_paths):
    expected = json.loads((FIXTURES / "salvage_digests.json").read_text())
    got = {
        p.name: make_salvage_digests.capture_digest(p.read_bytes(), p.name)
        for p in real_trace_paths
    }
    assert got == expected


def test_salvaged_capture_report_is_plain_json(real_trace_paths):
    path = real_trace_paths[0]
    _, report = decode_trace(path.read_bytes(), path=path.name)
    assert report.mode == "salvage" and report.salvage.resyncs > 0
    for f in dataclasses.fields(SalvageReport):
        value = getattr(report.salvage, f.name)
        assert type(value) in (int, bool, list), (f.name, type(value))
    assert type(report.salvage.nan_fraction) is float
    doc = json.loads(json.dumps(report.describe()))
    assert doc["salvage"]["nan_floats"] == report.salvage.nan_floats


# ---------------------------------------------------------------------------
# differential: the linear decoder against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_damaged_counters_match_reference(seed):
    n = 1500 + 37 * seed
    buf = damaged_counters(n, seed)
    for count in (0, n // 2, n, n + 25):
        assert_matches_reference(buf, count)


def test_edge_lengths_match_reference():
    for length in range(0, 40):
        buf = bytes(range(length))
        for count in (0, 1, length // 8, length // 8 + 1, 7):
            assert_matches_reference(buf, count)
        assert_matches_reference(b"\x00" * length, 5)


# ---------------------------------------------------------------------------
# deadline, time and memory
# ---------------------------------------------------------------------------


def test_past_deadline_raises_on_damaged_buffer():
    buf = damaged_counters(4000)
    with pytest.raises(DecodeTimeout):
        salvage_f64(buf, 4000, deadline=time.monotonic() - 1.0)


def test_six_megabyte_damaged_buffer_decodes_quickly():
    n = 6 * 2**20 // 8
    buf = damaged_counters(n, seed=1)
    started = time.monotonic()
    values, report = salvage_f64(buf, n, deadline=started + 60.0)
    elapsed = time.monotonic() - started
    assert report.resyncs > 50_000
    assert values.shape == (n,)
    assert elapsed < 10.0, f"6 MB salvage took {elapsed:.1f} s"


def test_memory_peak_is_bounded_by_the_buffer():
    n = 2**20 // 8
    buf = damaged_counters(n, seed=2)
    tracemalloc.start()
    try:
        salvage_f64(buf, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(buf), f"peak {peak / len(buf):.2f}x the buffer"
