"""Property-based differential test of the float64 salvage decoder.

Generated payloads -- special values, raw bit patterns and counter-like
values, then byte deletions, UTF-8 round trips, inserted 8-byte frame
headers and trailing junk, with ``count`` below, at and above the floats
available -- must decode exactly as ``reference_salvage_f64`` (the original
quadratic loop, kept in ``test_salvage.py``) decodes them.

Runs derandomized so CI is stable; bump ``max_examples`` locally to dig.
"""

from __future__ import annotations

import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from test_salvage import assert_matches_reference, utf8_round_trip  # noqa: E402

_SPECIAL_VALUES = (
    0.0,
    -0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    5e-324,  # smallest subnormal
    2.2e-308,  # subnormal
    1e-13,  # just below the envelope
    1e-12,
    1e15,
    1.0000000000000002e15,  # just above the envelope
    -1e16,
    -3.5,
    1.0,
    255.0,
)
_values = st.one_of(
    st.sampled_from(_SPECIAL_VALUES),
    st.integers(min_value=1, max_value=10**9).map(float),
    st.floats(width=64),
    # raw bit patterns: NaN payloads and every exponent
    st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
    ),
)
_damage = st.one_of(
    st.tuples(st.just("utf8")),
    st.tuples(st.just("strip_high"), st.integers(0, 600), st.integers(1, 200)),
    st.tuples(st.just("drop"), st.integers(0, 600), st.integers(1, 12)),
    st.tuples(
        st.just("frame"),
        st.integers(0, 600),
        st.binary(min_size=7, max_size=7).map(lambda rest: b"\x95" + rest),
    ),
    st.tuples(st.just("junk"), st.binary(min_size=1, max_size=15)),
)


def _apply(buf: bytes, op: tuple) -> bytes:
    kind = op[0]
    if kind == "utf8":
        return utf8_round_trip(buf)
    if kind == "junk":
        return buf + op[1]
    at = op[1] % (len(buf) + 1)
    if kind == "strip_high":
        span = op[2]
        return buf[:at] + bytes(b for b in buf[at : at + span] if b < 0x80) + buf[at + span :]
    if kind == "drop":
        return buf[:at] + buf[at + op[2] :]
    return buf[:at] + op[2] + buf[at:]  # frame


@st.composite
def damaged_payloads(draw) -> tuple[bytes, int]:
    values = draw(st.lists(_values, max_size=60))
    buf = struct.pack(f"<{len(values)}d", *values)
    for op in draw(st.lists(_damage, max_size=5)):
        buf = _apply(buf, op)
    anchor = draw(st.sampled_from((0, len(values), len(buf) // 8)))
    count = max(0, anchor + draw(st.integers(min_value=-3, max_value=3)))
    return buf, count


@given(payload=damaged_payloads())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_damaged_payloads_match_reference(payload):
    assert_matches_reference(*payload)


@given(buf=st.binary(max_size=90), count=st.integers(min_value=0, max_value=14))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_arbitrary_bytes_match_reference(buf, count):
    assert_matches_reference(buf, count)
