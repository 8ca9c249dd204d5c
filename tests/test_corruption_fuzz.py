"""Corruption fuzzing against real trace-cache files.

The contract under test: whatever damage the bytes suffer, ``decode_trace``
either returns a plausible Trace or raises a ``TraceDecodeError`` subclass.
No bare ``Exception``, no ``ValueError`` from numpy, no hangs.  The ingest
layer then turns those typed failures into quarantine entries instead of
crashing the corpus walk.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import write_synthetic_corpus
from repro.errors import TraceDecodeError
from repro.ingest import QuarantineManifest, load_corpus_pooled
from repro.sim.trace import decode_trace

#: files fuzzed per run; the corpus is sampled with a stride so multiple
#: programs and both attack/benign captures are covered
N_FILES = 6
MUTATIONS_PER_FILE = 8
DECODE_BUDGET_S = 20.0


def _decode_or_typed_error(data: bytes, label: str) -> None:
    deadline = time.monotonic() + DECODE_BUDGET_S
    try:
        trace, _ = decode_trace(data, path=label, deadline=deadline)
    except TraceDecodeError:
        return  # typed failure: exactly what the contract promises
    except Exception as exc:  # pragma: no cover - this is the bug detector
        pytest.fail(f"{label}: untyped {type(exc).__name__}: {exc}")
    else:
        assert trace.rows.ndim == 2, f"{label}: decoded to malformed rows"
        assert trace.label in (-1, 1), f"{label}: decoded to bad label"


@pytest.fixture(scope="module")
def fuzz_targets(real_trace_paths):
    stride = max(1, len(real_trace_paths) // N_FILES)
    return [(p, p.read_bytes()) for p in real_trace_paths[::stride][:N_FILES]]


def test_truncation_at_random_offsets(fuzz_targets):
    rng = random.Random(0xBEEF)
    for path, data in fuzz_targets:
        cuts = [0, 1, 7, 8, 9] + [rng.randrange(len(data)) for _ in range(MUTATIONS_PER_FILE)]
        for cut in cuts:
            _decode_or_typed_error(data[:cut], f"{path.name}[:{cut}]")


def test_random_byte_flips(fuzz_targets):
    rng = random.Random(0xF00D)
    for path, data in fuzz_targets:
        for trial in range(MUTATIONS_PER_FILE):
            buf = bytearray(data)
            for _ in range(rng.randint(1, 128)):
                buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
            _decode_or_typed_error(bytes(buf), f"{path.name}#flip{trial}")


def test_random_byte_deletions(fuzz_targets):
    """Deletion mirrors the damage the seed corpus actually suffered."""
    rng = random.Random(0xD00D)
    for path, data in fuzz_targets:
        for trial in range(MUTATIONS_PER_FILE):
            buf = bytearray(data)
            for _ in range(rng.randint(1, 12)):
                if len(buf) < 2:
                    break
                start = rng.randrange(len(buf) - 1)
                del buf[start : start + rng.randint(1, 32)]
            _decode_or_typed_error(bytes(buf), f"{path.name}#del{trial}")


def test_ingest_quarantines_instead_of_crashing(tmp_path, fuzz_targets):
    """A corpus with smashed files alongside good ones loads the good ones
    and quarantines the rest with typed reasons."""
    corpus = tmp_path / "corpus"
    good = write_synthetic_corpus(corpus, n_benign=2, n_attack=2)
    rng = random.Random(1)
    _, real_bytes = fuzz_targets[0]
    bad_variants = {
        "smashed_header.pkl": b"\x00" * 64,
        "truncated.pkl": real_bytes[: len(real_bytes) // 3],
        "empty.pkl": b"",
        "noise.pkl": bytes(rng.randrange(256) for _ in range(4096)),
    }
    for name, payload in bad_variants.items():
        (corpus / name).write_bytes(payload)

    results, manifest = load_corpus_pooled(corpus, decode_timeout_s=DECODE_BUDGET_S)

    assert len(results) >= len(good)  # every clean file survived
    assert isinstance(manifest, QuarantineManifest)
    quarantined = {e.path.rsplit("/", 1)[-1] for e in manifest.entries}
    # the outright-hopeless files must be quarantined, not raised
    assert "smashed_header.pkl" in quarantined
    assert "empty.pkl" in quarantined
    for entry in manifest.entries:
        assert entry.code in {
            "bad_header",
            "truncated",
            "schema_mismatch",
            "decode_timeout",
            "decode_error",
            "retry_exhausted",
        }
        assert entry.error  # exception class name captured
