#!/usr/bin/env python3
"""(Re)generate the per-capture decode digests of the committed corpus.

Decodes every ``.trace_cache/*.pkl`` capture (each one goes through the
salvage decoder) and records one sha256 per file in
``salvage_digests.json``.  Each digest covers the decoded rows bytes, the
``DecodeReport`` (as JSON, salvage counters included), the salvage notes and
every scalar field of the trace.  ``tests/test_salvage.py`` asserts the
decoder keeps reproducing them exactly.

Run from the repository root after an *intentional* change to what the
decoder recovers::

    PYTHONPATH=src python tests/fixtures/make_salvage_digests.py

and commit the diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.trace import decode_trace  # noqa: E402

TRACE_CACHE = REPO_ROOT / ".trace_cache"
DIGESTS = HERE / "salvage_digests.json"


def _plain(obj):
    # numpy scalars hash as the Python number they hold, so a counter's
    # type can change without moving the digest
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not part of a decode digest")


def capture_digest(data: bytes, name: str) -> str:
    """sha256 over everything the decoder recovers from one capture."""
    trace, report = decode_trace(data, path=name)
    fields = {
        "report": report.describe(),
        "salvage_notes": report.salvage.notes if report.salvage is not None else None,
        "shape": list(trace.rows.shape),
        "program": trace.program,
        "label": trace.label,
        "attack_class": trace.attack_class,
        "interval": trace.interval,
        "stat_names": trace.stat_names,
        "meta": trace.meta,
    }
    h = hashlib.sha256(np.ascontiguousarray(trace.rows, dtype="<f8").tobytes())
    h.update(json.dumps(fields, sort_keys=True, default=_plain).encode("utf-8"))
    return h.hexdigest()


def corpus_digests() -> dict[str, str]:
    paths = sorted(TRACE_CACHE.glob("*.pkl"))
    return {p.name: capture_digest(p.read_bytes(), p.name) for p in paths}


def main() -> int:
    digests = corpus_digests()
    if not digests:
        print(f"no captures under {TRACE_CACHE}", file=sys.stderr)
        return 2
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
