#!/usr/bin/env python3
"""Audit a trace-cache corpus: per-class file counts, decode status, damage
statistics, and a machine-readable JSON report.

Usage::

    PYTHONPATH=src python tools/audit_trace_cache.py [--trace-dir .trace_cache]
        [--out audit_trace_cache.json] [--min-class-traces 4] [--quiet]

Exit status is 0 when every file decodes and every class meets the
representation floor, 1 when the audit found problems worth a look (decode
failures or underrepresented classes), 2 on operator error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.errors import TraceDecodeError  # noqa: E402
from repro.ingest import corpus_files  # noqa: E402
from repro.pipeline import _class_key  # noqa: E402
from repro.sim.trace import read_trace  # noqa: E402


def audit(trace_dir: Path, decode_timeout_s: float) -> dict:
    files = [Path(f.path) for f in corpus_files(trace_dir)]
    classes: dict[str, dict] = {}
    failures: list[dict] = []
    degraded = 0
    nan_fracs: list[float] = []

    for path in files:
        deadline = time.monotonic() + decode_timeout_s
        try:
            trace, report = read_trace(path, deadline=deadline)
        except TraceDecodeError as exc:
            failures.append(
                {"path": path.name, "code": exc.code, "error": type(exc).__name__,
                 "message": str(exc)}
            )
            continue
        except OSError as exc:
            failures.append(
                {"path": path.name, "code": "io_error", "error": type(exc).__name__,
                 "message": str(exc)}
            )
            continue

        rows = np.asarray(trace.rows, dtype=np.float64)
        nan_frac = float(np.mean(~np.isfinite(rows))) if rows.size else 1.0
        nan_fracs.append(nan_frac)
        if report.degraded:
            degraded += 1

        cell = classes.setdefault(
            _class_key(trace),
            {
                "kind": "attack" if trace.is_attack else "benign",
                "files": 0,
                "intervals": 0,
                "interval_lengths": set(),
                "nan_fracs": [],
                "degraded": 0,
            },
        )
        cell["files"] += 1
        cell["intervals"] += trace.n_intervals
        cell["interval_lengths"].add(trace.interval)
        cell["nan_fracs"].append(nan_frac)
        cell["degraded"] += int(report.degraded)

    for cell in classes.values():
        fracs = cell.pop("nan_fracs")
        cell["interval_lengths"] = sorted(cell["interval_lengths"])
        cell["mean_nan_frac"] = round(float(np.mean(fracs)), 4) if fracs else None

    return {
        "version": 1,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "trace_dir": str(trace_dir),
        "files": len(files),
        "decoded": len(files) - len(failures),
        "decode_failures": failures,
        "degraded_decodes": degraded,
        "mean_nan_frac": round(float(np.mean(nan_fracs)), 4) if nan_fracs else None,
        "classes": {key: classes[key] for key in sorted(classes)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=".trace_cache")
    parser.add_argument("--out", default="audit_trace_cache.json")
    parser.add_argument("--decode-timeout", type=float, default=30.0, metavar="SECONDS")
    parser.add_argument(
        "--min-class-traces",
        type=int,
        default=4,
        help="flag classes with fewer traces than this as underrepresented",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the table")
    args = parser.parse_args(argv)

    trace_dir = Path(args.trace_dir)
    if not trace_dir.is_dir():
        print(f"not a directory: {trace_dir}", file=sys.stderr)
        return 2

    report = audit(trace_dir, args.decode_timeout)
    underrepresented = [
        key
        for key, cell in report["classes"].items()
        if cell["files"] < args.min_class_traces
    ]
    report["underrepresented"] = underrepresented
    report["min_class_traces"] = args.min_class_traces

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    if not args.quiet:
        print(f"{report['decoded']}/{report['files']} files decoded "
              f"({report['degraded_decodes']} degraded, "
              f"mean NaN fraction {report['mean_nan_frac']})")
        width = max((len(k) for k in report["classes"]), default=10)
        for key, cell in report["classes"].items():
            flag = "  <-- underrepresented" if key in underrepresented else ""
            print(f"  {key:<{width}}  {cell['kind']:<6} files={cell['files']:<3} "
                  f"intervals={cell['intervals']:<4} "
                  f"nan={cell['mean_nan_frac']}{flag}")
        for failure in report["decode_failures"]:
            print(f"  DECODE FAILURE {failure['path']}: "
                  f"[{failure['code']}] {failure['message']}")
        print(f"report written to {args.out}")

    return 1 if (report["decode_failures"] or underrepresented) else 0


if __name__ == "__main__":
    sys.exit(main())
