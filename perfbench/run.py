"""Benchmark entry point.

    python3 perfbench/run.py --workload pipeline_warm --seed 1 --seconds 16 --trace 0

Runs one workload from inputs made from ``--seed``, checks every output
against its reference, writes the full result (provenance, per-run and
per-step figures, failures) under ``.bench_work/results/``, and prints as
its last line ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer
metrics (``--trace 1``).  ``--quick`` runs toy-sized inputs (self-tests).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

from common import (
    ROOT,
    SRC,
    WORK,
    BenchError,
    cpu_jiffies,
    provenance,
    require_program,
    steal_share,
    write_json,
)
from workloads import WORKLOADS, Ctx, Outcome


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="toy-sized inputs")
    parser.add_argument("--result", default=None, help="write the full result here")
    # self-test only: corrupt one reference verdict, which must count as a failure
    parser.add_argument("--flip-reference", action="store_true", help=argparse.SUPPRESS)
    return parser


def run(args) -> int:
    require_program()
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        flip=args.flip_reference,
        work=work,
    )
    outcome = Outcome()
    jiffies = cpu_jiffies()
    try:
        result = WORKLOADS[args.workload](ctx, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    from repro.model import _native  # loaded by the in-process reference scoring

    section = "per_layer" if args.trace else "end_to_end"
    values = result.layers if args.trace else result.e2e
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec[section]}  # fmt: skip
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise BenchError(f"metrics not finite: {bad}")
    doc = {
        "provenance": provenance(args.workload, args.seed, _native.available(), result.inputs)
        | {"host_steal_share": steal_share(jiffies)},
        "trace": args.trace,
        "seconds": args.seconds,
        "quick": args.quick,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "end_to_end": result.e2e,
        "per_layer": result.layers,
        "details": result.details,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path = Path(args.result) if args.result else WORK / "results" / name
    write_json(path, doc)
    for failure in outcome.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"result: {path}", file=sys.stderr)
    line = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a terminated run still stops its daemons and child processes and
    # removes its work directory, on the way out of SystemExit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
