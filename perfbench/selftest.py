"""Self-tests of the benchmark, on toy-sized inputs (about a minute).

    python3 perfbench/selftest.py

For every workload, in ``--quick`` mode:

1. an untraced run emits every end-to-end metric of ``BENCHMARK.json`` with
   its unit, and a traced run every per-layer metric;
2. the traced pipeline run's span self times add up to its wall time, and
   each served request's components add up to its client latency.  Both
   sums hold by construction (``pipeline.startup`` and three serve
   components are residuals), so what catches a misattributed span is that
   no self time and no request component is negative;
3. ``trace.overhead_s`` is reported;
4. a run whose reference verdict was flipped counts a failed operation.

It also checks that ``compare.py`` refuses result sets made from different
inputs.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, ROOT, WORK
from compare import compare
from workloads import WORKLOADS

#: the daemon reports ``latency_ms`` rounded to the microsecond, so a
#: residual component can read this far below zero
SERVE_ROUNDING_MS = 0.001


def run(workload: str, trace: int, result: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--quick", "--result", str(result),
           *extra]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(line: dict, expected: list[dict]) -> list[str]:
    problems = []
    for metric in expected:
        got = line["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: missing or wrong unit ({got})")
    extra = set(line["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def check_workload(workload: str, spec: dict, tmp: Path) -> list[str]:
    problems = []
    line = run(workload, 0, tmp / f"{workload}-0.json")
    problems += check_metrics(line, spec["end_to_end"])
    if not line["correct"] or line["failed"]:
        problems.append(f"untraced run not correct: {line['failed']} failed")
    line = run(workload, 1, tmp / f"{workload}-1.json")
    problems += check_metrics(line, spec["per_layer"])
    if "trace.overhead_s" not in line["metrics"]:
        problems.append("trace.overhead_s not reported")
    details = json.loads((tmp / f"{workload}-1.json").read_text())["details"]
    traced = details["pipeline_trace"]
    if abs(traced["span_sum_s"] - traced["wall_s"]) > 1e-6 * traced["wall_s"]:
        problems.append(f"span self times {traced['span_sum_s']} != wall {traced['wall_s']}")
    if traced["min_self_s"] < 0:
        problems.append(f"negative span self time {traced['min_self_s']}")
    if details["serve_trace"]["component_gap_ms"] > 0.01:
        problems.append(f"serve components off by {details['serve_trace']['component_gap_ms']} ms")
    negative = {name: ms for name, ms in details["serve_trace"]["min_ms"].items()
                if ms < -SERVE_ROUNDING_MS}  # fmt: skip
    if negative:
        problems.append(f"negative serve components {negative}")
    line = run(workload, 0, tmp / f"{workload}-flip.json", "--flip-reference")
    if line["correct"] or line["failed"] < 1:
        problems.append("a flipped reference verdict was not counted as a failure")
    return problems


def check_compare(tmp: Path, spec: dict) -> list[str]:
    doc = json.loads((tmp / "serve_open_loop-0.json").read_text())
    other = copy.deepcopy(doc)
    other["provenance"]["inputs"]["corpus_digest"] = "0" * 64
    problems = []
    if compare([doc], [doc], spec)[0] != 0:
        problems.append("compare.py rejected identical result sets")
    if compare([doc], [other], spec)[0] != 2:
        problems.append("compare.py compared result sets made from different inputs")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in sorted(WORKLOADS):
            problems = check_workload(workload, spec, Path(tmp))
            print(f"{workload}: {'ok' if not problems else '; '.join(problems)}")
            failures += bool(problems)
        problems = check_compare(Path(tmp), spec)
        print(f"compare: {'ok' if not problems else '; '.join(problems)}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
