"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are result files written by ``run.py`` (under
``.bench_work/results/`` or wherever ``--result`` put them), or directories
of them.  For every workload in both sets it prints each end-to-end
metric's median, quartile spread and change against ``BENCHMARK.json``'s
bound.  It refuses (exit 2) to compare sets whose runs of one workload and
seed were made from different inputs, and exits 1 when a metric got worse
by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from common import ROOT, median


def load_set(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = [json.loads(f.read_text()) for f in files]
    return [d for d in docs if "provenance" in d and d.get("trace") == 0]


#: the only input that follows the workload seed; every other input of a
#: workload is fixed and must match across both sets
SEEDED_INPUT = "traffic_corpus_digest"


def input_clashes(base: list[dict], new: list[dict]) -> list[str]:
    """Runs whose inputs differ: same workload and seed with other inputs,
    or another fixed (seed-independent) input for the same workload."""
    by_run: dict[tuple[str, int], str] = {}
    fixed: dict[str, str] = {}
    clashes = []
    for doc in base + new:
        prov = doc["provenance"]
        workload, inputs = prov["workload"], prov["inputs"]
        run_key = json.dumps(inputs, sort_keys=True)
        fixed_key = json.dumps({k: v for k, v in inputs.items() if k != SEEDED_INPUT},
                               sort_keys=True)  # fmt: skip
        if by_run.setdefault((workload, prov["seed"]), run_key) != run_key or (
            fixed.setdefault(workload, fixed_key) != fixed_key
        ):
            clashes.append(f"{workload} seed {prov['seed']}")
    return sorted(set(clashes))


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q[2] - q[0]) / mid if mid else float("inf")


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[int, list[str]]:
    """(exit code, report lines)."""
    clashes = input_clashes(base, new)
    if clashes:
        return 2, ["refusing to compare: inputs differ for " + ", ".join(clashes)]
    lines = []
    worse = False
    workloads = sorted(
        {d["provenance"]["workload"] for d in base} & {d["provenance"]["workload"] for d in new}
    )
    for workload in workloads:
        lines.append(f"{workload}:")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [d["end_to_end"][name] for d in base if d["provenance"]["workload"] == workload]
            n = [d["end_to_end"][name] for d in new if d["provenance"]["workload"] == workload]
            mb, mn = median(b), median(n)
            change = (mn - mb) / mb if mb else 0.0
            loss = change if metric["better"] == "lower" else -change
            if loss > bound:
                verdict = "WORSE"
                worse = True
            elif max(spread(b), spread(n)) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(
                f"  {name:16s} {mb:12.5g} -> {mn:12.5g} {metric['unit']:8s} "
                f"{change:+7.1%} (bound {bound:.0%}, spread {spread(b):.1%}/{spread(n):.1%}) "
                f"{verdict}"
            )
    return (1 if worse else 0), lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, lines = compare(load_set(argv[0]), load_set(argv[1]), spec)
    print("\n".join(lines), file=sys.stderr if code == 2 else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
