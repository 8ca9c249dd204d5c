#!/usr/bin/env python3
"""Benchmark the pipeline: ingest caching/parallelism AND training kernels.

Runs ``repro.pipeline`` over the same corpus in two groups —

ingest group (varies decode path only):

1. ``cold_serial``    fresh cache, ``--workers 1`` (populates cache A)
2. ``warm_serial``    cache A again: every decode is a cache hit
3. ``cold_parallel``  fresh cache, ``--workers N`` (populates cache B)
4. ``warm_parallel``  cache B again, ``--workers N``

dataset-cache group (decode cache A warm, assembled-dataset tier varies):

5. ``warm_dataset_build``  decode cache warm, fresh dataset cache — pays
   assembly once and publishes the columnar entry
6. ``warm_dataset_cache``  dataset cache warm: ingest+featurize collapse to
   a key sweep + one ``np.load(mmap_mode="r")``

train group (cache A stays warm, training path varies):

7. ``warm_ref_train``  ``--fit-kernel reference`` — the naive per-sample
   spec; its ``train_s`` is the training baseline
8. ``warm_train_shm``  ``--train-workers N`` — pooled member training
   attaching to one shared-memory bins matrix

With ``--stage-corpus gen:COUNT[...]`` the report gains a ``stage_timings``
section: a deterministic synthetic corpus is generated, run cold (both
caches fresh), warm over the decode cache alone (the pre-dataset-cache warm
path), and warm over the dataset cache — recording per-stage wall clocks and
the ingest+featurize speedup of the mmap tier over the per-trace decode
tier, with all three runs required to agree on detection metrics exactly.

— then writes a machine-readable ``BENCH_pipeline.json`` (elapsed and
per-stage timings, speedup ratios, cache hit counts) so successive PRs have
a perf trajectory, and cross-checks consistency: every run must produce
*identical* detection metrics (cache, parallelism, and the online kernel
change wall-clock only).

Usage::

    PYTHONPATH=src python tools/bench_pipeline.py [--trace-dir .trace_cache]
        [--corpus DIR | --corpus gen:COUNT[:families=F1,F2][:seed=N]]
        [--workers 4] [--epochs 20] [--n-models 5] [--out runs/bench]
        [--json BENCH_pipeline.json] [--quick] [--check]

``--corpus`` benches an arbitrary corpus instead of the fixed 168-file set:
pass a directory (flat or ``repro.gen``-sharded), or a ``gen:`` spec that
materializes a deterministic synthetic corpus under ``--out`` first (e.g.
``gen:2000:families=attacks:seed=11``).  ``--quick`` shrinks epochs/models
for a fast CI smoke run; ``--check`` verifies the consistency rules without
writing the report.

Exit status: 0 on success, 1 when the runs disagree on detection metrics,
2 on operator error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from repro.telemetry import get_logger, log_event  # noqa: E402

logger = get_logger("repro.tools.bench")

BENCH_VERSION = 4

#: metrics fields that must be identical across every benchmarked run
_STABLE_KEYS = ("ingest", "dataset", "training", "metrics")


def _stable_view(metrics: dict) -> dict:
    view = {k: metrics[k] for k in _STABLE_KEYS}
    # cache hit counts legitimately differ between cold and warm runs
    view["ingest"] = {k: v for k, v in view["ingest"].items() if k != "cache"}
    return view


def _one_run(
    name: str, args, *, cache_dir: Path, out_root: Path, overrides: dict
) -> tuple[dict, dict]:
    config = PipelineConfig(
        trace_dir=args.trace_dir,
        out_dir=str(out_root / name),
        epochs=args.epochs,
        seed=args.seed,
        n_models=args.n_models,
        cache_dir=str(cache_dir),
        faults=FaultPlan.parse(args.faults) if args.faults else None,
        **overrides,
    )
    t0 = time.monotonic()
    metrics = run_pipeline(config)
    elapsed = time.monotonic() - t0
    row = {
        "workers": config.workers,
        "fit_kernel": config.fit_kernel,
        "train_workers": config.train_workers,
        "elapsed_s": round(elapsed, 3),
        "timings": metrics["timings"],
        "cache": metrics["ingest"].get("cache"),
        "dataset_cache": (
            {k: metrics["dataset_cache"][k] for k in ("hit",) if k in metrics["dataset_cache"]}
            if "dataset_cache" in metrics
            else None
        ),
        "loaded": metrics["ingest"]["loaded"],
        "quarantined": metrics["ingest"]["quarantined"],
        "trace_accuracy": metrics["metrics"]["trace_accuracy"],
    }
    log_event(
        logger,
        "bench.run",
        name=name,
        workers=config.workers,
        elapsed=f"{elapsed:.2f}",
        ingest=f"{metrics['timings']['ingest_s']:.2f}",
        train=f"{metrics['timings']['train_s']:.2f}",
    )
    return row, metrics


def _ratio(a: float, b: float) -> float:
    return round(a / b, 2) if b > 0 else float("inf")


def _materialize_gen(spec: str, dest: Path, *, seed: int, workers: int) -> str:
    """Generate the corpus a ``gen:COUNT[:families=...][:seed=N]`` spec
    describes under ``dest`` and return its path."""
    from repro.gen import generate_corpus

    parts = spec.split(":")[1:]
    if not parts or not parts[0].isdigit():
        raise ValueError(f"bad corpus spec {spec!r}: want gen:COUNT[...]")
    count = int(parts[0])
    families: object = "all"
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if key == "families" and value:
            families = [f for f in value.split(",") if f]
        elif key == "seed" and value:
            seed = int(value)
        else:
            raise ValueError(f"bad corpus option {part!r}")
    report = generate_corpus(
        dest, families=families, count=count, seed=seed, workers=workers
    )
    log_event(
        logger,
        "bench.gen_corpus",
        out=str(dest),
        count=report.count,
        digest=report.corpus_digest[:12],
        elapsed=f"{report.elapsed_s:.2f}",
    )
    return str(dest)


def _resolve_corpus(args, out_root: Path) -> str:
    """Apply ``--corpus``: a directory overrides ``--trace-dir``; a
    ``gen:COUNT[:families=...][:seed=N]`` spec materializes a deterministic
    synthetic corpus under ``--out`` first."""
    if args.corpus is None:
        return args.trace_dir
    if not args.corpus.startswith("gen:"):
        return args.corpus
    return _materialize_gen(
        args.corpus, out_root / "gen_corpus", seed=args.seed, workers=args.workers
    )


def _ingest_featurize(row: dict) -> float:
    return row["timings"]["ingest_s"] + row["timings"]["featurize_s"]


def _stage_section(args, out_root: Path) -> dict:
    """The ``--stage-corpus`` deep-dive: cold vs decode-cache-warm vs
    dataset-cache-warm stage timings over one (usually large) corpus."""
    spec = args.stage_corpus
    if spec.startswith("gen:"):
        corpus = _materialize_gen(
            spec, out_root / "stage_corpus", seed=args.seed, workers=args.workers
        )
    else:
        corpus = spec
    n_files = len(sorted(Path(corpus).glob("**/*.pkl")))
    if n_files == 0:
        raise ValueError(f"no trace files under {corpus}")
    decode_cache = out_root / "stage_decode_cache"
    dataset_cache = out_root / "stage_dataset_cache"
    for cache in (decode_cache, dataset_cache):
        shutil.rmtree(cache, ignore_errors=True)

    stage_args = argparse.Namespace(**vars(args))
    stage_args.trace_dir = corpus
    plan = [
        # populate both tiers; single-shot because it does the populating
        ("stage_cold", 1, {"workers": 1, "dataset_cache_dir": str(dataset_cache)}),
        # the pre-dataset-cache warm path: per-trace decode-cache reads
        ("stage_warm_decode", 3, {"workers": 1}),
        # the mmap tier
        ("stage_warm_dataset", 3, {"workers": 1, "dataset_cache_dir": str(dataset_cache)}),
    ]
    runs: dict[str, dict] = {}
    stable: dict[str, dict] = {}
    for name, repeats, overrides in plan:
        # warm runs repeat timeit-style — keep the least-interfered-with
        # attempt (min ingest+featurize) so a busy box can't sink either side
        # of the comparison; every attempt must still agree on the metrics
        best: dict | None = None
        for _ in range(repeats):
            row, metrics = _one_run(
                name, stage_args, cache_dir=decode_cache, out_root=out_root,
                overrides=overrides,
            )
            view = _stable_view(metrics)
            if name in stable:
                assert view == stable[name], f"{name} repeat diverged"
            else:
                stable[name] = view
            if best is None or _ingest_featurize(row) < _ingest_featurize(best):
                best = row
        runs[name] = best
    assert runs["stage_warm_dataset"]["dataset_cache"]["hit"] is True
    diverged = [n for n in runs if stable[n] != stable["stage_cold"]]
    return {
        "corpus": str(corpus),
        "n_files": n_files,
        "runs": runs,
        "ingest_featurize_s": {n: round(_ingest_featurize(r), 3) for n, r in runs.items()},
        "speedups": {
            "dataset_vs_decode_warm_ingest_featurize": _ratio(
                _ingest_featurize(runs["stage_warm_decode"]),
                _ingest_featurize(runs["stage_warm_dataset"]),
            ),
            "dataset_vs_cold_ingest_featurize": _ratio(
                _ingest_featurize(runs["stage_cold"]),
                _ingest_featurize(runs["stage_warm_dataset"]),
            ),
            "dataset_vs_decode_warm_elapsed": _ratio(
                runs["stage_warm_decode"]["elapsed_s"],
                runs["stage_warm_dataset"]["elapsed_s"],
            ),
        },
        "diverged": diverged,
        "metrics_consistent": not diverged,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=".trace_cache")
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="DIR|gen:SPEC",
        help="bench this corpus instead of --trace-dir: a directory, or "
        '"gen:COUNT[:families=F1,F2][:seed=N]" to generate one first',
    )
    parser.add_argument(
        "--stage-corpus",
        default=None,
        metavar="DIR|gen:SPEC",
        help="also record a cold / decode-warm / dataset-warm stage-timing "
        "section over this (usually large) corpus, e.g. gen:10000",
    )
    parser.add_argument("--out", default="runs/bench", help="scratch directory for run outputs")
    parser.add_argument("--json", default="BENCH_pipeline.json", help="benchmark report path")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--n-models", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--faults", default=None, help="optional fault spec for all runs")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink epochs/models/workers for a fast smoke run (CI)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify metric-consistency rules only; do not write the report",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.epochs = min(args.epochs, 6)
        args.n_models = min(args.n_models, 2)
        args.workers = min(args.workers, 2)

    out_root = Path(args.out)
    try:
        args.trace_dir = _resolve_corpus(args, out_root)
    except (ValueError, ReproError) as exc:
        print(f"bad --corpus: {exc}", file=sys.stderr)
        return 2
    corpus = Path(args.trace_dir)
    n_files = len(sorted(corpus.glob("**/*.pkl")))
    if n_files == 0:
        print(f"no trace files under {corpus}", file=sys.stderr)
        return 2

    cache_a = out_root / "cache_serial"
    cache_b = out_root / "cache_parallel"
    dcache = out_root / "dataset_cache"
    for cache in (cache_a, cache_b, dcache):
        shutil.rmtree(cache, ignore_errors=True)

    plan = [
        ("cold_serial", cache_a, {"workers": 1}),
        ("warm_serial", cache_a, {"workers": 1}),
        ("cold_parallel", cache_b, {"workers": args.workers}),
        ("warm_parallel", cache_b, {"workers": args.workers}),
        (
            "warm_dataset_build",
            cache_a,
            {"workers": 1, "dataset_cache_dir": str(dcache)},
        ),
        (
            "warm_dataset_cache",
            cache_a,
            {"workers": 1, "dataset_cache_dir": str(dcache)},
        ),
        ("warm_ref_train", cache_a, {"workers": 1, "fit_kernel": "reference"}),
        ("warm_train_shm", cache_a, {"workers": 1, "train_workers": args.workers}),
    ]
    runs: dict[str, dict] = {}
    stable: dict[str, dict] = {}
    try:
        for name, cache, overrides in plan:
            runs[name], metrics = _one_run(
                name, args, cache_dir=cache, out_root=out_root, overrides=overrides
            )
            stable[name] = _stable_view(metrics)
    except ReproError as exc:
        print(f"benchmark failed: [{exc.code}] {exc}", file=sys.stderr)
        return 2

    diverged = [name for name in stable if stable[name] != stable["cold_serial"]]

    doc = {
        "version": BENCH_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "corpus": str(corpus),
        "n_files": n_files,
        "config": {
            "workers": args.workers,
            "epochs": args.epochs,
            "n_models": args.n_models,
            "seed": args.seed,
            "faults": args.faults,
            "quick": args.quick,
        },
        "runs": runs,
        "speedups": {
            "warm_vs_cold_serial": _ratio(
                runs["cold_serial"]["elapsed_s"], runs["warm_serial"]["elapsed_s"]
            ),
            "warm_vs_cold_serial_ingest": _ratio(
                runs["cold_serial"]["timings"]["ingest_s"],
                runs["warm_serial"]["timings"]["ingest_s"],
            ),
            "parallel_vs_serial_cold": _ratio(
                runs["cold_serial"]["elapsed_s"], runs["cold_parallel"]["elapsed_s"]
            ),
            "warm_parallel_vs_cold_serial": _ratio(
                runs["cold_serial"]["elapsed_s"], runs["warm_parallel"]["elapsed_s"]
            ),
            "train_blocked_vs_reference": _ratio(
                runs["warm_ref_train"]["timings"]["train_s"],
                runs["warm_serial"]["timings"]["train_s"],
            ),
            "train_shm_vs_serial": _ratio(
                runs["warm_serial"]["timings"]["train_s"],
                runs["warm_train_shm"]["timings"]["train_s"],
            ),
            "dataset_cache_vs_warm_serial_ingest_featurize": _ratio(
                _ingest_featurize(runs["warm_serial"]),
                _ingest_featurize(runs["warm_dataset_cache"]),
            ),
            "dataset_cache_vs_cold_serial": _ratio(
                runs["cold_serial"]["elapsed_s"],
                runs["warm_dataset_cache"]["elapsed_s"],
            ),
        },
        "metrics_consistent": not diverged,
    }
    stage_ok = True
    if args.stage_corpus:
        try:
            doc["stage_timings"] = _stage_section(args, out_root)
        except (ValueError, ReproError) as exc:
            print(f"bad --stage-corpus: {exc}", file=sys.stderr)
            return 2
        stage_ok = doc["stage_timings"]["metrics_consistent"]
    if not args.check:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")

    def _table(rows: dict[str, dict]) -> None:
        width = max(len(name) for name in rows)
        print(
            f"{'run':<{width}}  workers  elapsed_s  ingest_s  featurize_s"
            "  train_s  cache_hits  dataset"
        )
        for name, row in rows.items():
            hits = row["cache"]["hits"] if row["cache"] else 0
            dstate = "-"
            if row["dataset_cache"] is not None:
                dstate = "hit" if row["dataset_cache"]["hit"] else "miss"
            print(
                f"{name:<{width}}  {row['workers']:>7}  {row['elapsed_s']:>9.2f}"
                f"  {row['timings']['ingest_s']:>8.2f}"
                f"  {row['timings']['featurize_s']:>11.2f}"
                f"  {row['timings']['train_s']:>7.2f}  {hits:>10}  {dstate:>7}"
            )

    _table(runs)
    print(f"speedups: {json.dumps(doc['speedups'])}")
    if args.stage_corpus:
        stage = doc["stage_timings"]
        print(f"stage timings over {stage['corpus']} ({stage['n_files']} files):")
        _table(stage["runs"])
        print(f"stage speedups: {json.dumps(stage['speedups'])}")
    if diverged:
        print(f"metrics DIVERGED from baseline in: {diverged}", file=sys.stderr)
        return 1
    if not stage_ok:
        print(
            f"stage metrics DIVERGED from stage_cold in: "
            f"{doc['stage_timings']['diverged']}",
            file=sys.stderr,
        )
        return 1
    if args.check:
        print("metrics consistent across all runs (check mode; no report written)")
    else:
        print(f"metrics consistent across all runs; report -> {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
