"""CLI entry point: ``python -m repro.pipeline [options]``.

``python -m repro.pipeline save-artifact [options]`` runs the same
train/eval and then publishes a versioned serving artifact (ensemble
weights + feature stats + pinned margin scales, sha256 manifest, atomic
``CURRENT`` pointer) into ``--artifact-root`` for ``repro.serve``.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ReproError
from ..faults import FaultPlan
from . import PipelineConfig, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline",
        description="Train and evaluate the PerSpectron detector over a trace-cache corpus.",
    )
    parser.add_argument("--trace-dir", default=".trace_cache", help="corpus directory")
    parser.add_argument("--out", default="runs/latest", help="run output directory")
    parser.add_argument("--test-frac", type=float, default=0.3, help="held-out trace fraction")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--decode-timeout", type=float, default=30.0, metavar="SECONDS")
    parser.add_argument("--n-tables", type=int, default=16)
    parser.add_argument("--table-bits", type=int, default=12)
    parser.add_argument("--n-bins", type=int, default=16)
    parser.add_argument("--theta", type=float, default=50.0, help="perceptron training threshold")
    parser.add_argument("--n-models", type=int, default=5, help="hash-seed ensemble size")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="ingest worker processes (1 = serial in-process decode)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed decode cache; warm runs skip the salvage decoder",
    )
    parser.add_argument(
        "--dataset-cache-dir",
        default=None,
        metavar="DIR",
        help="memory-mapped assembled-dataset cache; a warm corpus skips "
        "decode and assembly entirely (key sweep + one mmap load)",
    )
    parser.add_argument(
        "--train-workers",
        type=int,
        default=1,
        help="ensemble-member training threads (1 = on the calling thread; "
        "more share one quantized matrix and need the native kernel to run "
        "faster); semantics-free like --workers",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help='fault injection, e.g. "io=0.2,corrupt=0.25,seed=7" '
        "(REPRO_FAULTS env var is the fallback)",
    )
    parser.add_argument(
        "--artifact-root",
        default=None,
        metavar="DIR",
        help="publish a versioned serving artifact into this store after "
        "training (implied default runs/artifact for the save-artifact "
        "subcommand)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    save_artifact = bool(argv) and argv[0] == "save-artifact"
    if save_artifact:
        argv = argv[1:]
    parser = build_parser()
    if save_artifact:
        parser.prog += " save-artifact"
    args = parser.parse_args(argv)
    if not 0 <= args.test_frac < 1:
        parser.error(f"--test-frac must be in [0, 1), got {args.test_frac}")
    if save_artifact and args.artifact_root is None:
        args.artifact_root = "runs/artifact"
    try:
        faults = FaultPlan.parse(args.faults) if args.faults else FaultPlan.from_env()
    except ValueError as exc:
        parser.error(f"bad fault spec: {exc}")
    config = PipelineConfig(
        trace_dir=args.trace_dir,
        out_dir=args.out,
        test_frac=args.test_frac,
        epochs=args.epochs,
        seed=args.seed,
        decode_timeout_s=args.decode_timeout,
        faults=faults,
        n_tables=args.n_tables,
        table_bits=args.table_bits,
        n_bins=args.n_bins,
        theta=args.theta,
        n_models=args.n_models,
        workers=args.workers,
        cache_dir=args.cache_dir,
        dataset_cache_dir=args.dataset_cache_dir,
        train_workers=args.train_workers,
        artifact_root=args.artifact_root,
    )
    try:
        metrics = run_pipeline(config)
    except ReproError as exc:
        print(f"pipeline failed: [{exc.code}] {exc}", file=sys.stderr)
        return 2
    summary = {
        "out": config.out_dir,
        "trace_accuracy": metrics["metrics"]["trace_accuracy"],
        "benign_false_positive_rate": metrics["metrics"]["benign_false_positive_rate"],
        "families": metrics["metrics"]["families"],
        "loaded": metrics["ingest"]["loaded"],
        "quarantined": metrics["ingest"]["quarantined"],
    }
    if metrics.get("artifact"):
        summary["artifact"] = metrics["artifact"]
    if metrics.get("dataset_cache"):
        summary["dataset_cache_hit"] = metrics["dataset_cache"].get("hit", False)
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
