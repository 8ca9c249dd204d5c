"""CLI entry point: ``python -m repro.serve --artifact-root runs/artifact``."""

from __future__ import annotations

import argparse
import asyncio
import sys

from .service import ServeConfig, run_service


def build_parser() -> argparse.ArgumentParser:
    defaults = ServeConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Always-on PerSpectron scoring daemon over a versioned model artifact.",
    )
    parser.add_argument("--artifact-root", default=defaults.artifact_root)
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port, help="0 picks a free port")
    parser.add_argument(
        "--max-queue",
        type=int,
        default=defaults.max_queue,
        help="bounded request queue depth; beyond this, requests are shed with a 503",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=defaults.max_batch,
        help="requests coalesced into one scoring micro-batch",
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=defaults.batch_window_ms,
        help="how long the batcher waits to fill a micro-batch",
    )
    parser.add_argument("--request-timeout", type=float, default=defaults.request_timeout_s)
    parser.add_argument("--score-timeout", type=float, default=defaults.score_timeout_s)
    parser.add_argument("--write-timeout", type=float, default=defaults.write_timeout_s)
    parser.add_argument("--idle-timeout", type=float, default=defaults.idle_timeout_s)
    parser.add_argument("--decode-timeout", type=float, default=defaults.decode_timeout_s)
    parser.add_argument(
        "--reload-poll",
        type=float,
        default=defaults.reload_poll_s,
        help="seconds between artifact CURRENT-pointer polls (0 disables hot reload)",
    )
    parser.add_argument(
        "--quarantine",
        default=None,
        metavar="PATH",
        help="write refused-payload quarantine manifest here",
    )
    parser.add_argument("--drain-timeout", type=float, default=defaults.drain_timeout_s)
    drift = parser.add_argument_group("drift monitoring / online learning")
    drift.add_argument(
        "--drift-window",
        type=int,
        default=defaults.drift_window,
        help="scored traces per drift-evaluation window (0 disables the monitor)",
    )
    drift.add_argument("--drift-min-feedback", type=int, default=defaults.drift_min_feedback)
    drift.add_argument("--drift-psi-threshold", type=float, default=defaults.drift_psi_threshold)
    drift.add_argument("--drift-margin-sigma", type=float, default=defaults.drift_margin_sigma)
    drift.add_argument("--drift-accuracy-floor", type=float, default=defaults.drift_accuracy_floor)
    drift.add_argument("--drift-rollback-floor", type=float, default=defaults.drift_rollback_floor)
    drift.add_argument("--drift-cooldown", type=int, default=defaults.drift_cooldown_windows)
    drift.add_argument(
        "--drift-quarantine-dir",
        default=None,
        metavar="DIR",
        help="write suspect drift windows here as JSON records",
    )
    drift.add_argument(
        "--supervise",
        action="store_true",
        help="enable the self-healing retrain -> canary -> rollback supervisor",
    )
    drift.add_argument("--retrain-mode", choices=("partial", "full"), default=defaults.retrain_mode)
    drift.add_argument("--retrain-passes", type=int, default=defaults.retrain_passes)
    drift.add_argument("--retrain-timeout", type=float, default=defaults.retrain_timeout_s)
    drift.add_argument(
        "--retrain-workers",
        type=int,
        default=defaults.retrain_workers,
        help="member-fit processes for full-mode retrains (bit-identical for any N)",
    )
    drift.add_argument("--retrain-min-traces", type=int, default=defaults.retrain_min_traces)
    drift.add_argument("--retrain-backoff", type=float, default=defaults.retrain_backoff_s)
    drift.add_argument("--canary-min-traces", type=int, default=defaults.canary_min_traces)
    drift.add_argument("--canary-margin", type=float, default=defaults.canary_margin)
    drift.add_argument("--canary-floor", type=float, default=defaults.canary_floor)
    drift.add_argument("--canary-timeout", type=float, default=defaults.canary_timeout_s)
    drift.add_argument("--feedback-capacity", type=int, default=defaults.feedback_capacity)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ServeConfig(
        artifact_root=args.artifact_root,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batch_window_ms=args.batch_window_ms,
        request_timeout_s=args.request_timeout,
        score_timeout_s=args.score_timeout,
        write_timeout_s=args.write_timeout,
        idle_timeout_s=args.idle_timeout,
        decode_timeout_s=args.decode_timeout,
        reload_poll_s=args.reload_poll,
        quarantine_path=args.quarantine,
        drain_timeout_s=args.drain_timeout,
        drift_window=args.drift_window,
        drift_min_feedback=args.drift_min_feedback,
        drift_psi_threshold=args.drift_psi_threshold,
        drift_margin_sigma=args.drift_margin_sigma,
        drift_accuracy_floor=args.drift_accuracy_floor,
        drift_rollback_floor=args.drift_rollback_floor,
        drift_cooldown_windows=args.drift_cooldown,
        drift_quarantine_dir=args.drift_quarantine_dir,
        supervise=args.supervise,
        retrain_mode=args.retrain_mode,
        retrain_passes=args.retrain_passes,
        retrain_timeout_s=args.retrain_timeout,
        retrain_workers=args.retrain_workers,
        retrain_min_traces=args.retrain_min_traces,
        retrain_backoff_s=args.retrain_backoff,
        canary_min_traces=args.canary_min_traces,
        canary_margin=args.canary_margin,
        canary_floor=args.canary_floor,
        canary_timeout_s=args.canary_timeout,
        feedback_capacity=args.feedback_capacity,
    )
    return asyncio.run(run_service(config))


if __name__ == "__main__":
    sys.exit(main())
