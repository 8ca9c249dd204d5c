#!/usr/bin/env python3
"""Time-ordered distribution-shift replay against the self-healing loop.

Builds an artifact on the *pre-shift* family mix of a shift schedule, then
replays the schedule's time-ordered trace stream — every trace labeled —
against two daemons:

1. **loop** — drift monitor + retrain supervisor enabled.  The stream keeps
   flowing while the loop detects the shift, retrains in a subprocess,
   canaries the candidate, and promotes it.  The replay extends past the
   nominal stream length (same deterministic index sequence) until a
   promotion lands and settles, so slow retrains are measured, not missed.
2. **frozen** — the identical trace sequence against a plain daemon, so the
   accuracy-over-time delta is attributable to the loop alone.

Results go to ``BENCH_drift.json``: windowed accuracy curves for both runs,
detection latency (traces between the injected shift and the first drift
verdict), retrain / promotion / rollback counts, and the hard assertions —
the loop must detect the shift, promote at least one canary, finish at
least ``--min-delta`` windowed accuracy above the frozen replay, and neither
daemon may crash or drop a request.

What does not depend on host speed: the final windowed accuracies of both
runs, their delta, the detection latency and the artifact digests (base and
promoted).  The replay is closed-loop, so the request pace decides when the
retrained candidate gets promoted: ``first_promotion_at_trace`` and the
accuracy windows between the shift and the promotion follow host speed.

Usage::

    PYTHONPATH=src python tools/replay_drift.py [--quick]
        [--schedule evasive_shift:150] [--json BENCH_drift.json]

Exit status: 0 all assertions hold, 1 an assertion failed, 2 operator error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.errors import ReproError  # noqa: E402
from repro.features import Normalizer, build_dataset  # noqa: E402
from repro.gen.shift import load_schedule  # noqa: E402
from repro.model import ArtifactStore, HashedPerceptron, margin_scales, train_ensemble  # noqa: E402
from repro.sim.trace import family_key  # noqa: E402
from repro.telemetry import get_logger, log_event  # noqa: E402

logger = get_logger("repro.tools.replay_drift")

BENCH_VERSION = 1


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


def pretrain_artifact(schedule, args, artifact_root: Path) -> str:
    """Train an ensemble on the schedule's phase-0 stream and publish it."""
    pre = schedule.pre_shift()  # never sample past the shift: the baseline
    traces = [pre.synthesize(args.train_seed, i) for i in range(args.train_traces)]
    dataset = build_dataset(traces)
    normalizer = Normalizer().fit(dataset.X)
    Z = normalizer.transform(dataset.X)
    models = [
        HashedPerceptron(dataset.n_features, theta=5.0, seed=args.train_seed * 1000 + k)
        for k in range(args.members)
    ]
    train_ensemble(models, Z, dataset.y, epochs=args.epochs)
    published = ArtifactStore(artifact_root).publish(
        models,
        normalizer,
        margin_scales(models, Z),
        meta={"bench": "replay_drift", "train_traces": args.train_traces},
    )
    log_event(
        logger,
        "replay_drift.pretrained",
        version=published.version,
        traces=args.train_traces,
    )
    return published.version


def spawn_daemon(args, artifact_root: Path, out_dir: Path, *, loop: bool):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable,
        "-m",
        "repro.serve",
        "--artifact-root",
        str(artifact_root),
        "--port",
        "0",
        "--max-queue",
        "128",
        "--max-batch",
        "16",
        "--request-timeout",
        "30",
        "--reload-poll",
        "0.2",
    ]
    if loop:
        cmd += [
            "--drift-window",
            str(args.drift_window),
            "--drift-min-feedback",
            str(max(8, args.drift_window // 4)),
            "--drift-psi-threshold",
            "0.5",
            "--drift-accuracy-floor",
            "0.8",
            # the replay measures retrain->canary->promote; rollback (its own
            # failure-mode test) would preempt the retrain we are measuring
            "--drift-rollback-floor",
            "0.0",
            "--drift-quarantine-dir",
            str(out_dir / "drift_quarantine"),
            "--supervise",
            "--retrain-mode",
            "partial",
            "--retrain-passes",
            str(args.retrain_passes),
            "--retrain-timeout",
            "120",
            "--retrain-min-traces",
            str(args.retrain_min_traces),
            "--retrain-backoff",
            "1",
            "--canary-min-traces",
            str(args.canary_min_traces),
            "--canary-margin",
            "0.05",
            "--canary-floor",
            "0.6",
            "--canary-timeout",
            "45",
        ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    try:
        port = int(json.loads(line)["listening"]["port"])
    except (ValueError, KeyError, TypeError):
        proc.kill()
        raise SystemExit(f"daemon did not announce a port (got {line!r})")
    return proc, port


def stop_daemon(proc) -> dict:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    counters = {}
    for line in (proc.stdout.read() or "").splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if doc.get("stopped"):
            counters = doc.get("counters", {})
    return counters


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


async def probe(port: int, target: str) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {target} HTTP/1.1\r\nHost: replay\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(1 << 17), timeout=5)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body) if body else {}


async def wait_ready(port: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            status, _ = await probe(port, "/readyz")
            if status == 200:
                return
        except OSError:
            pass
        await asyncio.sleep(0.1)
    raise SystemExit("daemon never became ready")


class Replay:
    """Outcome of one time-ordered replay."""

    def __init__(self):
        self.correct: list[int] = []  # 1/0 per trace, stream order
        self.artifact_per_trace: list[str] = []
        self.unanswered = 0
        self.not_ok = 0
        self.first_verdict_index: int | None = None
        self.first_promotion_index: int | None = None
        self.metrics: dict = {}

    def windowed_accuracy(self, window: int) -> list[dict]:
        out = []
        for start in range(0, len(self.correct) - window + 1, window):
            chunk = self.correct[start : start + window]
            out.append(
                {"start": start, "end": start + window, "accuracy": sum(chunk) / len(chunk)}
            )
        return out

    def final_accuracy(self, window: int) -> float:
        tail = self.correct[-window:]
        return sum(tail) / len(tail) if tail else float("nan")


async def replay_stream(
    schedule, args, port: int, *, track_loop: bool, total: int | None = None
) -> Replay:
    """Send the schedule's stream one trace at a time, strictly ordered.

    With ``track_loop`` the stream extends itself past the nominal length
    (up to ``--max-traces``) until a promotion has landed and
    ``--settle-traces`` further traces have been scored against the promoted
    model; the returned replay's length is then the ``total`` the frozen run
    must replay for an apples-to-apples comparison.
    """
    replay = Replay()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    nominal = total if total is not None else args.traces
    index = 0
    promoted_at: int | None = None
    try:
        while True:
            if index >= nominal:
                if not track_loop or total is not None:
                    break
                if index >= args.max_traces:
                    break
                if promoted_at is not None and index >= promoted_at + args.settle_traces:
                    break
            trace = schedule.synthesize(args.replay_seed, index)
            doc = {
                "id": f"t{index}",
                "rows": np.asarray(trace.rows, dtype=np.float64).tolist(),
                "label": int(trace.label),
                "family": family_key(trace),
            }
            writer.write(json.dumps(doc).encode() + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=60)
            if not line.strip():
                replay.unanswered += 1
                break
            response = json.loads(line)
            if not response.get("ok"):
                replay.not_ok += 1
                replay.correct.append(0)
                replay.artifact_per_trace.append("?")
            else:
                replay.correct.append(int(response["verdict"] == trace.label))
                replay.artifact_per_trace.append(response.get("artifact", "?"))
            if track_loop and index % args.poll_every == 0:
                _, metrics = await probe(port, "/metricsz")
                drift = metrics.get("drift") or {}
                sup = metrics.get("supervisor") or {}
                if replay.first_verdict_index is None and drift.get("drift_verdicts", 0) >= 1:
                    replay.first_verdict_index = index
                if replay.first_promotion_index is None and sup.get("promotions", 0) >= 1:
                    replay.first_promotion_index = index
                    promoted_at = index
            index += 1
    finally:
        writer.close()
    _, replay.metrics = await probe(port, "/metricsz")
    if track_loop:
        drift = replay.metrics.get("drift") or {}
        sup = replay.metrics.get("supervisor") or {}
        if replay.first_verdict_index is None and drift.get("drift_verdicts", 0) >= 1:
            replay.first_verdict_index = index
        if replay.first_promotion_index is None and sup.get("promotions", 0) >= 1:
            replay.first_promotion_index = index
    return replay


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schedule", default="novel_probe_shift:150", help="builtin:<at> or JSON path")
    parser.add_argument("--out", default="runs/drift-replay")
    parser.add_argument("--json", default="BENCH_drift.json")
    parser.add_argument("--traces", type=int, default=900, help="nominal stream length")
    parser.add_argument("--max-traces", type=int, default=2400, help="extension cap for the loop run")
    parser.add_argument("--settle-traces", type=int, default=150, help="traces scored after promotion")
    parser.add_argument("--eval-window", type=int, default=75, help="accuracy-curve window (traces)")
    # window of 100 keeps PSI sampling noise (~(bins-1)*2/window ~= 0.18)
    # under the 0.5 replay threshold; smaller windows false-positive on noise
    parser.add_argument("--drift-window", type=int, default=100)
    parser.add_argument("--train-traces", type=int, default=240)
    parser.add_argument("--train-seed", type=int, default=11)
    parser.add_argument("--replay-seed", type=int, default=29)
    parser.add_argument("--members", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--retrain-passes", type=int, default=3)
    parser.add_argument("--retrain-min-traces", type=int, default=60)
    parser.add_argument("--canary-min-traces", type=int, default=24)
    parser.add_argument("--poll-every", type=int, default=10, help="metricsz poll cadence (traces)")
    parser.add_argument("--min-delta", type=float, default=0.05,
                        help="required final windowed-accuracy gain of loop over frozen")
    parser.add_argument("--quick", action="store_true", help="shrink the replay for a CI smoke run")
    parser.add_argument("--check", action="store_true",
                        help="run assertions only; do not write the report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.traces = min(args.traces, 700)
        args.max_traces = min(args.max_traces, 1800)
        args.train_traces = min(args.train_traces, 200)
        args.settle_traces = min(args.settle_traces, 120)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact_root = out_dir / "artifact"

    try:
        schedule = load_schedule(args.schedule)
    except ReproError as exc:
        print(f"bad schedule: [{exc.code}] {exc}", file=sys.stderr)
        return 2
    shift_points = schedule.shift_points()
    if not shift_points:
        print("schedule has no shift point; nothing to detect", file=sys.stderr)
        return 2
    shift_at = shift_points[0]

    try:
        base_version = pretrain_artifact(schedule, args, artifact_root)
    except ReproError as exc:
        print(f"cannot pretrain artifact: [{exc.code}] {exc}", file=sys.stderr)
        return 2

    # ---- loop run: drift monitor + supervisor on -----------------------
    proc, port = spawn_daemon(args, artifact_root, out_dir, loop=True)
    try:
        asyncio.run(wait_ready(port))
        loop_replay = asyncio.run(replay_stream(schedule, args, port, track_loop=True))
    finally:
        loop_counters = stop_daemon(proc)
    loop_exit = proc.returncode
    total = len(loop_replay.correct)

    # ---- frozen run: identical trace sequence, plain daemon ------------
    # a fresh store so the frozen daemon cannot pick up the loop's promotion
    frozen_root = out_dir / "artifact-frozen"
    store = ArtifactStore(artifact_root)
    loaded = store.load(base_version)
    ArtifactStore(frozen_root).publish(
        loaded.models, loaded.normalizer, loaded.scales, meta={"bench": "frozen-baseline"}
    )
    proc, port = spawn_daemon(args, frozen_root, out_dir, loop=False)
    try:
        asyncio.run(wait_ready(port))
        frozen_replay = asyncio.run(
            replay_stream(schedule, args, port, track_loop=False, total=total)
        )
    finally:
        frozen_counters = stop_daemon(proc)
    frozen_exit = proc.returncode

    # ---- evaluate ------------------------------------------------------
    window = args.eval_window
    loop_final = loop_replay.final_accuracy(window)
    frozen_final = frozen_replay.final_accuracy(window)
    delta = loop_final - frozen_final
    sup = loop_replay.metrics.get("supervisor") or {}
    drift = loop_replay.metrics.get("drift") or {}
    detection_latency = (
        loop_replay.first_verdict_index - shift_at
        if loop_replay.first_verdict_index is not None
        else None
    )

    failures: list[str] = []
    if loop_exit != 0:
        failures.append(f"loop daemon exited {loop_exit}, expected 0")
    if frozen_exit != 0:
        failures.append(f"frozen daemon exited {frozen_exit}, expected 0")
    if loop_replay.unanswered or frozen_replay.unanswered:
        failures.append(
            f"unanswered requests: loop={loop_replay.unanswered} frozen={frozen_replay.unanswered}"
        )
    if loop_replay.not_ok or frozen_replay.not_ok:
        failures.append(
            f"non-ok scoring responses: loop={loop_replay.not_ok} frozen={frozen_replay.not_ok}"
        )
    if drift.get("drift_verdicts", 0) < 1:
        failures.append("the loop never detected the injected shift (drift_verdicts == 0)")
    if sup.get("promotions", 0) < 1:
        failures.append("no canary was ever promoted (promotions == 0)")
    if not (delta >= args.min_delta):
        failures.append(
            f"loop final windowed accuracy {loop_final:.3f} did not beat frozen "
            f"{frozen_final:.3f} by {args.min_delta} (delta {delta:+.3f})"
        )

    doc = {
        "version": BENCH_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "schedule": {"spec": args.schedule, "shift_at": shift_at, **schedule.to_dict()},
        "config": {
            "traces_nominal": args.traces,
            "traces_replayed": total,
            "eval_window": window,
            "drift_window": args.drift_window,
            "train_traces": args.train_traces,
            "members": args.members,
            "retrain_min_traces": args.retrain_min_traces,
            "canary_min_traces": args.canary_min_traces,
            "min_delta": args.min_delta,
            "quick": args.quick,
        },
        "base_artifact": base_version,
        "loop": {
            "accuracy_curve": loop_replay.windowed_accuracy(window),
            "final_windowed_accuracy": round(loop_final, 4),
            "first_drift_verdict_at_trace": loop_replay.first_verdict_index,
            "detection_latency_traces": detection_latency,
            "first_promotion_at_trace": loop_replay.first_promotion_index,
            "artifacts_served": sorted(set(loop_replay.artifact_per_trace)),
            "drift": drift,
            "supervisor": sup,
            "daemon_exit_code": loop_exit,
            "daemon_counters": loop_counters,
        },
        "frozen": {
            "accuracy_curve": frozen_replay.windowed_accuracy(window),
            "final_windowed_accuracy": round(frozen_final, 4),
            "daemon_exit_code": frozen_exit,
            "daemon_counters": frozen_counters,
        },
        "delta_final_windowed_accuracy": round(delta, 4),
        "assertions_failed": failures,
        "crashes": int(loop_exit != 0) + int(frozen_exit != 0),
    }
    if not args.check:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")

    print(
        f"replayed {total} traces (shift at {shift_at}): "
        f"loop {loop_final:.3f} vs frozen {frozen_final:.3f} (delta {delta:+.3f})  "
        f"detection latency {detection_latency} traces  "
        f"retrains {sup.get('retrains_succeeded', 0)}/{sup.get('retrains_started', 0)}  "
        f"promotions {sup.get('promotions', 0)}  rollbacks {sup.get('rollbacks', 0)}"
    )
    if failures:
        for failure in failures:
            print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
        return 1
    print("all drift-replay assertions hold"
          + ("" if args.check else f"; report -> {args.json}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
