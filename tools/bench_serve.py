#!/usr/bin/env python3
"""Pass/fail chaos check for the ``repro.serve`` scoring daemon.

Spawns the daemon as a real subprocess (the way a supervisor would), waits
for ``/readyz``, then drives it through phases:

1. **burst** — more simultaneous clients than the bounded queue holds, to
   exercise backpressure; shed (503) responses are answers, not errors.
2. **chaos** (``--chaos``) — injected corrupt payloads, malformed JSON,
   a client that pipelines good, malformed and corrupt lines in one write,
   truncated writes, stalled clients, a corrupt ``CURRENT`` artifact pointer
   followed by a good hot swap — all while normal load continues.

Then SIGTERM, drain, and the hard assertions: the daemon exits 0 (zero
crashes) with a drain summary, every well-formed request got a structured
response, every injected-fault request got a *structured error* (not a hang
or a dropped daemon), the pipelined answers came back in request order,
readiness held through the corrupt swap, the good swap was picked up, and
``/healthz`` answered at the end.  Latency and throughput are measured by
``perfbench/``, not here.

Usage::

    PYTHONPATH=src python tools/bench_serve.py [--artifact-root runs/artifact]
        [--trace-dir tests/fixtures/golden] [--clients 16] [--requests 40]
        [--chaos] [--quick]

The artifact is built from ``--trace-dir`` automatically when the store is
empty.  Exit status: 0 all assertions hold, 1 an assertion failed, 2
operator error.
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.ingest import corpus_files  # noqa: E402
from repro.model import ArtifactStore  # noqa: E402
from repro.telemetry import get_logger, log_event  # noqa: E402

logger = get_logger("repro.tools.bench_serve")


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


def ensure_artifact(root: Path, trace_dir: Path, out_dir: Path) -> None:
    """Build an artifact from the corpus when the store is empty."""
    if ArtifactStore(root).current() is not None:
        return
    from repro.pipeline import PipelineConfig, run_pipeline

    log_event(logger, "bench_serve.build_artifact", trace_dir=str(trace_dir))
    run_pipeline(
        PipelineConfig(
            trace_dir=str(trace_dir),
            out_dir=str(out_dir / "train"),
            epochs=8,
            n_models=2,
            theta=5.0,
            artifact_root=str(root),
        )
    )


def load_payloads(trace_dir: Path) -> list[str]:
    payloads = [
        base64.b64encode(Path(f.path).read_bytes()).decode()
        for f in corpus_files(trace_dir)
    ]
    if not payloads:
        raise SystemExit(f"no trace files under {trace_dir}")
    return payloads


def spawn_daemon(args, artifact_root: Path, quarantine: Path) -> tuple[subprocess.Popen, int]:
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
        str(args.max_queue),
        "--max-batch",
        str(args.max_batch),
        "--request-timeout",
        "15",
        "--idle-timeout",
        "3",
        "--reload-poll",
        "0.2",
        "--quarantine",
        str(quarantine),
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    try:
        port = int(json.loads(line)["listening"]["port"])
    except (ValueError, KeyError, TypeError):
        proc.kill()
        raise SystemExit(f"daemon did not announce a port (got {line!r})")
    return proc, port


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------


async def probe(port: int, target: str) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(1 << 16), timeout=5)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body) if body else {}


async def wait_ready(port: int, timeout: float = 20.0) -> None:
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


class Tally:
    """Shared result sink across all client tasks."""

    def __init__(self):
        self.by_status: dict[int, int] = {}
        self.unanswered = 0
        self.fault_structured = 0
        self.fault_unstructured = 0

    def record(self, response: dict | None, *, fault: bool = False) -> None:
        if response is None:
            self.unanswered += 1
            if fault:
                self.fault_unstructured += 1
            return
        status = int(response.get("status", -1))
        self.by_status[status] = self.by_status.get(status, 0) + 1
        if fault:
            # a structured answer to an injected fault is exactly what we want
            if response.get("ok") is False and "error" in response:
                self.fault_structured += 1
            else:
                self.fault_unstructured += 1


async def send_one(reader, writer, doc: dict, *, timeout: float = 30.0) -> dict | None:
    writer.write(json.dumps(doc).encode() + b"\n")
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    return json.loads(line) if line.strip() else None


async def load_client(port: int, payloads: list[str], n: int, tag: str, tally: Tally) -> None:
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        tally.unanswered += n
        return
    try:
        for i in range(n):
            doc = {"id": f"{tag}-{i}", "payload_b64": payloads[i % len(payloads)]}
            try:
                response = await send_one(reader, writer, doc)
            except (OSError, asyncio.TimeoutError, ValueError):
                tally.record(None)
                return
            tally.record(response)
    finally:
        writer.close()


def corrupt_variants(payloads: list[str]) -> list[dict]:
    """Request bodies the daemon must refuse with a structured error."""
    blob = base64.b64decode(payloads[0])
    return [
        {"payload_b64": base64.b64encode(blob[: len(blob) // 3]).decode()},  # truncated
        {"payload_b64": base64.b64encode(os.urandom(256)).decode()},  # garbage bytes
        {"payload_b64": "!!!not-base64!!!"},  # invalid encoding
        {"rows": [[1.0, 2.0], [3.0]]},  # ragged matrix
        {"rows": []},  # empty
        {},  # no payload at all
    ]


async def chaos_corrupt_client(port: int, payloads: list[str], n: int, tag: str, tally: Tally):
    """Corrupt payloads: truncated codec bytes, garbage base64, bad fields.
    Every one must come back as a structured error."""
    variants = corrupt_variants(payloads)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        tally.fault_unstructured += n
        return
    try:
        for i in range(n):
            doc = {"id": f"{tag}-{i}", **variants[i % len(variants)]}
            try:
                response = await send_one(reader, writer, doc)
            except (OSError, asyncio.TimeoutError, ValueError):
                tally.record(None, fault=True)
                return
            tally.record(response, fault=True)
    finally:
        writer.close()


async def chaos_malformed_lines(port: int, n: int, tally: Tally):
    """Non-JSON lines on the scoring port; expect structured 400s."""
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        tally.fault_unstructured += n
        return
    try:
        for i in range(n):
            writer.write(b"}{ totally not json %d\n" % i)
            await writer.drain()
            try:
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                tally.record(json.loads(line) if line.strip() else None, fault=True)
            except (OSError, asyncio.TimeoutError, ValueError):
                tally.record(None, fault=True)
                return
    finally:
        writer.close()


async def chaos_pipelined_client(
    port: int, payloads: list[str], n: int, tag: str, tally: Tally, results: dict
):
    """One write of ``n`` lines (good payloads, malformed lines and corrupt
    payloads, interleaved), then ``n`` reads.  The daemon reads ahead on the
    connection, so every answer must be structured and in request order:
    good and corrupt requests under their own ids, malformed lines as
    ``"?"``-id 400s."""
    variants = corrupt_variants(payloads)
    lines: list[bytes] = []
    expected: list[tuple[str, str]] = []  # (id, kind) per position
    for i in range(n):
        req_id = f"{tag}-{i}"
        if i % 3 == 0:
            doc = {"id": req_id, "payload_b64": payloads[i % len(payloads)]}
            lines.append(json.dumps(doc).encode() + b"\n")
            expected.append((req_id, "good"))
        elif i % 3 == 1:
            lines.append(b"}{ pipelined garbage %d\n" % i)
            expected.append(("?", "malformed"))
        else:
            doc = {"id": req_id, **variants[i % len(variants)]}
            lines.append(json.dumps(doc).encode() + b"\n")
            expected.append((req_id, "corrupt"))
    answers: list[dict] = []
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        reader = writer = None
    if writer is not None:
        try:
            writer.write(b"".join(lines))
            await writer.drain()
            for _ in range(n):
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                if not line.strip():
                    break
                answers.append(json.loads(line))
        except (OSError, asyncio.TimeoutError, ValueError):
            pass
        finally:
            writer.close()
    in_order = len(answers) == n
    for (req_id, kind), answer in zip(expected, answers):
        tally.record(answer, fault=kind != "good")
        if answer.get("id") != req_id:
            in_order = False
        elif kind == "malformed" and answer.get("status") != 400:
            in_order = False
        elif not answer.get("ok") and "error" not in answer:
            in_order = False
    for _, kind in expected[len(answers):]:
        tally.record(None, fault=kind != "good")
    results["pipelined_in_order"] = in_order


async def chaos_truncated_write(port: int, payloads: list[str]):
    """Send half a request line and slam the connection shut."""
    try:
        _, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return
    line = json.dumps({"id": "trunc", "payload_b64": payloads[0]})
    writer.write(line[: len(line) // 2].encode())  # no newline, half the JSON
    await writer.drain()
    writer.close()


async def chaos_stalled_client(port: int, hold_s: float):
    """Open a connection, send a partial line, and stall until the daemon's
    idle timeout disconnects us."""
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return
    writer.write(b'{"id": "stall", ')
    await writer.drain()
    try:  # the daemon should hang up on us, not the other way around
        await asyncio.wait_for(reader.read(1), timeout=hold_s)
    except asyncio.TimeoutError:
        pass
    finally:
        writer.close()


async def chaos_artifact_swaps(artifact_root: Path, port: int, results: dict):
    """Mid-run: first point CURRENT at a version that does not verify (the
    daemon must keep serving the last good artifact), then publish a real
    new version (the daemon must hot-swap to it)."""
    store = ArtifactStore(artifact_root)
    good = store.current()
    # -- corrupt swap: pointer to a version directory that is not there
    (artifact_root / "CURRENT").write_text("v9999-deadbeef\n")
    await asyncio.sleep(1.0)
    status, _ = await probe(port, "/readyz")
    results["ready_during_bad_swap"] = status == 200
    # -- good swap: republish the same model content as a new version
    loaded = store.load(good)
    published = store.publish(
        loaded.models, loaded.normalizer, loaded.scales, meta={"bench": "hot-swap"}
    )
    deadline = time.monotonic() + 10
    swapped = False
    while time.monotonic() < deadline:
        await asyncio.sleep(0.25)
        status, ready = await probe(port, "/readyz")
        if status == 200 and ready.get("artifact") == published.version:
            swapped = True
            break
    results["hot_swap_observed"] = swapped


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


async def run_phases(
    args, port: int, payloads: list[str], artifact_root: Path
) -> tuple[Tally, dict]:
    tally = Tally()
    chaos: dict = {}

    # burst against the bounded queue — enough simultaneous connections to
    # exceed max_queue, so real shedding is exercised
    await asyncio.gather(
        *(
            load_client(port, payloads, max(2, args.requests // 4), f"burst{c}", tally)
            for c in range(max(args.clients * 4, args.max_queue * 2))
        )
    )

    if args.chaos:
        n_faults = max(6, args.requests // 2)
        await asyncio.gather(
            chaos_corrupt_client(port, payloads, n_faults, "corrupt", tally),
            chaos_malformed_lines(port, n_faults, tally),
            chaos_pipelined_client(port, payloads, n_faults, "pipelined", tally, chaos),
            chaos_truncated_write(port, payloads),
            chaos_truncated_write(port, payloads),
            chaos_stalled_client(port, hold_s=8.0),
            chaos_artifact_swaps(artifact_root, port, chaos),
            # normal traffic must keep flowing through all of it
            load_client(port, payloads, args.requests, "during-chaos", tally),
        )

    chaos["healthz_status"], _ = await probe(port, "/healthz")
    return tally, chaos


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact-root", default="runs/serve-bench/artifact")
    parser.add_argument("--trace-dir", default="tests/fixtures/golden")
    parser.add_argument("--out", default="runs/serve-bench")
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--requests", type=int, default=40, help="requests per client")
    parser.add_argument("--max-queue", type=int, default=16)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--chaos", action="store_true", help="inject faults while serving")
    parser.add_argument("--quick", action="store_true", help="shrink load for a CI smoke run")
    args = parser.parse_args(argv)
    if args.quick:
        args.clients = min(args.clients, 6)
        args.requests = min(args.requests, 12)
        args.max_queue = min(args.max_queue, 16)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact_root = Path(args.artifact_root)
    trace_dir = Path(args.trace_dir)
    try:
        ensure_artifact(artifact_root, trace_dir, out_dir)
    except ReproError as exc:
        print(f"cannot build artifact: [{exc.code}] {exc}", file=sys.stderr)
        return 2
    payloads = load_payloads(trace_dir)

    proc, port = spawn_daemon(args, artifact_root, out_dir / "serve_quarantine.json")
    try:
        asyncio.run(wait_ready(port))
        tally, chaos = asyncio.run(run_phases(args, port, payloads, artifact_root))
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    stopped_line = proc.stdout.read().strip()
    daemon_final = {}
    for line in stopped_line.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if doc.get("stopped"):
            daemon_final = doc.get("counters", {})

    failures: list[str] = []
    if proc.returncode != 0:
        failures.append(f"daemon exited {proc.returncode}, expected 0")
    if not daemon_final:
        failures.append("daemon did not report a clean drain summary on stdout")
    if tally.unanswered:
        failures.append(f"{tally.unanswered} well-formed requests went unanswered")
    if args.chaos:
        if tally.fault_unstructured:
            failures.append(
                f"{tally.fault_unstructured} injected faults were not "
                "answered with structured errors"
            )
        if tally.fault_structured == 0:
            failures.append("chaos mode ran but no injected fault was exercised")
        if not chaos.get("pipelined_in_order"):
            failures.append("pipelined answers missing or out of order")
        if not chaos.get("ready_during_bad_swap"):
            failures.append("daemon lost readiness during the corrupt artifact swap")
        if not chaos.get("hot_swap_observed"):
            failures.append("daemon never picked up the good artifact hot swap")
        if daemon_final and daemon_final.get("reload_failures", 0) < 1:
            failures.append("corrupt artifact swap was never refused (reload_failures == 0)")
    if chaos.get("healthz_status") != 200:
        failures.append("healthz probe failed at end of run")
    ok_count = tally.by_status.get(200, 0)
    if ok_count == 0:
        failures.append("no request was ever scored successfully")

    print(
        f"served {ok_count} ok / shed {tally.by_status.get(503, 0)} / "
        f"quarantined {tally.by_status.get(422, 0)}"
    )
    if args.chaos:
        print(
            f"chaos: {tally.fault_structured} faults answered structurally, "
            f"pipelined_in_order={chaos.get('pipelined_in_order')}, "
            f"hot_swap={chaos.get('hot_swap_observed')}, "
            f"reload_failures={daemon_final.get('reload_failures')}"
        )
    if failures:
        for failure in failures:
            print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
        return 1
    print("all serve assertions hold; daemon exited cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
