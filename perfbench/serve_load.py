"""Open-loop load against the scoring daemon.

Independent trace sources are modelled as an open loop: request ``i`` of a
phase is due at ``t0 + i / rate`` whatever happened to earlier requests, and
its latency is timed from that due time, so a stall is charged to every
request queued behind it.  One generator process sends over at most
``nproc`` connections (round robin).  The daemon answers one line per
connection at a time, so overload shows as a backlog in the connections
rather than as shed requests.

``serve_max_rps`` comes from saturation probes (:class:`Capacity`): short
open-loop bursts offered faster than the daemon answers, each measuring the
rate at which the daemon drains the backlog, which is the highest rate it
sustains without a growing backlog.  A probe counts only when every request
was answered 200 with the reference verdict and margin, and the daemon
answered at less than ``SATURATED_SHARE`` of the offered rate while a
backlog built up; a daemon that keeps up doubles the offered rate instead.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    BenchError,
    cpu_jiffies,
    median,
    percentile,
    steal_share,
    stop_process,
)

#: a phase kept its schedule when the generator sent 99% of its requests
#: within this of their due time
LATENESS_LIMIT_MS = 20.0
#: its backlog grew when the median latency of its last quarter exceeds its
#: first quarter's by this much, or more than this much traffic was still
#: unanswered when its last request was due
BACKLOG_TREND_MS = 20.0
BACKLOG_QUEUED_MS = 40.0
#: a probe saturated the daemon when the daemon answered at less than
#: this share of the offered rate ...
SATURATED_SHARE = 0.8
#: ... and still owed this share of the probe's requests when the generator
#: sent its last one (else the generator, not the daemon, set the pace);
#: when the daemon kept up, the offered rate doubles, at most this many
#: times a run
SATURATED_BACKLOG = 0.1
MAX_DOUBLINGS = 3
#: connections the generator opens
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


def payload_line(req_id: str, b64: str) -> bytes:
    return b'{"id":"' + req_id.encode() + b'","payload_b64":"' + b64.encode() + b'"}\n'


@dataclass
class Traffic:
    """Request payloads plus the reference answer for each, computed
    in-process with ``LoadedArtifact.score_traces`` before the daemon runs."""

    b64: list[str]
    reference: list[tuple[int, float]]


def reference_traffic(
    artifact_root: Path, blobs: list[bytes], native: Path, flip: bool = False
) -> Traffic:
    """``flip`` negates the first reference verdict: the self-test's check
    that a wrong answer counts as a failed operation."""
    # score with the same native kernel build the daemon loads
    os.environ["REPRO_NATIVE_DIR"] = str(native)
    import numpy as np

    from repro.model.artifact import ArtifactStore
    from repro.sim.trace import decode_trace

    artifact = ArtifactStore(artifact_root).load()
    reference = []
    for blob in blobs:
        trace, _ = decode_trace(blob)
        rows = np.asarray(trace.rows, dtype=np.float64)
        groups = np.zeros(rows.shape[0], dtype=np.int64)
        margins, verdicts = artifact.score_traces(rows, groups, 1)
        # the daemon's reduction, term for term: bincount sum over count
        total = np.bincount(groups, weights=margins, minlength=1)
        count = np.bincount(groups, minlength=1)
        reference.append((int(verdicts[0]), float(total[0] / count[0])))
    if flip:
        verdict, margin = reference[0]
        reference[0] = (-verdict, margin)
    return Traffic([base64.b64encode(blob).decode() for blob in blobs], reference)


# -- the daemon ---------------------------------------------------------------


def http_get(port: int, path: str, timeout: float = 5.0) -> tuple[int, dict]:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body or b"{}")


class Daemon:
    """A ``repro.serve`` child process with default settings (optionally
    under the traced launcher)."""

    def __init__(self, artifact_root: Path, env: dict, spans: Path | None = None):
        cmd = [sys.executable]
        if spans is None:
            cmd += ["-m", "repro.serve"]
        else:
            cmd += [str(BENCH_DIR / "tracer.py"), "serve", str(spans), "--"]
        cmd += ["--artifact-root", str(artifact_root), "--port", "0"]
        self.cmd = cmd
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn and wait for ``/readyz``; returns spawn-to-ready seconds."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        line = self.proc.stdout.readline()
        try:
            self.port = int(json.loads(line)["listening"]["port"])
        except (ValueError, KeyError, TypeError) as exc:
            self.stop()
            raise BenchError(f"daemon did not announce a port: {line!r}") from exc
        while time.perf_counter() - t0 < timeout_s:
            try:
                if http_get(self.port, "/readyz")[0] == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            time.sleep(0.002)
        self.stop()
        raise BenchError("daemon never became ready")

    def high_water_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def metricsz(self) -> dict:
        return http_get(self.port, "/metricsz")[1]

    def stop(self) -> tuple[int, dict | None]:
        """SIGTERM (drain) and wait; returns (exit code, stopped summary)."""
        if self.proc is None:
            return 0, None
        rc = stop_process(self.proc)
        tail = self.proc.stdout.read().decode(errors="replace").strip().splitlines()
        self.proc.stdout.close()
        summary = None
        if tail:
            try:
                summary = json.loads(tail[-1])
            except ValueError:
                summary = None
        return rc, summary


# -- open-loop phases ---------------------------------------------------------


@dataclass
class Phase:
    rate: float
    due: list[float]
    sent: list[float]
    recv: list[float | None]
    docs: list[dict | None]
    payload_idx: list[int]
    ids: list[str]
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: share of the machine's CPU time the hypervisor took during the phase
    steal: float | None = None

    @property
    def attempted(self) -> int:
        return len(self.due)

    def latencies_ms(self) -> list[float]:
        return [(r - d) * 1e3 for r, d in zip(self.recv, self.due) if r is not None]

    def p50_ms(self) -> float:
        lat = self.latencies_ms()
        return percentile(lat, 50) if lat else float("inf")

    def summary(self) -> dict:
        lat = self.latencies_ms()
        late = [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]
        n = len(self.due)
        t_end = self.due[-1]
        outstanding = sum(1 for r in self.recv if r is None or r > t_end)
        quarter = max(1, n // 4)
        head = [(r - d) * 1e3 for r, d in zip(self.recv[:quarter], self.due[:quarter]) if r]
        tail = [(r - d) * 1e3 for r, d in zip(self.recv[-quarter:], self.due[-quarter:]) if r]
        trend = median(tail) - median(head) if head and tail else float("inf")
        answered = [r for r in self.recv if r is not None]
        ok = sum(1 for doc in self.docs if doc and doc.get("status") == 200)
        span = (max(answered) - self.due[0]) if answered else 0.0
        grew = trend > BACKLOG_TREND_MS or outstanding > 8 + self.rate * BACKLOG_QUEUED_MS / 1e3
        out = {
            "rate": self.rate,
            "requests": n,
            "answered": len(answered),
            "failed": self.failed,
            "p50_ms": self.p50_ms(),
            "p99_ms": percentile(lat, 99) if lat else float("inf"),
            "lateness_p50_ms": percentile(late, 50),
            "lateness_p99_ms": percentile(late, 99),
            "outstanding_at_end": outstanding,
            "owed_at_last_send": self.owed_at_last_send(),
            "latency_trend_ms": trend,
            "backlog_grew": grew,
            "kept_schedule": percentile(late, 99) <= LATENESS_LIMIT_MS,
            "goodput_rps": ok / span if span > 0 else 0.0,
            "steal": self.steal,
            "failures": self.failures,
        }
        out["drain_rps"] = self.drain_rps()
        return out

    def owed_at_last_send(self) -> int:
        """Requests still unanswered when the generator sent its last one."""
        return sum(1 for r in self.recv if r is None or r > self.sent[-1])

    def drain_rps(self) -> float:
        """Correct answers per second from the first answer to the last:
        under overload, the rate at which the daemon drains its backlog."""
        times = sorted(
            r for r, doc in zip(self.recv, self.docs) if doc and doc.get("status") == 200
        )
        if len(times) < 2 or times[-1] <= times[0]:
            return 0.0
        return (len(times) - 1) / (times[-1] - times[0])


def _receiver(sock: socket.socket, phase: Phase, index: dict[str, int], expected: int) -> None:
    rfile = sock.makefile("rb")
    try:
        for _ in range(expected):
            line = rfile.readline()
            if not line:
                return
            now = time.monotonic()
            doc = json.loads(line)
            i = index.get(doc.get("id"))
            if i is not None:
                phase.recv[i] = now
                phase.docs[i] = doc
    except (OSError, ValueError):
        return
    finally:
        rfile.close()


def run_phase(
    port: int,
    traffic: Traffic,
    rate: float,
    duration_s: float,
    tag: str,
    offset: int = 0,
    grace_s: float = 20.0,
) -> Phase:
    """Send ``rate * duration_s`` requests on the open-loop schedule, wait
    for every answer (up to ``grace_s`` after the last send), check each
    against the reference."""
    n = max(1, int(round(rate * duration_s)))
    n_payloads = len(traffic.b64)
    payload_idx = [(offset + i) % n_payloads for i in range(n)]
    ids = [f"{tag}-{i}" for i in range(n)]
    lines = [payload_line(ids[i], traffic.b64[payload_idx[i]]) for i in range(n)]
    phase = Phase(rate, [0.0] * n, [0.0] * n, [None] * n, [None] * n, payload_idx, ids)
    index = {req_id: i for i, req_id in enumerate(ids)}
    socks = [socket.create_connection(("127.0.0.1", port)) for _ in range(CONNECTIONS)]
    threads = []
    jiffies = cpu_jiffies()
    try:
        for k, sock in enumerate(socks):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            expected = len(range(k, n, CONNECTIONS))
            thread = threading.Thread(target=_receiver, args=(sock, phase, index, expected))
            thread.start()
            threads.append(thread)
        t0 = time.monotonic() + 0.01
        for i in range(n):
            due = t0 + i / rate
            phase.due[i] = due
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            socks[i % CONNECTIONS].sendall(lines[i])
            phase.sent[i] = time.monotonic()
        deadline = time.monotonic() + grace_s
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for thread in threads:
            thread.join()
    phase.steal = steal_share(jiffies)
    for i in range(n):
        doc = phase.docs[i]
        want = traffic.reference[payload_idx[i]]
        if doc is None:
            problem = "unanswered"
        elif doc.get("status") != 200:
            problem = f"status {doc.get('status')}"
        elif (doc.get("verdict"), doc.get("margin")) != want:
            problem = f"got {(doc.get('verdict'), doc.get('margin'))}, reference {want}"
        else:
            continue
        phase.failed += 1
        if len(phase.failures) < 5:
            phase.failures.append(f"{ids[i]}: {problem}")
    return phase


class Capacity:
    """Saturation probes for ``serve_max_rps``, one at a time, so that they
    can be spread over a run."""

    def __init__(self, rate: float, wanted: int):
        #: the rate the next probe offers
        self.rate = rate
        self.wanted = wanted
        self.probes: list[Phase] = []
        #: the probes that count: saturated, and without a failed request
        self.saturated: list[Phase] = []
        self.doublings = 0

    @property
    def capped(self) -> bool:
        """The daemon kept up with every rate offered: ``max_rps`` is only
        a lower bound."""
        return self.doublings > MAX_DOUBLINGS

    @property
    def complete(self) -> bool:
        return len(self.saturated) >= self.wanted

    @property
    def done(self) -> bool:
        # probes that do not count are made up, but not without end
        given_up = len(self.probes) >= 2 * self.wanted + MAX_DOUBLINGS
        return self.complete or self.capped or given_up

    def record(self, phase: Phase) -> None:
        self.probes.append(phase)
        if phase.drain_rps() >= SATURATED_SHARE * phase.rate:
            self.doublings += 1
            self.rate *= 2
        elif not phase.failed and phase.owed_at_last_send() >= SATURATED_BACKLOG * phase.attempted:
            self.saturated.append(phase)

    def max_rps(self) -> float:
        """The median drain rate of the probes that count (of all probes,
        when none does)."""
        return median(phase.drain_rps() for phase in self.saturated or self.probes)


def pooled_summary(phases: list[Phase]) -> dict:
    """Latency and generator lateness over several phases at one rate."""
    latencies = [ms for phase in phases for ms in phase.latencies_ms()]
    lateness = [
        (sent - due) * 1e3 for phase in phases for sent, due in zip(phase.sent, phase.due)
    ]
    return {
        "rate": phases[0].rate,
        "slices": len(phases),
        "requests": sum(phase.attempted for phase in phases),
        "answered": len(latencies),
        "failed": sum(phase.failed for phase in phases),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "lateness_p50_ms": percentile(lateness, 50),
        "lateness_p99_ms": percentile(lateness, 99),
    }
