"""The asyncio scoring daemon.

One event loop, four long-lived tasks:

- **accept loop** (``asyncio.start_server``): reads NDJSON request lines,
  sniffs HTTP probes (``GET /healthz`` etc.) on the same port, enqueues
  scoring requests onto a *bounded* queue, and sheds with a structured
  503-style response when the queue is full.
- **batcher**: pulls requests off the queue, coalesces a micro-batch (up to
  ``max_batch`` requests or ``batch_window_ms``), drops already-expired
  requests with 504-style responses, and runs the synchronous
  :class:`~repro.serve.scorer.RequestScorer` in the default executor under a
  ``score_timeout_s`` watchdog budget — a wedged batch answers every caller
  with a structured error instead of hanging them.
- **watchdog**: restarts the batcher if it ever dies or wedges past its
  budget, so a scoring bug degrades one batch, not the daemon.
- **reloader**: polls the artifact store's ``CURRENT`` pointer; a changed
  pointer hot-swaps the scorer, and a version that fails verification is
  skipped (last-good artifact keeps serving) until the pointer moves again.

``SIGTERM``/``SIGINT`` set the draining flag: ``/readyz`` flips to 503, the
listener closes, queued requests are scored and answered, then the daemon
exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import dataclass

from ..drift import DriftConfig, DriftMonitor
from ..errors import ArtifactError, BadRequest, DeadlineExceeded, Overloaded, ScoringWedged
from ..model.artifact import ArtifactStore
from ..telemetry import get_logger, log_event, span
from .scorer import RequestScorer, ScoreRequest, ScorerStats, error_response, parse_request_line
from .supervisor import RetrainSupervisor

logger = get_logger("repro.serve")

_HTTP_METHODS = (b"GET ", b"HEAD ")


@dataclass
class ServeConfig:
    artifact_root: str = "runs/artifact"
    host: str = "127.0.0.1"
    port: int = 8765
    #: bounded request queue: beyond this, requests are shed with a 503
    max_queue: int = 256
    #: requests coalesced into one scoring call
    max_batch: int = 32
    #: how long the batcher waits to fill a batch once it holds one request
    batch_window_ms: float = 2.0
    #: per-request deadline (queue wait + scoring)
    request_timeout_s: float = 10.0
    #: watchdog budget for one scoring batch
    score_timeout_s: float = 30.0
    #: slow-client write budget; a client that cannot drain is disconnected
    write_timeout_s: float = 5.0
    #: idle read budget per connection
    idle_timeout_s: float = 60.0
    #: seconds between CURRENT-pointer polls (0 disables hot reload)
    reload_poll_s: float = 2.0
    #: longest accepted request line
    max_line_bytes: int = 8 << 20
    #: salvage-decode budget per request payload
    decode_timeout_s: float = 10.0
    #: quarantine manifest for refused payloads (None = in-memory only)
    quarantine_path: str | None = None
    #: hard cap on drain time at shutdown
    drain_timeout_s: float = 30.0

    # -- drift monitoring / online learning (defaults keep all of it OFF,
    # -- so a daemon configured like the previous release behaves
    # -- bit-identically to it) -----------------------------------------
    #: scored traces per drift-evaluation window (0 disables the monitor)
    drift_window: int = 0
    #: labeled events a window needs before accuracy verdicts fire
    drift_min_feedback: int = 20
    #: PSI of the margin distribution vs the reference above this is drift
    drift_psi_threshold: float = 0.25
    #: |margin mean shift| in reference-std units above this is drift
    drift_margin_sigma: float = 3.0
    #: rolling feedback accuracy below this is a drift verdict
    drift_accuracy_floor: float = 0.75
    #: rolling feedback accuracy below this raises the rollback signal
    drift_rollback_floor: float = 0.5
    #: quiet windows after a drift verdict
    drift_cooldown_windows: int = 2
    #: where suspect windows are quarantined as JSON (None = telemetry only)
    drift_quarantine_dir: str | None = None
    #: enable the retrain -> canary -> promote/rollback supervisor
    supervise: bool = False
    #: retrain strategy: incremental passes over feedback, or full refit
    retrain_mode: str = "partial"
    #: partial_fit passes (or minimum full-fit epochs) per retrain
    retrain_passes: int = 2
    #: wall-clock budget for one retrain subprocess
    retrain_timeout_s: float = 120.0
    #: member-fit processes inside a full-mode retrain (bit-identical for
    #: any N; partial mode always trains in-process)
    retrain_workers: int = 1
    #: labeled traces needed before a retrain is attempted
    retrain_min_traces: int = 8
    #: base / cap of the exponential backoff after a failed retrain or a
    #: rejected canary
    retrain_backoff_s: float = 5.0
    retrain_backoff_max_s: float = 300.0
    #: labeled traces the canary gate wants to shadow-score
    canary_min_traces: int = 16
    #: candidate must reach live accuracy minus this tolerance...
    canary_margin: float = 0.02
    #: ...and this absolute accuracy floor, to be promoted
    canary_floor: float = 0.6
    #: give up on a canary that cannot collect labeled traffic in time
    canary_timeout_s: float = 60.0
    #: labeled traces kept in the feedback ring buffer
    feedback_capacity: int = 4096


class ScoringService:
    """Lifecycle owner for the daemon; usable in-process for tests."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.store = ArtifactStore(config.artifact_root)
        self.stats = ScorerStats()
        self.scorer: RequestScorer | None = None
        self.queue: asyncio.Queue[ScoreRequest] = asyncio.Queue(maxsize=max(1, config.max_queue))
        self.draining = False
        self._started_mono = time.monotonic()
        self._server: asyncio.AbstractServer | None = None
        self._batcher_task: asyncio.Task | None = None
        self._watchdog_task: asyncio.Task | None = None
        self._reload_task: asyncio.Task | None = None
        self._batch_started_mono: float | None = None
        #: requests dequeued by the batcher but not yet answered; drain waits
        #: on this as well as the queue so the coalescing window cannot hide
        #: a request from shutdown
        self._inflight = 0
        self._bad_versions: set[str] = set()
        self._stop_event = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        self.monitor: DriftMonitor | None = None
        if config.drift_window > 0:
            self.monitor = DriftMonitor(
                DriftConfig(
                    window=config.drift_window,
                    min_feedback=config.drift_min_feedback,
                    psi_threshold=config.drift_psi_threshold,
                    margin_sigma=config.drift_margin_sigma,
                    accuracy_floor=config.drift_accuracy_floor,
                    rollback_floor=config.drift_rollback_floor,
                    cooldown_windows=config.drift_cooldown_windows,
                    quarantine_dir=config.drift_quarantine_dir,
                )
            )
        self.supervisor: RetrainSupervisor | None = (
            RetrainSupervisor(self, config) if config.supervise else None
        )
        self._supervisor_task: asyncio.Task | None = None

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    @property
    def ready(self) -> bool:
        return self.scorer is not None and not self.draining

    async def start(self) -> None:
        """Load the artifact (with last-good fallback) and begin serving."""
        loaded = self.store.load_with_fallback()
        current = self.store.current()
        if current is not None and current != loaded.version:
            self._bad_versions.add(current)
        self.scorer = self._make_scorer(loaded)
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=self.config.max_line_bytes,
        )
        self._batcher_task = asyncio.create_task(self._batcher(), name="serve-batcher")
        self._watchdog_task = asyncio.create_task(self._watchdog(), name="serve-watchdog")
        if self.config.reload_poll_s > 0:
            self._reload_task = asyncio.create_task(self._reloader(), name="serve-reloader")
        if self.supervisor is not None:
            self._supervisor_task = asyncio.create_task(
                self.supervisor.run(), name="serve-supervisor"
            )
        log_event(
            logger,
            "serve.start",
            host=self.config.host,
            port=self.port,
            artifact=loaded.version,
            max_queue=self.config.max_queue,
            max_batch=self.config.max_batch,
        )

    def _make_scorer(self, loaded) -> RequestScorer:
        previous = self.scorer
        return RequestScorer(
            loaded,
            quarantine=previous.quarantine if previous is not None else None,
            quarantine_path=self.config.quarantine_path,
            decode_timeout_s=self.config.decode_timeout_s,
        )

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_stop, sig.name)

    def request_stop(self, reason: str = "request") -> None:
        if not self._stop_event.is_set():
            log_event(logger, "serve.stop_requested", reason=reason)
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        await self._stop_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Drain-then-exit: stop accepting, answer everything queued, stop."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while (not self.queue.empty() or self._inflight) and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        drained = self.queue.empty() and not self._inflight
        for task in (
            self._supervisor_task,
            self._reload_task,
            self._watchdog_task,
            self._batcher_task,
        ):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        # connections still waiting on a response have been answered by the
        # drained batcher; anything left is a half-open client
        for writer in list(self._writers):
            writer.close()
        log_event(
            logger,
            "serve.stopped",
            drained=drained,
            **self.stats.to_json() | {"error_codes": "-"},
        )

    # -- connection handling --------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=self.config.idle_timeout_s
                    )
                except asyncio.TimeoutError:
                    self.stats.slow_client_drops += 1
                    log_event(logger, "serve.idle_drop", peer=_peer(writer))
                    return
                except (ValueError, asyncio.LimitOverrunError):
                    # line longer than max_line_bytes: refuse and drop the
                    # connection (the stream is no longer line-aligned)
                    self.stats.bad_lines += 1
                    await self._send_line(
                        writer,
                        error_response(
                            "?", BadRequest(f"line exceeds {self.config.max_line_bytes} bytes")
                        ),
                    )
                    return
                if not line:
                    return  # EOF
                if line.startswith(_HTTP_METHODS):
                    await self._handle_http(line, reader, writer)
                    return
                if not line.strip():
                    continue
                response = await self._handle_request_line(line)
                if not await self._send_line(writer, response):
                    return
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle_request_line(self, line: bytes) -> dict:
        self.stats.received += 1
        now = time.monotonic()
        try:
            raw = parse_request_line(line)
        except BadRequest as exc:
            self.stats.bad_lines += 1
            return self._finish("?", error_response("?", exc), now)
        req_id = str(raw.get("id", "?"))
        req = ScoreRequest(
            req_id=req_id,
            raw=raw,
            received_mono=now,
            deadline_mono=now + self.config.request_timeout_s,
        )
        if self.draining:
            return self._finish(
                req_id, error_response(req_id, Overloaded("service is draining")), now
            )
        req.future = asyncio.get_running_loop().create_future()
        try:
            self.queue.put_nowait(req)
        except asyncio.QueueFull:
            self.stats.shed += 1
            return self._finish(
                req_id,
                error_response(
                    req_id,
                    Overloaded(
                        f"request queue is full ({self.config.max_queue}); shed"
                    ),
                ),
                now,
            )
        try:
            response = await asyncio.wait_for(
                req.future,
                timeout=self.config.request_timeout_s + self.config.score_timeout_s + 5.0,
            )
        except asyncio.TimeoutError:  # batcher lost the request: answer anyway
            response = error_response(req_id, ScoringWedged("response never materialized"))
        return self._finish(req_id, response, now)

    def _finish(self, req_id: str, response: dict, t0: float) -> dict:
        latency_ms = (time.monotonic() - t0) * 1e3
        response["latency_ms"] = round(latency_ms, 3)
        self.stats.answered += 1
        if response.get("ok"):
            self.stats.ok += 1
        else:
            code = response.get("error", {}).get("code", "internal")
            self.stats.count_error(code)
            if response.get("status") == 422:
                self.stats.quarantined += 1
        log_event(
            logger,
            "serve.request",
            level=10,  # DEBUG: per-request spans stay greppable, not noisy
            request=req_id,
            status=response.get("status"),
            ok=response.get("ok"),
            latency_ms=f"{latency_ms:.2f}",
        )
        return response

    async def _send_line(self, writer: asyncio.StreamWriter, doc: dict) -> bool:
        """Write one response line under the slow-client budget.  Returns
        False when the client could not take it (connection is dropped)."""
        try:
            writer.write(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
            await asyncio.wait_for(writer.drain(), timeout=self.config.write_timeout_s)
        except asyncio.TimeoutError:
            self.stats.slow_client_drops += 1
            log_event(logger, "serve.slow_client_drop", peer=_peer(writer))
            writer.close()
            return False
        except (ConnectionError, BrokenPipeError, RuntimeError):
            return False
        return True

    # -- HTTP probes -----------------------------------------------------

    async def _handle_http(self, request_line: bytes, reader, writer) -> None:
        self.stats.http_probes += 1
        try:
            target = request_line.split()[1].decode("latin-1")
        except (IndexError, UnicodeDecodeError):
            target = "/"
        try:  # drain headers so the close is clean; tolerate rude clients
            await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=1.0)
        except Exception:
            pass
        status, body = self._probe_response(target)
        payload = json.dumps(body, indent=None).encode()
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Service Unavailable' if status == 503 else 'Not Found'}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + payload)
            await asyncio.wait_for(writer.drain(), timeout=self.config.write_timeout_s)
        except Exception:
            pass

    def _probe_response(self, target: str) -> tuple[int, dict]:
        target = target.split("?", 1)[0]
        if target == "/healthz":
            return 200, {"status": "ok", "uptime_s": round(time.monotonic() - self._started_mono, 3)}
        if target == "/readyz":
            if self.ready:
                return 200, {"status": "ready", "artifact": self.scorer.artifact.version}
            return 503, {"status": "draining" if self.draining else "loading"}
        if target in ("/metricsz", "/metrics"):
            return 200, {
                "artifact": self.scorer.artifact.version if self.scorer else None,
                "queue_depth": self.queue.qsize(),
                "queue_limit": self.config.max_queue,
                "draining": self.draining,
                "uptime_s": round(time.monotonic() - self._started_mono, 3),
                "counters": self.stats.to_json(),
                "drift": self.monitor.counters() if self.monitor is not None else None,
                "supervisor": (
                    self.supervisor.stats.to_json() | {
                        "feedback_buffered": len(self.supervisor.feedback),
                        "backoff_remaining_s": round(self.supervisor.backoff_remaining(), 3),
                    }
                    if self.supervisor is not None
                    else None
                ),
            }
        return 404, {"error": f"unknown probe {target}"}

    # -- batcher ---------------------------------------------------------

    async def _batcher(self) -> None:
        loop = asyncio.get_running_loop()
        window_s = self.config.batch_window_ms / 1e3
        while True:
            req = await self.queue.get()
            self._inflight += 1
            batch = [req]
            t0 = loop.time()
            while len(batch) < self.config.max_batch:
                remaining = window_s - (loop.time() - t0)
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(self.queue.get(), timeout=remaining))
                    self._inflight += 1
                except asyncio.TimeoutError:
                    break
            try:
                await self._score_batch(batch)
            finally:
                self._inflight -= len(batch)

    async def _score_batch(self, batch: list[ScoreRequest]) -> None:
        now = time.monotonic()
        live: list[ScoreRequest] = []
        for req in batch:
            if req.expired(now):
                self.stats.expired += 1
                self._respond(
                    req,
                    error_response(
                        req.req_id, DeadlineExceeded("request expired in the queue")
                    ),
                )
            else:
                live.append(req)
        if not live:
            return
        self.stats.batches += 1
        self._batch_started_mono = time.monotonic()
        loop = asyncio.get_running_loop()
        scorer = self.scorer  # pin: a concurrent reload must not split a batch
        try:
            with span(
                logger, "serve.batch", requests=len(live), artifact=scorer.artifact.version
            ):
                responses = await asyncio.wait_for(
                    loop.run_in_executor(None, scorer.score_batch, live),
                    timeout=self.config.score_timeout_s,
                )
        except asyncio.TimeoutError:
            self.stats.score_timeouts += 1
            for req in live:
                self._respond(
                    req,
                    error_response(
                        req.req_id,
                        ScoringWedged(
                            f"scoring exceeded {self.config.score_timeout_s}s; batch recycled"
                        ),
                    ),
                )
            return
        except Exception as exc:  # a scoring bug answers, never wedges
            self.stats.score_errors += 1
            log_event(
                logger, "serve.score_error", level=40, error=f"{type(exc).__name__}: {exc}"
            )
            for req in live:
                self._respond(req, error_response(req.req_id, exc))
            return
        finally:
            self._batch_started_mono = None
        for req, response in zip(live, responses):
            self._respond(req, response)
        self._observe_batch(live, responses)

    def _observe_batch(self, batch: list[ScoreRequest], responses: list[dict]) -> None:
        """Feed the drift monitor and the supervisor's feedback buffer after
        a scored batch.  Runs on the event-loop thread (so the monitor needs
        no locks) and never raises: the drift loop observes serving, it must
        not be able to break it."""
        if self.monitor is None and self.supervisor is None:
            return
        try:
            for req, resp in zip(batch, responses):
                if not resp.get("ok"):
                    continue
                if self.monitor is not None:
                    self.monitor.observe(
                        resp["margin"],
                        resp["verdict"],
                        label=req.label,
                        family=req.family,
                    )
                if (
                    self.supervisor is not None
                    and req.label is not None
                    and req.rows is not None
                ):
                    self.supervisor.add_feedback(req.rows, req.label, req.family)
            if self.monitor is not None:
                report = self.monitor.maybe_evaluate()
                if report is not None and self.supervisor is not None:
                    self.supervisor.on_report(report)
        except Exception as exc:
            log_event(
                logger,
                "serve.observe_error",
                level=40,
                error=f"{type(exc).__name__}: {exc}",
            )

    def adopt_artifact(self, loaded) -> None:
        """Swap the live scorer to an already-verified artifact (canary
        promotion or rollback).  The swap is one attribute assignment — the
        batcher pins ``self.scorer`` before each batch, so an in-flight
        batch finishes whole on the model it started with.  The drift
        reference resets: a new model defines its own normal."""
        previous = self.scorer.artifact.version if self.scorer else None
        self.scorer = self._make_scorer(loaded)
        self.stats.reloads += 1
        if self.monitor is not None:
            self.monitor.reset()
        log_event(logger, "serve.adopt", version=loaded.version, previous=previous)

    def mark_bad_version(self, version: str) -> None:
        """Exclude a version from hot reload (used after a rollback so the
        poller cannot resurrect the model that was just rolled back)."""
        self._bad_versions.add(version)

    @staticmethod
    def _respond(req: ScoreRequest, response: dict) -> None:
        future = req.future
        if future is not None and not future.done():
            future.set_result(response)

    # -- watchdog --------------------------------------------------------

    async def _watchdog(self) -> None:
        poll = max(0.2, self.config.score_timeout_s / 10)
        while True:
            await asyncio.sleep(poll)
            task = self._batcher_task
            if task is None or not task.done():
                # also recycle a batch wedged *around* the wait_for (e.g. an
                # executor so starved the timeout callback cannot run)
                started = self._batch_started_mono
                if started is not None and (
                    time.monotonic() - started > self.config.score_timeout_s * 2 + 1
                ):
                    log_event(logger, "serve.watchdog_wedged", level=40)
                    task.cancel()
                continue
            exc = task.exception() if not task.cancelled() else None
            self.stats.watchdog_restarts += 1
            log_event(
                logger,
                "serve.watchdog_restart",
                level=40,
                error=f"{type(exc).__name__}: {exc}" if exc else "cancelled",
            )
            self._batch_started_mono = None
            self._batcher_task = asyncio.create_task(self._batcher(), name="serve-batcher")

    # -- hot reload ------------------------------------------------------

    async def _reloader(self) -> None:
        while True:
            await asyncio.sleep(self.config.reload_poll_s)
            try:
                self._maybe_reload()
            except Exception as exc:  # never let the reloader die
                log_event(
                    logger, "serve.reload_error", level=40, error=f"{type(exc).__name__}: {exc}"
                )

    def _maybe_reload(self) -> None:
        current = self.store.current()
        serving = self.scorer.artifact.version if self.scorer else None
        if current is None or current == serving or current in self._bad_versions:
            return
        try:
            loaded = self.store.load(current)
        except ArtifactError as exc:
            self.stats.reload_failures += 1
            self._bad_versions.add(current)
            log_event(
                logger,
                "serve.reload_failed",
                level=40,
                version=current,
                keeping=serving,
                error=str(exc)[:160],
            )
            return
        self.scorer = self._make_scorer(loaded)
        self.stats.reloads += 1
        log_event(logger, "serve.reload", version=loaded.version, previous=serving)


def _peer(writer: asyncio.StreamWriter) -> str:
    try:
        peer = writer.get_extra_info("peername")
        return f"{peer[0]}:{peer[1]}" if peer else "?"
    except Exception:
        return "?"


async def run_service(config: ServeConfig) -> int:
    """Run until SIGTERM/SIGINT; returns the process exit code."""
    service = ScoringService(config)
    try:
        await service.start()
    except ArtifactError as exc:
        log_event(logger, "serve.refused", level=40, code=exc.code, error=str(exc))
        return 2
    # machine-readable announce on stdout (logs go to stderr): lets a
    # supervisor or the bench discover the bound port when --port 0
    print(
        json.dumps(
            {
                "listening": {"host": config.host, "port": service.port},
                "artifact": service.scorer.artifact.version,
            }
        ),
        flush=True,
    )
    service.install_signal_handlers()
    await service.serve_until_stopped()
    print(json.dumps({"stopped": True, "counters": service.stats.to_json()}), flush=True)
    return 0
