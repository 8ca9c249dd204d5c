"""Synchronous request decode + scoring core for the serving daemon.

This module is asyncio-free: the daemon calls :meth:`RequestScorer.score_batch`
from an executor thread so decoding (which may hit the salvage parser) never
blocks the event loop.  Every per-request failure is mapped to a structured
response document; only process-level bugs may raise out of here.

Request line (newline-delimited JSON)::

    {"id": "req-1", "payload_b64": "<base64 trace-cache blob>"}
    {"id": "req-2", "rows": [[...], [...]]}

``payload_b64`` goes through the full versioned codec — including the
salvage decoder — so the daemon accepts the same damaged captures the batch
pipeline does; undecodable payloads are answered with the codec's typed
error and recorded in a quarantine manifest.  ``rows`` is the pre-decoded
fast path for callers that already hold the interval matrix.

Response line::

    {"id": "req-1", "ok": true, "status": 200, "verdict": 1, "margin": ...,
     "n_intervals": 6, "decode_mode": "salvage", "degraded": true,
     "artifact": "v0001-3fa9c1d2"}
    {"id": "req-2", "ok": false, "status": 400,
     "error": {"code": "bad_request", "type": "BadRequest", "message": "..."}}
"""

from __future__ import annotations

import base64
import binascii
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import BadRequest, ReproError, TraceDecodeError
from ..ingest.quarantine import QuarantineManifest
from ..model import LoadedArtifact, trace_verdicts
from ..sim.trace import decode_trace, family_key
from ..telemetry import get_logger, log_event

logger = get_logger("repro.serve.scorer")

#: request payload cap: a line larger than this is refused before decode
MAX_PAYLOAD_BYTES = 64 << 20


@dataclass
class ScoreRequest:
    """One enqueued scoring request, parsed off the wire."""

    req_id: str
    raw: dict
    received_mono: float
    deadline_mono: float
    #: set by the service layer; resolved with the response document
    future: object = None
    #: labeled-feedback fields, filled during scoring when the request
    #: carries a ``label``: the decoded rows and family feed the drift
    #: monitor and the retrain supervisor's feedback buffer
    label: int | None = None
    family: str | None = None
    rows: np.ndarray | None = None

    def expired(self, now: float | None = None) -> bool:
        return (now if now is not None else time.monotonic()) > self.deadline_mono


def parse_request_line(line: bytes) -> dict:
    """Parse one NDJSON request line.  Raises :class:`BadRequest`."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadRequest(f"request line is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise BadRequest(f"request must be a JSON object, got {type(obj).__name__}")
    return obj


def parse_feedback(obj: dict) -> tuple[int | None, str | None]:
    """``(label, family)`` from a request document; raises :class:`BadRequest`.

    ``label`` is the ground-truth trace verdict (+1 attack / -1 benign)
    supplied by an operator or the replay harness.  Booleans are rejected
    explicitly: ``bool`` is an ``int`` subclass, so without the guard
    ``True in (-1, 1)`` would quietly accept ``true`` as an attack label.
    """
    label = obj.get("label")
    family = obj.get("family")
    if family is not None and not isinstance(family, str):
        raise BadRequest(f"family must be a string, got {type(family).__name__}")
    if label is None:
        return None, family
    if isinstance(label, bool) or not isinstance(label, int) or label not in (-1, 1):
        raise BadRequest(f"label must be -1 or +1, got {label!r}")
    return int(label), family


def error_response(req_id: str, exc: BaseException) -> dict:
    """Structured error document for any failure, typed or not."""
    if isinstance(exc, ReproError):
        desc = exc.describe()
    else:  # a bug surfaced per-request: still answer, loudly typed as such
        desc = {"code": "internal", "type": type(exc).__name__, "message": str(exc)}
    status = int(desc.pop("status", 500))
    if isinstance(exc, TraceDecodeError):
        status = 422  # unprocessable payload: decode-level refusal
    return {"id": req_id, "ok": False, "status": status, "error": desc}


class RequestScorer:
    """Decodes request payloads and scores them against one loaded artifact.

    Instances are cheap and immutable-ish: a hot reload builds a fresh
    scorer around the new artifact and swaps the reference.  The quarantine
    manifest is shared across swaps so the record of refused payloads
    survives reloads.
    """

    def __init__(
        self,
        artifact: LoadedArtifact,
        *,
        quarantine: QuarantineManifest | None = None,
        quarantine_path=None,
        decode_timeout_s: float = 10.0,
    ):
        self.artifact = artifact
        self.quarantine = quarantine if quarantine is not None else QuarantineManifest(
            root="<serve>"
        )
        self.quarantine_path = quarantine_path
        self.decode_timeout_s = decode_timeout_s
        self._quarantine_lock = threading.Lock()

    # -- decode ----------------------------------------------------------

    def _rows_from_request(self, req: ScoreRequest) -> tuple[np.ndarray, dict]:
        """(rows, decode_info) for one request.  Raises typed errors only."""
        obj = req.raw
        if "payload_b64" in obj:
            payload = obj["payload_b64"]
            if not isinstance(payload, str):
                raise BadRequest("payload_b64 must be a base64 string")
            if len(payload) > MAX_PAYLOAD_BYTES:
                raise BadRequest(
                    f"payload_b64 is {len(payload)} bytes, cap is {MAX_PAYLOAD_BYTES}"
                )
            try:
                blob = base64.b64decode(payload, validate=True)
            except (binascii.Error, ValueError) as exc:
                raise BadRequest(f"payload_b64 is not valid base64: {exc}") from exc
            deadline = time.monotonic() + min(
                self.decode_timeout_s, max(req.deadline_mono - time.monotonic(), 0.05)
            )
            trace, report = decode_trace(
                blob, path=f"request:{req.req_id}", deadline=deadline
            )
            if req.family is None:
                req.family = family_key(trace)
            return np.asarray(trace.rows, dtype=np.float64), {
                "decode_mode": report.mode,
                "degraded": report.degraded,
            }
        if "rows" in obj:
            try:
                rows = np.asarray(obj["rows"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise BadRequest(f"rows is not a numeric matrix: {exc}") from exc
            if rows.ndim != 2 or rows.shape[0] == 0:
                raise BadRequest(f"rows must be a non-empty 2-D matrix, got shape {rows.shape}")
            return rows, {"decode_mode": "rows", "degraded": False}
        raise BadRequest("request needs a payload_b64 or rows field")

    def _check_width(self, rows: np.ndarray) -> None:
        if rows.shape[1] != self.artifact.n_features:
            raise BadRequest(
                f"payload has {rows.shape[1]} features, artifact "
                f"{self.artifact.version} expects {self.artifact.n_features}"
            )

    def _record_quarantine(self, req: ScoreRequest, exc: BaseException) -> None:
        with self._quarantine_lock:
            entry = self.quarantine.add(f"request:{req.req_id}", exc)
            if self.quarantine_path is not None:
                try:
                    self.quarantine.write(self.quarantine_path)
                except OSError as write_exc:
                    log_event(
                        logger,
                        "serve.quarantine_write_failed",
                        error=type(write_exc).__name__,
                    )
        log_event(logger, "serve.quarantine", request=req.req_id, code=entry.code)

    # -- scoring ---------------------------------------------------------

    def score_batch(self, batch: list[ScoreRequest]) -> list[dict]:
        """Decode and score a micro-batch; returns one response per request.

        Failed requests get structured error documents; the survivors are
        stacked into one matrix and scored in a single
        :meth:`LoadedArtifact.score_traces` pass with the artifact's pinned
        margin scales, so batching never changes any verdict.  Each
        answer's ``margin`` is the trace mean from :func:`trace_verdicts`,
        the reduction pipeline eval writes to metrics.json.
        """
        responses: list[dict | None] = [None] * len(batch)
        live: list[tuple[int, np.ndarray, dict]] = []
        for i, req in enumerate(batch):
            try:
                req.label, req.family = parse_feedback(req.raw)
                rows, info = self._rows_from_request(req)
                self._check_width(rows)
            except TraceDecodeError as exc:
                self._record_quarantine(req, exc)
                responses[i] = error_response(req.req_id, exc)
                continue
            except ReproError as exc:
                responses[i] = error_response(req.req_id, exc)
                continue
            if req.label is not None:
                req.rows = rows
            live.append((i, rows, info))

        if live:
            stacked = np.vstack([rows for _, rows, _ in live])
            groups = np.concatenate(
                [
                    np.full(rows.shape[0], k, dtype=np.int64)
                    for k, (_, rows, _) in enumerate(live)
                ]
            )
            margins, verdicts = self.artifact.score_traces(stacked, groups, len(live))
            trace_margins, _ = trace_verdicts(margins, groups, len(live))
            for k, (i, rows, info) in enumerate(live):
                req = batch[i]
                responses[i] = {
                    "id": req.req_id,
                    "ok": True,
                    "status": 200,
                    "verdict": int(verdicts[k]),
                    "margin": float(trace_margins[k]),
                    "n_intervals": int(rows.shape[0]),
                    "artifact": self.artifact.version,
                    **info,
                }
                if req.label is not None:
                    # acknowledged feedback: the caller can tell the label
                    # was accepted into the drift loop, and which family the
                    # trace resolved to
                    responses[i]["feedback"] = True
                    if req.family is not None:
                        responses[i]["family"] = req.family
        assert all(r is not None for r in responses)
        return responses


@dataclass
class ScorerStats:
    """Mutable request counters shared by the service layer; snapshot with
    :meth:`to_json` for ``/metricsz`` and the shutdown summary."""

    received: int = 0
    answered: int = 0
    ok: int = 0
    errors: int = 0
    shed: int = 0
    expired: int = 0
    quarantined: int = 0
    score_timeouts: int = 0
    score_errors: int = 0
    watchdog_restarts: int = 0
    reloads: int = 0
    reload_failures: int = 0
    slow_client_drops: int = 0
    bad_lines: int = 0
    batches: int = 0
    http_probes: int = 0
    #: error-code histogram across all non-ok responses
    error_codes: dict = field(default_factory=dict)

    def count_error(self, code: str) -> None:
        self.errors += 1
        self.error_codes[code] = self.error_codes.get(code, 0) + 1

    def to_json(self) -> dict:
        return {
            "received": self.received,
            "answered": self.answered,
            "ok": self.ok,
            "errors": self.errors,
            "shed": self.shed,
            "expired": self.expired,
            "quarantined": self.quarantined,
            "score_timeouts": self.score_timeouts,
            "score_errors": self.score_errors,
            "watchdog_restarts": self.watchdog_restarts,
            "reloads": self.reloads,
            "reload_failures": self.reload_failures,
            "slow_client_drops": self.slow_client_drops,
            "bad_lines": self.bad_lines,
            "batches": self.batches,
            "http_probes": self.http_probes,
            "error_codes": dict(sorted(self.error_codes.items())),
        }
