"""Scoring-service failure modes and the golden serve/batch parity contract.

Each test spins a real :class:`ScoringService` on an ephemeral port inside
``asyncio.run`` and talks NDJSON to it over loopback — no mocked transport,
so slow-client and drain behavior is exercised for real.
"""

from __future__ import annotations

import asyncio
import base64
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import make_trace, wait_for_state
from repro.features import Normalizer, build_dataset
from repro.ingest import load_corpus_pooled
from repro.model import ArtifactStore, HashedPerceptron, margin_scales, trace_verdicts
from repro.pipeline import PipelineConfig, _margin_stats, run_pipeline, split_traces
from repro.pipeline.__main__ import main as pipeline_main
from repro.serve import ScoringService, ServeConfig
from repro.serve.__main__ import build_parser
from repro.sim.trace import decode_trace, encode_trace, family_key

GOLDEN_CONFIG = {"test_frac": 0.3, "epochs": 8, "seed": 7, "n_models": 2, "theta": 5.0}


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_artifact_root(tmp_path_factory):
    """A tiny published artifact for protocol/robustness tests."""
    root = tmp_path_factory.mktemp("serve") / "artifact"
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 12))
    y = np.where(rng.random(40) > 0.5, 1, -1)
    norm = Normalizer().fit(X)
    Z = norm.transform(X)
    models = []
    for seed in (1, 2):
        m = HashedPerceptron(12, seed=seed, theta=5.0)
        m.fit(Z, y, epochs=3)
        models.append(m)
    ArtifactStore(root).publish(models, norm, margin_scales(models, Z))
    return root


def serve_config(root, **overrides) -> ServeConfig:
    base = dict(
        artifact_root=str(root),
        port=0,
        reload_poll_s=0,
        idle_timeout_s=10.0,
        request_timeout_s=5.0,
    )
    base.update(overrides)
    return ServeConfig(**base)


async def rpc(port: int, doc: dict, *, timeout: float = 10.0) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(json.dumps(doc).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        return json.loads(line)
    finally:
        writer.close()


async def http_probe(port: int, target: str) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(1 << 16), timeout=5)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def trace_payload(**kwargs) -> str:
    return base64.b64encode(encode_trace(make_trace(**kwargs))).decode()


def request_line(doc: dict) -> bytes:
    return json.dumps(doc).encode() + b"\n"


async def read_answers(reader, n: int, *, timeout: float = 10.0) -> list[dict]:
    return [json.loads(await asyncio.wait_for(reader.readline(), timeout)) for _ in range(n)]


def in_flight(service) -> int:
    """Requests queued or in the batcher's hands."""
    return service.queue.qsize() + service._inflight


def unanswered(service) -> int:
    """Lines read but not yet answered, malformed ones included."""
    return service.stats.received - service.stats.answered


async def stays(predicate, what: str, *, seconds: float = 0.2) -> None:
    """Assert ``predicate`` holds on every 10 ms poll for ``seconds``."""
    for _ in range(int(seconds / 0.01)):
        assert predicate(), what
        await asyncio.sleep(0.01)


# ---------------------------------------------------------------------------
# protocol + robustness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", ["0", "-1"])
def test_idle_timeout_must_be_positive(value):
    # at <= 0 the daemon would drop every connection as idle before answering
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--idle-timeout", value])
    assert exc.value.code == 2


class TestProtocol:
    def test_scores_payload_and_rows(self, small_artifact_root):
        async def scenario():
            service = ScoringService(serve_config(small_artifact_root))
            await service.start()
            try:
                r1 = await rpc(service.port, {"id": "a", "payload_b64": trace_payload()})
                assert r1["ok"] and r1["status"] == 200
                assert r1["verdict"] in (-1, 1)
                assert r1["decode_mode"] == "clean"
                rows = make_trace().rows.tolist()
                r2 = await rpc(service.port, {"id": "b", "rows": rows})
                assert r2["ok"] and r2["decode_mode"] == "rows"
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_corrupt_payload_structured_error_and_quarantine(
        self, small_artifact_root, tmp_path
    ):
        qpath = tmp_path / "quarantine.json"

        async def scenario():
            service = ScoringService(
                serve_config(small_artifact_root, quarantine_path=str(qpath))
            )
            await service.start()
            try:
                blob = base64.b64encode(b"not a trace at all").decode()
                r = await rpc(service.port, {"id": "bad", "payload_b64": blob})
                assert r["ok"] is False
                assert r["status"] == 422
                assert r["error"]["code"] in ("truncated", "bad_header")
                # the daemon is still alive and scoring
                r2 = await rpc(service.port, {"id": "ok", "payload_b64": trace_payload()})
                assert r2["ok"]
                assert service.stats.quarantined == 1
            finally:
                await service.shutdown()

        asyncio.run(scenario())
        doc = json.loads(qpath.read_text())
        assert doc["total"] == 1
        assert doc["entries"][0]["path"] == "request:bad"

    def test_malformed_json_line_keeps_connection_alive(self, small_artifact_root):
        async def scenario():
            service = ScoringService(serve_config(small_artifact_root))
            await service.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = json.loads(await reader.readline())
                assert bad["status"] == 400 and bad["error"]["code"] == "bad_request"
                writer.write(
                    json.dumps({"id": "next", "payload_b64": trace_payload()}).encode() + b"\n"
                )
                await writer.drain()
                good = json.loads(await reader.readline())
                assert good["ok"]
                writer.close()
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_feature_width_mismatch_is_bad_request(self, small_artifact_root):
        async def scenario():
            service = ScoringService(serve_config(small_artifact_root))
            await service.start()
            try:
                r = await rpc(
                    service.port, {"id": "w", "payload_b64": trace_payload(n_features=5)}
                )
                assert r["status"] == 400
                assert "features" in r["error"]["message"]
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_probes(self, small_artifact_root):
        async def scenario():
            service = ScoringService(serve_config(small_artifact_root))
            await service.start()
            try:
                status, body = await http_probe(service.port, "/healthz")
                assert status == 200 and body["status"] == "ok"
                status, body = await http_probe(service.port, "/readyz")
                assert status == 200 and body["artifact"].startswith("v0001-")
                status, body = await http_probe(service.port, "/metricsz")
                assert status == 200
                assert body["queue_limit"] == service.config.max_queue
                assert "counters" in body
                status, _ = await http_probe(service.port, "/nope")
                assert status == 404
            finally:
                await service.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# backpressure, deadlines, watchdog, drain
# ---------------------------------------------------------------------------


class _BlockingScore:
    """Wraps score_batch so the batcher wedges until released; records the
    request ids of every batch it is handed."""

    def __init__(self, scorer):
        self.release = threading.Event()
        self.batches: list[list[str]] = []
        self._inner = scorer.score_batch
        scorer.score_batch = self

    def __call__(self, batch):
        self.batches.append([req.req_id for req in batch])
        self.release.wait(timeout=30)
        return self._inner(batch)


class TestBackpressure:
    def test_full_queue_sheds_with_503(self, small_artifact_root):
        async def scenario():
            service = ScoringService(
                serve_config(small_artifact_root, max_queue=1, max_batch=1)
            )
            await service.start()
            block = _BlockingScore(service.scorer)
            try:
                payload = trace_payload()
                # r1 is dequeued by the batcher and wedged; r2 fills the
                # queue; r3 must be shed immediately with a structured 503.
                # Wait for each stage so the wrong request can't be the one
                # shed on a slow machine.
                t1 = asyncio.create_task(rpc(service.port, {"id": "r1", "payload_b64": payload}))
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if service._inflight == 1:
                        break
                assert service._inflight == 1, "batcher never dequeued r1"
                t2 = asyncio.create_task(rpc(service.port, {"id": "r2", "payload_b64": payload}))
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if service.queue.full():
                        break
                assert service.queue.full(), "r2 never filled the queue"
                shed = await rpc(service.port, {"id": "r3", "payload_b64": payload})
                assert shed["status"] == 503
                assert shed["error"]["code"] == "overloaded"
                assert service.stats.shed == 1
                block.release.set()
                r1, r2 = await asyncio.gather(t1, t2)
                assert r1["ok"] and r2["ok"]
            finally:
                block.release.set()
                await service.shutdown()

        asyncio.run(scenario())

    def test_expired_request_gets_504(self, small_artifact_root):
        async def scenario():
            service = ScoringService(
                serve_config(
                    small_artifact_root, max_queue=4, max_batch=1, request_timeout_s=0.2
                )
            )
            await service.start()
            block = _BlockingScore(service.scorer)
            try:
                payload = trace_payload()
                t1 = asyncio.create_task(rpc(service.port, {"id": "r1", "payload_b64": payload}))
                t2 = asyncio.create_task(rpc(service.port, {"id": "r2", "payload_b64": payload}))
                await asyncio.sleep(0.5)  # r2 expires while r1 wedges
                block.release.set()
                r1, r2 = await asyncio.gather(t1, t2)
                # one request rode the first (wedged) batch; the other sat in
                # the queue past its deadline and must be answered with a 504
                statuses = sorted((r1["status"], r2["status"]))
                assert 504 in statuses
                for r in (r1, r2):
                    if r["status"] == 504:
                        assert r["error"]["code"] == "deadline_exceeded"
                assert service.stats.expired >= 1
            finally:
                block.release.set()
                await service.shutdown()

        asyncio.run(scenario())

    def test_wedged_batch_answers_with_watchdog_error(self, small_artifact_root):
        async def scenario():
            service = ScoringService(
                serve_config(small_artifact_root, score_timeout_s=0.2, max_batch=1)
            )
            await service.start()
            block = _BlockingScore(service.scorer)
            try:
                r = await rpc(service.port, {"id": "wedge", "payload_b64": trace_payload()})
                assert r["status"] == 500
                assert r["error"]["code"] == "scoring_wedged"
                assert service.stats.score_timeouts == 1
                # daemon still alive: release and serve again
                block.release.set()
                r2 = await rpc(service.port, {"id": "after", "payload_b64": trace_payload()})
                assert r2["ok"]
            finally:
                block.release.set()
                await service.shutdown()

        asyncio.run(scenario())

    def test_watchdog_restarts_dead_batcher(self, small_artifact_root):
        async def scenario():
            service = ScoringService(serve_config(small_artifact_root))
            await service.start()
            try:
                service._batcher_task.cancel()
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if service.stats.watchdog_restarts:
                        break
                assert service.stats.watchdog_restarts >= 1
                r = await rpc(service.port, {"id": "alive", "payload_b64": trace_payload()})
                assert r["ok"]
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_scoring_bug_answers_structured_internal_error(self, small_artifact_root):
        async def scenario():
            service = ScoringService(serve_config(small_artifact_root))
            await service.start()

            def boom(batch):
                raise RuntimeError("synthetic scoring bug")

            service.scorer.score_batch = boom
            try:
                r = await rpc(service.port, {"id": "bug", "payload_b64": trace_payload()})
                assert r["ok"] is False and r["error"]["code"] == "internal"
                assert service.stats.score_errors == 1
            finally:
                await service.shutdown()

        asyncio.run(scenario())


class TestBatching:
    def test_batcher_takes_what_is_queued_up_to_max_batch(self, small_artifact_root):
        """The batcher never waits for a batch to fill: it scores the request
        it awaited plus whatever is already queued, at most ``max_batch`` at a
        time, and batching never moves an answer."""
        payloads = {f"q{i}": trace_payload(seed=i) for i in range(6)}

        async def scenario():
            service = ScoringService(serve_config(small_artifact_root, max_batch=3))
            await service.start()
            block = _BlockingScore(service.scorer)
            try:
                first = asyncio.create_task(
                    rpc(service.port, {"id": "q0", "payload_b64": payloads["q0"]})
                )
                await wait_for_state(lambda: service._inflight == 1, "q0 to be dequeued")
                rest = [
                    asyncio.create_task(
                        rpc(service.port, {"id": req_id, "payload_b64": payloads[req_id]})
                    )
                    for req_id in sorted(payloads)[1:]
                ]
                await wait_for_state(lambda: service.queue.qsize() == 5, "5 queued requests")
                block.release.set()
                responses = await asyncio.gather(first, *rest)
                return responses, block.batches, service.scorer.artifact
            finally:
                block.release.set()
                await service.shutdown()

        responses, batches, artifact = asyncio.run(scenario())
        assert [len(b) for b in batches] == [1, 3, 2]
        assert batches[0] == ["q0"]
        assert sorted(batches[1] + batches[2]) == ["q1", "q2", "q3", "q4", "q5"]
        assert all(r["ok"] for r in responses)
        for r in responses:
            trace, _ = decode_trace(base64.b64decode(payloads[r["id"]]))
            rows = np.asarray(trace.rows, dtype=np.float64)
            groups = np.zeros(rows.shape[0], dtype=np.int64)
            margins, verdicts = artifact.score_traces(rows, groups, 1)
            solo_margin, _ = trace_verdicts(margins, groups, 1)
            assert r["verdict"] == int(verdicts[0]), r["id"]
            assert r["margin"] == float(solo_margin[0]), r["id"]


class TestPipelining:
    def test_one_connection_fills_a_batch_and_answers_in_order(self, small_artifact_root):
        """One client writes six lines without reading.  While the batcher is
        held, the daemon reads ahead exactly ``max_batch`` lines, scores the
        read-ahead requests as one batch, and answers strictly in request
        order: the malformed line's 400, ready at once, waits behind the
        requests read before it."""
        payloads = {f"p{i}": trace_payload(seed=i) for i in (0, 1, 4, 5)}
        rows = make_trace(seed=2).rows
        docs = [
            {"id": "p0", "payload_b64": payloads["p0"]},
            {"id": "p1", "payload_b64": payloads["p1"]},
            {"id": "rows", "rows": rows.tolist()},
            None,  # malformed
            {"id": "p4", "payload_b64": payloads["p4"]},
            {"id": "p5", "payload_b64": payloads["p5"]},
        ]
        lines = [request_line(d) if d else b"}{ not json\n" for d in docs]

        async def scenario():
            service = ScoringService(serve_config(small_artifact_root, max_batch=4))
            await service.start()
            block = _BlockingScore(service.scorer)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                writer.write(b"".join(lines))
                await writer.drain()
                # the first 4 lines are read: 3 requests in flight, 1 400
                await wait_for_state(lambda: unanswered(service) == 4, "4 lines read ahead")
                await stays(
                    lambda: unanswered(service) == 4 and in_flight(service) == 3,
                    "read-ahead passed max_batch",
                )
                block.release.set()
                answers = await read_answers(reader, len(lines))
                writer.close()
                return answers, block.batches, service.scorer.artifact
            finally:
                block.release.set()
                await service.shutdown()

        answers, batches, artifact = asyncio.run(scenario())
        assert [a["id"] for a in answers] == ["p0", "p1", "rows", "?", "p4", "p5"]
        assert [a["status"] for a in answers] == [200, 200, 200, 400, 200, 200]
        assert max(len(batch) for batch in batches) >= 2
        solo_rows = {
            req_id: decode_trace(base64.b64decode(b64))[0].rows for req_id, b64 in payloads.items()
        } | {"rows": rows}
        for a in answers:
            if a["status"] != 200:
                continue
            solo = np.asarray(solo_rows[a["id"]], dtype=np.float64)
            groups = np.zeros(solo.shape[0], dtype=np.int64)
            margins, verdicts = artifact.score_traces(solo, groups, 1)
            solo_margin, _ = trace_verdicts(margins, groups, 1)
            assert a["verdict"] == int(verdicts[0]), a["id"]
            assert a["margin"] == float(solo_margin[0]), a["id"]

    def test_line_bytes_bound_the_read_ahead(self, small_artifact_root):
        """With ``max_line_bytes`` about 2.5 lines, at most 2 of a
        connection's lines are in flight; a line over the bound by itself is
        admitted once nothing else is in flight."""
        lines = [
            request_line({"id": f"s{i}", "payload_b64": trace_payload(seed=i)}) for i in range(6)
        ]
        bound = int(2.5 * max(len(line) for line in lines))
        # the longest line the reader accepts: max_line_bytes, then "\n"
        big = lines[0].replace(b'"s0"', b'"big"').rstrip(b"\n")
        big = big + b" " * (bound - len(big)) + b"\n"
        assert len(big) == bound + 1

        async def scenario():
            service = ScoringService(
                serve_config(small_artifact_root, max_batch=8, max_line_bytes=bound)
            )
            await service.start()
            block = _BlockingScore(service.scorer)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                writer.write(b"".join(lines))
                await writer.drain()
                await wait_for_state(lambda: in_flight(service) == 2, "2 lines in flight")
                await stays(
                    lambda: in_flight(service) == unanswered(service) == 2,
                    "read-ahead passed max_line_bytes",
                )
                block.release.set()
                first = await read_answers(reader, len(lines))
                block.release.clear()
                writer.write(lines[1] + big)
                await writer.drain()
                await wait_for_state(lambda: in_flight(service) == 1, "s1 in flight")
                await stays(
                    lambda: in_flight(service) == unanswered(service) == 1,
                    "the big line joined s1",
                )
                block.release.set()
                second = await read_answers(reader, 2)
                writer.close()
                return first, second
            finally:
                block.release.set()
                await service.shutdown()

        first, second = asyncio.run(scenario())
        assert [a["id"] for a in first] == [f"s{i}" for i in range(6)]
        assert [a["id"] for a in second] == ["s1", "big"]
        assert all(a["ok"] for a in first + second)

    def test_idle_timer_waits_while_an_answer_is_owed(self, small_artifact_root):
        """A connection that is owed an answer is never idle: a 0.8 s batch
        under a 0.3 s idle timeout is answered and the connection serves the
        next request.  A connection owed nothing is still dropped."""

        async def scenario():
            service = ScoringService(serve_config(small_artifact_root, idle_timeout_s=0.3))
            await service.start()
            block = _BlockingScore(service.scorer)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                writer.write(request_line({"id": "slow", "payload_b64": trace_payload()}))
                await writer.drain()
                await asyncio.sleep(0.8)
                block.release.set()
                [slow] = await read_answers(reader, 1)
                writer.write(request_line({"id": "next", "payload_b64": trace_payload()}))
                await writer.drain()
                [after] = await read_answers(reader, 1)
                writer.close()
                kept = service.stats.slow_client_drops

                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                writer.write(b'{"id": "stall", ')
                await writer.drain()
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                eof = await asyncio.wait_for(reader.read(), timeout=5)
                waited = loop.time() - t0
                writer.close()
                return slow, after, kept, eof, waited, service.stats.slow_client_drops
            finally:
                block.release.set()
                await service.shutdown()

        slow, after, kept, eof, waited, drops = asyncio.run(scenario())
        assert slow["ok"] and after["ok"]
        assert kept == 0
        assert eof == b"" and waited >= 0.25
        assert drops == 1


class TestDrain:
    def test_sigterm_style_drain_answers_all_inflight(self, small_artifact_root):
        """Every request accepted before the drain begins is answered; no
        request is left hanging when shutdown returns."""

        async def scenario():
            service = ScoringService(
                serve_config(small_artifact_root, max_queue=16, max_batch=2)
            )
            await service.start()
            payload = trace_payload()
            tasks = [
                asyncio.create_task(rpc(service.port, {"id": f"d{i}", "payload_b64": payload}))
                for i in range(6)
            ]
            await asyncio.sleep(0.05)  # let requests land in the queue
            await service.shutdown()
            responses = await asyncio.gather(*tasks, return_exceptions=True)
            answered = [r for r in responses if isinstance(r, dict)]
            assert len(answered) == 6, f"lost {6 - len(answered)} in-flight requests"
            assert all(r["ok"] for r in answered)
            assert service.queue.empty() and service._inflight == 0
            assert service.stats.received == service.stats.answered

        asyncio.run(scenario())

    def test_drain_answers_pipelined_lines_in_order_then_closes(self, small_artifact_root):
        lines = [
            request_line({"id": f"d{i}", "payload_b64": trace_payload(seed=i)}) for i in range(6)
        ]

        async def scenario():
            service = ScoringService(serve_config(small_artifact_root, max_batch=8))
            await service.start()
            block = _BlockingScore(service.scorer)
            stopping = None
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                writer.write(b"".join(lines))
                await writer.drain()
                await wait_for_state(lambda: in_flight(service) == 6, "6 lines in flight")
                stopping = asyncio.create_task(service.shutdown())
                await wait_for_state(lambda: service.draining, "the drain to start")
                block.release.set()
                answers = await read_answers(reader, len(lines))
                eof = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                return answers, eof, service.stats
            finally:
                block.release.set()
                await (stopping or service.shutdown())

        answers, eof, stats = asyncio.run(scenario())
        assert [a["id"] for a in answers] == [f"d{i}" for i in range(6)]
        assert all(a["ok"] for a in answers)
        assert eof == b""
        assert stats.received == stats.answered == 6

    def test_idle_connection_does_not_hold_the_drain(self, small_artifact_root):
        """A keep-alive client left idle during shutdown sees EOF, and the
        drain does not wait for its idle timeout."""

        async def scenario():
            service = ScoringService(
                serve_config(small_artifact_root, idle_timeout_s=60.0, drain_timeout_s=3.0)
            )
            await service.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            writer.write(request_line({"id": "once", "payload_b64": trace_payload()}))
            await writer.drain()
            [once] = await read_answers(reader, 1)
            assert once["ok"]
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await service.shutdown()
            took = loop.time() - t0
            eof = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return took, eof

        took, eof = asyncio.run(scenario())
        assert eof == b""
        assert took < 3.0

    def test_requests_during_drain_get_503(self, small_artifact_root):
        async def scenario():
            service = ScoringService(serve_config(small_artifact_root))
            await service.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            service.draining = True  # what request_stop/shutdown flips first
            writer.write(
                json.dumps({"id": "late", "payload_b64": trace_payload()}).encode() + b"\n"
            )
            await writer.drain()
            r = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
            assert r["status"] == 503
            assert r["error"]["message"] == "service is draining"
            writer.close()
            service.draining = False
            await service.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# hot reload + fallback
# ---------------------------------------------------------------------------


class TestReload:
    def test_corrupt_swap_keeps_last_good_then_recovers(self, small_artifact_root, tmp_path):
        """Copy of the bench chaos sequence, in-process and deterministic."""

        async def scenario():
            store = ArtifactStore(small_artifact_root)
            service = ScoringService(
                serve_config(small_artifact_root, reload_poll_s=0.05)
            )
            await service.start()
            v1 = service.scorer.artifact.version
            try:
                # corrupt swap: dangling pointer
                (small_artifact_root / "CURRENT").write_text("v9999-deadbeef\n")
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if service.stats.reload_failures:
                        break
                assert service.stats.reload_failures >= 1
                assert service.scorer.artifact.version == v1  # last good still serving
                r = await rpc(service.port, {"id": "mid", "payload_b64": trace_payload()})
                assert r["ok"] and r["artifact"] == v1
                # good swap: republish; daemon must pick it up
                loaded = store.load(v1)
                v2 = store.publish(loaded.models, loaded.normalizer, loaded.scales).version
                for _ in range(200):
                    await asyncio.sleep(0.02)
                    if service.scorer.artifact.version == v2:
                        break
                assert service.scorer.artifact.version == v2
                assert service.stats.reloads == 1
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_startup_falls_back_when_current_corrupt(self, tmp_path, small_artifact_root):
        async def scenario():
            # clone the store, then break CURRENT before start
            import shutil

            root = tmp_path / "art"
            shutil.copytree(small_artifact_root, root)
            (root / "CURRENT").write_text("v7777-00000000\n")
            newest_good = ArtifactStore(root).versions()[-1]
            service = ScoringService(serve_config(root))
            await service.start()
            try:
                assert service.scorer.artifact.version == newest_good
                r = await rpc(service.port, {"id": "x", "payload_b64": trace_payload()})
                assert r["ok"]
            finally:
                await service.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# golden parity: served verdicts == batch verdicts, bit for bit
# ---------------------------------------------------------------------------


class TestGoldenParity:
    @pytest.fixture(scope="class")
    def golden_artifact(self, tmp_path_factory):
        golden = Path(__file__).resolve().parent / "fixtures" / "golden"
        if not sorted(golden.glob("*.pkl")):
            pytest.skip("golden fixtures not generated in this checkout")
        out = tmp_path_factory.mktemp("golden-serve")
        root = out / "artifact"
        run_pipeline(
            PipelineConfig(
                trace_dir=str(golden),
                out_dir=str(out / "train"),
                artifact_root=str(root),
                **GOLDEN_CONFIG,
            )
        )
        return golden, root

    def test_served_verdicts_bit_identical_to_batch(self, golden_artifact):
        golden, root = golden_artifact
        paths = sorted(golden.glob("*.pkl"))
        loaded = ArtifactStore(root).load()

        # batch side: every golden trace stacked into one matrix
        traces = [decode_trace(p.read_bytes(), path=str(p))[0] for p in paths]
        dataset = build_dataset(traces)
        margins, verdicts = loaded.score_traces(
            dataset.X, dataset.groups, len(dataset.traces)
        )
        sums = np.bincount(dataset.groups, weights=margins, minlength=len(dataset.traces))
        counts = np.bincount(dataset.groups, minlength=len(dataset.traces))
        batch_margin = sums / counts

        async def scenario():
            service = ScoringService(serve_config(root, max_batch=3))
            await service.start()
            block = _BlockingScore(service.scorer)
            try:
                # hold the first batch until every request is queued, so the
                # daemon scores micro-batches of mixed traces — parity must
                # still hold
                docs = [
                    {"id": p.name, "payload_b64": base64.b64encode(p.read_bytes()).decode()}
                    for p in paths
                ]
                tasks = [asyncio.create_task(rpc(service.port, d)) for d in docs]
                await wait_for_state(
                    lambda: service.stats.received == len(docs), "every request queued"
                )
                block.release.set()
                return await asyncio.gather(*tasks), service.stats.batches
            finally:
                block.release.set()
                await service.shutdown()

        responses, batches = asyncio.run(scenario())
        assert batches < len(paths), "no multi-request batch formed"
        by_id = {r["id"]: r for r in responses}
        assert all(r["ok"] for r in responses)
        for t, path in enumerate(paths):
            served = by_id[path.name]
            assert served["verdict"] == int(verdicts[t]), path.name
            assert served["margin"] == float(batch_margin[t]), path.name


# ---------------------------------------------------------------------------
# metrics parity: metrics.json reports exactly what the daemon serves
# ---------------------------------------------------------------------------


class TestMetricsParity:
    def test_served_verdicts_and_margins_reproduce_metrics_json(self, tmp_path):
        """Publish golden_synth with ``save-artifact``, send every held-out
        trace's file bytes to the daemon, and rebuild metrics.json's quality
        numbers from the answers alone: trace accuracy, benign FPR and each
        family's margin distribution must come out bit for bit."""
        corpus = Path(__file__).resolve().parent / "fixtures" / "golden_synth" / "corpus"
        if not sorted(corpus.rglob("*.pkl")):
            pytest.skip("golden synthetic fixtures not generated in this checkout")
        out, root = tmp_path / "train", tmp_path / "artifact"
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in GOLDEN_CONFIG.items()]
        argv = ["save-artifact", "--trace-dir", str(corpus), "--out", str(out)]
        assert pipeline_main([*argv, "--artifact-root", str(root), *flags]) == 0
        metrics = json.loads((out / "metrics.json").read_text())["metrics"]

        # the pipeline's own load order and split name the held-out files
        results, _ = load_corpus_pooled(corpus)
        dataset = build_dataset([r.trace for r in results])
        _, test_idx = split_traces(
            dataset.traces, GOLDEN_CONFIG["test_frac"], GOLDEN_CONFIG["seed"]
        )
        paths = [Path(results[dataset.source_indices[t]].path) for t in test_idx]

        async def scenario():
            service = ScoringService(serve_config(root, max_batch=4))
            await service.start()
            try:
                docs = [
                    {"id": str(t), "payload_b64": base64.b64encode(p.read_bytes()).decode()}
                    for t, p in zip(test_idx, paths)
                ]
                return await asyncio.gather(*(rpc(service.port, d) for d in docs))
            finally:
                await service.shutdown()

        served = {int(r["id"]): r for r in asyncio.run(scenario())}
        assert all(r["ok"] for r in served.values())

        traces = dataset.traces
        truth = {t: 1 if traces[t].is_attack else -1 for t in test_idx}
        correct = [served[t]["verdict"] == truth[t] for t in test_idx]
        benign = [t for t in test_idx if truth[t] == -1]
        flagged = [served[t]["verdict"] == 1 for t in benign]
        assert sum(correct) / len(correct) == metrics["trace_accuracy"]
        assert sum(flagged) / len(benign) == metrics["benign_false_positive_rate"]

        families: dict[str, list[float]] = {}
        for t in sorted(test_idx):
            families.setdefault(family_key(traces[t]), []).append(served[t]["margin"])
        assert sorted(families) == sorted(metrics["per_family"])
        mismatched = [
            family
            for family, margins in families.items()
            if _margin_stats(np.array(margins)) != metrics["per_family"][family]["margins"]
        ]
        assert mismatched == []
