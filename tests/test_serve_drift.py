"""The drift loop at the serving layer: feedback protocol, the reload/score
race, retrain mechanics, and every supervisor failure mode.

The invariant under test throughout: **nothing the online-learning loop does
can hurt the live model.**  A crashed trainer, a hung trainer, a garbage
candidate, a rejected canary — each costs a backoff interval and a counter,
never a response.  The happy path (real subprocess retrain → canary →
atomic promotion) and the rollback path are exercised against a real
:class:`ScoringService` on loopback, same as the rest of the serve suite.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import wait_for_state
from repro.errors import RetrainFailed
from repro.features import Normalizer
from repro.model import ArtifactStore, HashedPerceptron, margin_scales
from repro.serve import RetrainSupervisor, ScoringService, ServeConfig
from repro.serve.retrain import load_feedback, retrain
from repro.serve.supervisor import (
    FeedbackBuffer,
    FeedbackItem,
    shadow_accuracies,
    write_feedback_npz,
)

N_FEATURES = 12


# ---------------------------------------------------------------------------
# fixtures and helpers
# ---------------------------------------------------------------------------


def separable_rows(label: int, seed: int, n_rows: int = 4) -> np.ndarray:
    """Interval rows drawn far enough apart that a trained model is exact."""
    rng = np.random.default_rng(seed)
    return rng.normal(loc=3.0 * label, scale=0.5, size=(n_rows, N_FEATURES))


def build_store(root, *, n_traces: int = 24):
    """A published artifact trained to perfect separation on its own data."""
    rows_list, labels = [], []
    for i in range(n_traces):
        label = 1 if i % 2 == 0 else -1
        rows_list.append(separable_rows(label, seed=100 + i))
        labels.append(label)
    X = np.vstack(rows_list)
    y_rows = np.concatenate(
        [np.full(r.shape[0], lab, dtype=np.int64) for r, lab in zip(rows_list, labels)]
    )
    norm = Normalizer().fit(X)
    Z = norm.transform(X)
    models = []
    for seed in (1, 2):
        m = HashedPerceptron(N_FEATURES, seed=seed, theta=5.0)
        m.fit(Z, y_rows, epochs=6)
        models.append(m)
    store = ArtifactStore(root)
    result = store.publish(models, norm, margin_scales(models, Z))
    return store, models, norm, result.version


@pytest.fixture()
def drift_root(tmp_path):
    root = tmp_path / "artifact"
    store, models, norm, version = build_store(root)
    return root, store, models, norm, version


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


def live_labeled_items(service, seeds) -> list[tuple[np.ndarray, int]]:
    """(rows, label) pairs where the label IS the live model's verdict, so
    live shadow accuracy is 1.0 by construction."""
    artifact = service.scorer.artifact
    items = []
    for seed in seeds:
        rows = separable_rows(1 if seed % 2 == 0 else -1, seed=seed)
        _, verdicts = artifact.score_traces(
            rows, np.zeros(rows.shape[0], dtype=np.int64), 1
        )
        items.append((rows, int(verdicts[0])))
    labels = {label for _, label in items}
    assert labels == {-1, 1}, "setup needs both verdict signs"
    return items


def make_supervisor(service, config) -> RetrainSupervisor:
    """A supervisor driven by the test (``_step`` by hand), not by its task."""
    return RetrainSupervisor(service, config)


def echo_candidate_argv(version: str):
    """A 'trainer' that instantly reports an already-published candidate."""
    line = json.dumps({"candidate": version})
    return lambda data_path, base: [sys.executable, "-c", f"print({line!r})"]


# ---------------------------------------------------------------------------
# feedback protocol
# ---------------------------------------------------------------------------


class TestFeedbackProtocol:
    def test_labeled_request_is_acknowledged(self, drift_root):
        root, *_ = drift_root

        async def scenario():
            service = ScoringService(serve_config(root, drift_window=50))
            await service.start()
            try:
                rows = separable_rows(1, seed=500).tolist()
                r = await rpc(
                    service.port,
                    {"id": "fb", "rows": rows, "label": 1, "family": "prime_probe"},
                )
                assert r["ok"] and r["feedback"] is True
                assert r["family"] == "prime_probe"
                assert service.monitor.feedback_total == 1
                # unlabeled requests are scored but carry no feedback ack
                r2 = await rpc(service.port, {"id": "plain", "rows": rows})
                assert r2["ok"] and "feedback" not in r2
                assert service.monitor.scored_total == 2
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "label", [True, False, 0, 2, "1", 1.0], ids=lambda v: repr(v)
    )
    def test_bad_label_is_a_request_error(self, drift_root, label):
        root, *_ = drift_root

        async def scenario():
            service = ScoringService(serve_config(root, drift_window=50))
            await service.start()
            try:
                rows = separable_rows(1, seed=501).tolist()
                r = await rpc(service.port, {"id": "bad", "rows": rows, "label": label})
                assert r["ok"] is False and r["status"] == 400
                assert "label" in r["error"]["message"]
                # the bad request polluted nothing
                assert service.monitor.feedback_total == 0
                r2 = await rpc(service.port, {"id": "ok", "rows": rows, "label": 1})
                assert r2["ok"] and r2["feedback"] is True
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_non_string_family_rejected(self, drift_root):
        root, *_ = drift_root

        async def scenario():
            service = ScoringService(serve_config(root))
            await service.start()
            try:
                rows = separable_rows(1, seed=502).tolist()
                r = await rpc(service.port, {"id": "f", "rows": rows, "family": 3})
                assert r["ok"] is False and r["status"] == 400
                assert "family" in r["error"]["message"]
            finally:
                await service.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# monitor + supervisor wiring through the daemon
# ---------------------------------------------------------------------------


class TestServiceWiring:
    def test_feedback_drives_windows_verdicts_and_pending_retrain(self, drift_root):
        root, *_ = drift_root
        config = serve_config(
            root,
            drift_window=6,
            drift_min_feedback=4,
            drift_psi_threshold=100.0,  # isolate the accuracy verdict
            drift_margin_sigma=1000.0,
            drift_accuracy_floor=0.75,
            drift_rollback_floor=0.0,
            supervise=True,
            retrain_min_traces=10**6,  # verdict stays pending, never retrains
        )

        async def scenario():
            service = ScoringService(config)
            await service.start()
            try:
                # window 0: correct labels — freezes the reference
                for i in range(6):
                    true = 1 if i % 2 == 0 else -1
                    rows = separable_rows(true, seed=600 + i).tolist()
                    r = await rpc(
                        service.port,
                        {"id": f"a{i}", "rows": rows, "label": true, "family": "w"},
                    )
                    assert r["ok"]
                # window 1: every label contradicts the verdict — accuracy 0
                for i in range(6):
                    true = 1 if i % 2 == 0 else -1
                    rows = separable_rows(true, seed=700 + i).tolist()
                    r = await rpc(
                        service.port,
                        {"id": f"b{i}", "rows": rows, "label": -true, "family": "w"},
                    )
                    assert r["ok"]
                status, metrics = await http_probe(service.port, "/metricsz")
                assert status == 200
                assert metrics["drift"]["windows_evaluated"] == 2
                assert metrics["drift"]["drift_verdicts"] == 1
                assert metrics["supervisor"]["feedback_traces"] == 12
                assert metrics["supervisor"]["state"] == "idle"
                assert service.supervisor._pending_retrain is True
                assert service.supervisor.stats.retrains_started == 0
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_metricsz_exposes_loop_sections(self, drift_root):
        root, *_, version = drift_root
        config = serve_config(root, drift_window=10, supervise=True)

        async def scenario():
            service = ScoringService(config)
            await service.start()
            try:
                status, metrics = await http_probe(service.port, "/metricsz")
                assert status == 200
                assert metrics["artifact"] == version
                assert metrics["uptime_s"] >= 0
                drift = metrics["drift"]
                assert drift["window_size"] == 10 and drift["window_fill"] == 0
                sup = metrics["supervisor"]
                for key in (
                    "retrains_started",
                    "promotions",
                    "rollbacks",
                    "last_retrain_at",
                    "last_rollback_at",
                    "feedback_buffered",
                    "backoff_remaining_s",
                ):
                    assert key in sup
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_loop_disabled_by_default(self, drift_root):
        root, *_ = drift_root

        async def scenario():
            service = ScoringService(serve_config(root))
            await service.start()
            try:
                assert service.monitor is None and service.supervisor is None
                _, metrics = await http_probe(service.port, "/metricsz")
                assert metrics["drift"] is None and metrics["supervisor"] is None
            finally:
                await service.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# the reload/score race
# ---------------------------------------------------------------------------


class TestReloadRace:
    def test_current_swap_mid_batch_never_splits_a_batch(self, drift_root):
        root, store, models, norm, v1 = drift_root

        async def scenario():
            service = ScoringService(serve_config(root, max_batch=8))
            await service.start()
            gate = threading.Event()
            entered = threading.Event()
            release = threading.Event()
            original = service.scorer.score_batch
            wedged_ids: list[str] = []

            def wedged(batch):
                if [req.req_id for req in batch] == ["gate"]:
                    # hold the batcher until the racing requests are queued,
                    # so the next batch takes all of them at once
                    assert gate.wait(10), "test never opened the gate"
                    return original(batch)
                wedged_ids.extend(req.req_id for req in batch)
                entered.set()
                assert release.wait(10), "test never released the batch"
                return original(batch)

            service.scorer.score_batch = wedged
            try:
                gate_task = asyncio.create_task(
                    rpc(service.port, {"id": "gate", "rows": separable_rows(1, seed=799).tolist()})
                )
                await wait_for_state(
                    lambda: service._inflight == 1, "the batcher to take the gate request"
                )
                # one request on each of 3 connections: the racing requests
                # come from separate clients, and all 3 must be queued
                # before the gate opens so one batch takes them together
                conns = [
                    await asyncio.open_connection("127.0.0.1", service.port)
                    for _ in range(3)
                ]
                try:
                    for i, (_, writer) in enumerate(conns):
                        writer.write(
                            json.dumps(
                                {
                                    "id": f"r{i}",
                                    "rows": separable_rows(1, seed=800 + i).tolist(),
                                }
                            ).encode()
                            + b"\n"
                        )
                        await writer.drain()
                    await wait_for_state(
                        lambda: service.queue.qsize() == 3, "the racing requests to queue"
                    )
                    gate.set()
                    assert (await gate_task)["artifact"] == v1
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, entered.wait, 10)
                    # batch is wedged inside the executor: publish a new
                    # version and swap CURRENT under it
                    v2 = store.publish(models, norm, [1.0, 1.0]).version
                    service._maybe_reload()
                    assert service.scorer.artifact.version == v2
                    release.set()
                    answered = [
                        json.loads(
                            await asyncio.wait_for(reader.readline(), timeout=10)
                        )
                        for reader, _ in conns
                    ]
                finally:
                    for _, writer in conns:
                        writer.close()
                # the wedged batch finished whole on the artifact it started
                # with — the swap never split it or mixed models mid-batch;
                # requests the batcher had not yet claimed score on the new one
                assert [r["ok"] for r in answered] == [True] * 3
                assert wedged_ids, "no batch was in flight during the swap"
                assert len(wedged_ids) >= 2, "the wedged batch held a single request"
                for r in answered:
                    expected = v1 if r["id"] in wedged_ids else v2
                    assert r["artifact"] == expected, r
                # traffic after the swap scores on the new version
                r = await rpc(
                    service.port,
                    {"id": "post", "rows": separable_rows(1, seed=900).tolist()},
                )
                assert r["ok"] and r["artifact"] == v2
                assert service.stats.reloads == 1
            finally:
                gate.set()
                release.set()
                await service.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# retrain mechanics (in-process)
# ---------------------------------------------------------------------------


class TestRetrain:
    def test_feedback_npz_round_trip(self, tmp_path):
        items = [
            FeedbackItem(rows=separable_rows(1, seed=1, n_rows=3), label=1, family="a"),
            FeedbackItem(rows=separable_rows(-1, seed=2, n_rows=5), label=-1, family="b"),
        ]
        path = tmp_path / "feedback.npz"
        write_feedback_npz(path, items)
        X, groups, labels = load_feedback(path)
        assert X.shape == (8, N_FEATURES)
        assert groups.tolist() == [0] * 3 + [1] * 5
        assert labels.tolist() == [1, -1]

    def test_load_feedback_rejects_malformed_dumps(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            X=np.ones((4, N_FEATURES)),
            groups=np.zeros(3, dtype=np.int64),
            labels=np.ones(1, dtype=np.int64),
        )
        with pytest.raises(RetrainFailed, match="groups shape"):
            load_feedback(path)
        np.savez(
            path,
            X=np.ones((2, N_FEATURES)),
            groups=np.zeros(2, dtype=np.int64),
            labels=np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(RetrainFailed, match="labels must be"):
            load_feedback(path)

    def test_partial_retrain_publishes_candidate_without_touching_current(
        self, drift_root, tmp_path
    ):
        root, store, *_ , v1 = drift_root
        items = [
            FeedbackItem(
                rows=separable_rows(1 if i % 2 == 0 else -1, seed=300 + i),
                label=1 if i % 2 == 0 else -1,
            )
            for i in range(8)
        ]
        path = tmp_path / "feedback.npz"
        write_feedback_npz(path, items)
        candidate = retrain(str(root), v1, str(path), mode="partial", passes=2, seed=0)
        assert candidate != v1
        assert store.current() == v1  # CURRENT untouched by candidate publish
        loaded = store.load(candidate)
        meta = loaded.manifest["meta"]
        assert meta["retrained_from"] == v1
        assert meta["retrain_mode"] == "partial"
        assert meta["feedback_traces"] == 8
        cand_acc, live_acc = shadow_accuracies(loaded, store.load(v1), items)
        assert cand_acc >= live_acc - 0.01

    def test_retrain_validates_mode_and_features(self, drift_root, tmp_path):
        root, _, *_ , v1 = drift_root
        path = tmp_path / "feedback.npz"
        write_feedback_npz(path, [FeedbackItem(rows=np.ones((2, 5)), label=1)])
        with pytest.raises(RetrainFailed, match="unknown retrain mode"):
            retrain(str(root), v1, str(path), mode="magic")
        with pytest.raises(RetrainFailed, match="features"):
            retrain(str(root), v1, str(path), mode="partial")

    def _feedback_path(self, tmp_path, label=lambda i: 1 if i % 2 == 0 else -1) -> "Path":
        items = [
            FeedbackItem(
                rows=separable_rows(1 if i % 2 == 0 else -1, seed=300 + i),
                label=label(i),
            )
            for i in range(8)
        ]
        path = tmp_path / "feedback.npz"
        write_feedback_npz(path, items)
        return path

    def test_full_retrain_thread_count_is_bit_identical(self, drift_root, tmp_path):
        """`--train-workers N` full retrains must publish the byte-identical
        candidate one thread publishes."""
        root, store, *_ , v1 = drift_root
        path = self._feedback_path(tmp_path)
        serial = retrain(
            str(root), v1, str(path), mode="full", passes=3, seed=5, workers=1
        )
        base_weights = [m.weights.copy() for m in store.load(serial).models]
        for workers in (2, 4):
            candidate = retrain(
                str(root), v1, str(path), mode="full", passes=3, seed=5,
                workers=workers,
            )
            models = store.load(candidate).models
            for got, want in zip(models, base_weights):
                np.testing.assert_array_equal(got.weights, want)

    def test_full_retrain_refits_each_member_with_its_own_salts(
        self, drift_root, tmp_path
    ):
        """A full retrain zeros every member and refits it with its own salts
        and config, ``epochs=max(passes, 5)`` and shuffle seed ``seed + 17 *
        k`` for member ``k``.  The base is hand-edited: member 0 quantizes
        into 8 bins, not 16, and member 1 carries salts its seed does not
        regenerate; each must still train with its own.  Mislabeled feedback
        keeps every epoch updating, so the epoch count and the seed both
        show."""
        root, store, *_ , v1 = drift_root
        base = store.load(v1)
        base.models[0].n_bins = 8
        base.models[1]._salts = np.random.default_rng(99).integers(
            0, 2**63, size=N_FEATURES, dtype=np.uint64
        )
        edited = store.publish(
            base.models, base.normalizer, base.scales, set_current=False
        ).version
        path = self._feedback_path(tmp_path, label=lambda i: -1 if i % 3 == 0 else 1)
        candidate = retrain(
            str(root), edited, str(path), mode="full", passes=1, seed=5, workers=2
        )
        X, groups, labels = load_feedback(path)
        Z = base.normalizer.transform(X)

        def fresh_fit(k, m, salts):
            fresh = HashedPerceptron(
                m.n_features, seed=m.seed, n_tables=m.n_tables,
                table_bits=m.table_bits, n_bins=m.n_bins, theta=m.theta,
                weight_clamp=m.weight_clamp,
            )
            if salts is not None:
                fresh._salts = salts
            fresh.fit(Z, labels[groups], epochs=5, seed=5 + 17 * k)
            return fresh.weights

        members = zip(store.load(edited).models, store.load(candidate).models)
        for k, (m, got) in enumerate(members):
            np.testing.assert_array_equal(got._salts, m._salts)
            np.testing.assert_array_equal(got.weights, fresh_fit(k, m, m._salts))
            if k == 1:  # its own salts, not the ones its seed regenerates
                assert not np.array_equal(got.weights, fresh_fit(k, m, None))

    def test_full_retrain_members_stay_distinct(self, drift_root, tmp_path):
        """With 12 features over 16 tables no two features share a table, so
        salts barely matter: members fitted with one shared shuffle seed
        learn the same decisions and the ensemble collapses to one model.
        Each member's own seed keeps them apart."""
        root, store, *_ , v1 = drift_root
        path = self._feedback_path(tmp_path, label=lambda i: -1 if i % 3 == 0 else 1)
        candidate = retrain(str(root), v1, str(path), mode="full", passes=1, seed=5)
        loaded = store.load(candidate)
        Z = loaded.normalizer.transform(load_feedback(path)[0])
        first, second = loaded.models
        assert not np.array_equal(first.decision(Z), second.decision(Z))

    def test_full_retrain_subprocess_cli_matches_in_process(
        self, drift_root, tmp_path
    ):
        """The supervisor's actual subprocess invocation with a worker pool
        stays bit-identical to the in-process serial retrain."""
        import os
        import subprocess

        root, store, *_ , v1 = drift_root
        path = self._feedback_path(tmp_path)
        serial = retrain(
            str(root), v1, str(path), mode="full", passes=3, seed=5, workers=1
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.serve.retrain",
                "--artifact-root", str(root), "--base", v1,
                "--data", str(path), "--mode", "full",
                "--passes", "3", "--seed", "5",
                "--train-workers", "2",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        candidate = json.loads(proc.stdout.strip().splitlines()[-1])["candidate"]
        for got, want in zip(
            store.load(candidate).models, store.load(serial).models
        ):
            np.testing.assert_array_equal(got.weights, want.weights)


# ---------------------------------------------------------------------------
# supervisor failure modes — each must leave the live model untouched
# ---------------------------------------------------------------------------


def supervisor_config(root, **overrides) -> ServeConfig:
    base = dict(
        retrain_min_traces=2,
        retrain_backoff_s=30.0,
        retrain_timeout_s=60.0,
        canary_min_traces=4,
        canary_timeout_s=60.0,
    )
    base.update(overrides)
    return serve_config(root, **base)


def feed(sup, items):
    for rows, label in items:
        sup.add_feedback(rows, label, None)


class TestSupervisorFailureModes:
    def test_subprocess_crash_backs_off_and_keeps_live_model(self, drift_root):
        root, store, *_ , v1 = drift_root

        async def scenario():
            service = ScoringService(supervisor_config(root))
            await service.start()
            try:
                sup = make_supervisor(service, service.config)
                sup._retrain_argv = lambda data_path, base: [
                    sys.executable,
                    "-c",
                    "import sys; sys.stderr.write('trainer blew up'); sys.exit(3)",
                ]
                feed(sup, live_labeled_items(service, range(4)))
                sup._pending_retrain = True
                await sup._step()
                assert sup.stats.retrains_started == 1
                assert sup.stats.retrains_failed == 1
                assert sup.stats.consecutive_failures == 1
                assert "trainer blew up" in sup.stats.last_error
                assert sup.stats.state == "idle" and sup._canary is None
                # the live model and the CURRENT pointer are untouched
                assert service.scorer.artifact.version == v1
                assert store.current() == v1
                # backoff armed; the retry stays pending but does not run
                assert sup.backoff_remaining() > 0
                assert sup._pending_retrain is True
                await sup._step()
                assert sup.stats.retrains_started == 1
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_hung_subprocess_is_killed_on_timeout(self, drift_root):
        root, store, *_ , v1 = drift_root

        async def scenario():
            service = ScoringService(supervisor_config(root, retrain_timeout_s=0.3))
            await service.start()
            try:
                sup = make_supervisor(service, service.config)
                sup._retrain_argv = lambda data_path, base: [
                    sys.executable,
                    "-c",
                    "import time; time.sleep(60)",
                ]
                feed(sup, live_labeled_items(service, range(4)))
                sup._pending_retrain = True
                await sup._step()
                assert sup.stats.retrain_timeouts == 1
                assert sup.stats.retrains_failed == 1
                assert "exceeded" in sup.stats.last_error
                assert service.scorer.artifact.version == v1
                assert store.current() == v1
                assert sup.backoff_remaining() > 0
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_garbage_stdout_is_a_failed_retrain(self, drift_root):
        root, store, *_ , v1 = drift_root

        async def scenario():
            service = ScoringService(supervisor_config(root))
            await service.start()
            try:
                sup = make_supervisor(service, service.config)
                sup._retrain_argv = lambda data_path, base: [
                    sys.executable,
                    "-c",
                    "print('training went great, trust me')",
                ]
                feed(sup, live_labeled_items(service, range(4)))
                sup._pending_retrain = True
                await sup._step()
                assert sup.stats.retrains_failed == 1
                assert "no candidate" in sup.stats.last_error
                assert service.scorer.artifact.version == v1
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_backoff_doubles_per_consecutive_failure(self, drift_root):
        root, *_ = drift_root

        async def scenario():
            service = ScoringService(
                supervisor_config(root, retrain_backoff_s=10.0, retrain_backoff_max_s=25.0)
            )
            await service.start()
            try:
                sup = make_supervisor(service, service.config)
                sup._retrain_argv = lambda data_path, base: [
                    sys.executable, "-c", "raise SystemExit(1)"
                ]
                feed(sup, live_labeled_items(service, range(4)))
                observed = []
                for _ in range(3):
                    sup._pending_retrain = True
                    sup._backoff_until_mono = 0.0  # pretend the wait elapsed
                    await sup._step()
                    observed.append(sup.backoff_remaining())
                assert 9.0 < observed[0] <= 10.0
                assert 19.0 < observed[1] <= 20.0
                assert 24.0 < observed[2] <= 25.0  # capped
                assert sup.stats.consecutive_failures == 3
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_canary_rejection_discards_candidate_and_backs_off(self, drift_root):
        root, store, models, norm, v1 = drift_root

        async def scenario():
            service = ScoringService(supervisor_config(root))
            await service.start()
            try:
                # a candidate that is catastrophically worse than live:
                # untrained members score margin 0 everywhere -> verdict -1
                zeroed = [HashedPerceptron(N_FEATURES, seed=s, theta=5.0) for s in (7, 8)]
                bad = store.publish(zeroed, norm, [1.0, 1.0], set_current=False).version
                sup = make_supervisor(service, service.config)
                sup._retrain_argv = echo_candidate_argv(bad)
                feed(sup, live_labeled_items(service, range(4)))
                sup._pending_retrain = True
                await sup._step()  # retrain "succeeds" -> canary opens
                assert sup.stats.state == "canary"
                assert sup.stats.candidate == bad
                assert sup.stats.canaries_started == 1
                feed(sup, live_labeled_items(service, range(10, 14)))
                await sup._step()  # gate evaluates and rejects
                assert sup.stats.canary_rejections == 1
                assert sup.stats.promotions == 0
                assert sup.stats.state == "idle" and sup._canary is None
                assert "canary rejected" in sup.stats.last_error
                # rejection counts toward backoff but not as a failed retrain
                assert sup.stats.retrains_failed == 0
                assert sup.backoff_remaining() > 0
                # live model and pointer untouched; candidate kept on disk
                assert service.scorer.artifact.version == v1
                assert store.current() == v1
                assert bad in store.versions()
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_canary_times_out_without_labeled_traffic(self, drift_root):
        root, store, models, norm, v1 = drift_root

        async def scenario():
            service = ScoringService(
                supervisor_config(root, canary_timeout_s=0.0)
            )
            await service.start()
            try:
                cand = store.publish(models, norm, [1.0, 1.0], set_current=False).version
                sup = make_supervisor(service, service.config)
                sup._retrain_argv = echo_candidate_argv(cand)
                feed(sup, live_labeled_items(service, range(4)))
                sup._pending_retrain = True
                await sup._step()  # opens the canary; buffer snapshot only
                assert sup.stats.state == "canary"
                sup._canary.items.clear()  # no labeled traffic arrives
                await sup._step()
                assert sup.stats.canary_rejections == 1
                assert "no labeled canary traffic" in sup.stats.last_error
                assert service.scorer.artifact.version == v1
            finally:
                await service.shutdown()

        asyncio.run(scenario())


class TestPromotionAndRollback:
    def test_real_retrain_canary_and_promotion(self, drift_root):
        """End to end on real machinery: the actual ``repro.serve.retrain``
        subprocess trains a candidate from feedback, the canary gate passes,
        and promotion atomically swaps CURRENT + the in-process scorer."""
        root, store, *_ , v1 = drift_root
        config = supervisor_config(
            root, drift_window=50, retrain_min_traces=4, canary_min_traces=4
        )

        async def scenario():
            service = ScoringService(config)
            await service.start()
            try:
                sup = make_supervisor(service, service.config)
                feed(sup, live_labeled_items(service, range(8)))
                sup._pending_retrain = True
                await sup._step()  # real subprocess retrain
                assert sup.stats.retrains_succeeded == 1, sup.stats.last_error
                assert sup.stats.state == "canary"
                candidate = sup.stats.candidate
                assert candidate is not None and candidate != v1
                assert store.current() == v1  # not promoted yet
                feed(sup, live_labeled_items(service, range(20, 24)))
                await sup._step()  # gate passes -> promote
                assert sup.stats.promotions == 1
                assert sup.stats.last_promotion_at is not None
                assert store.current() == candidate
                assert service.scorer.artifact.version == candidate
                assert service.stats.reloads == 1
                # promotion resets the drift reference: new model, new normal
                assert service.monitor.reference is None
                # and serving still answers on the promoted model
                r = await rpc(
                    service.port,
                    {"id": "after", "rows": separable_rows(1, seed=999).tolist()},
                )
                assert r["ok"] and r["artifact"] == candidate
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_rollback_restores_previous_version_and_pins_out_bad_one(self, drift_root):
        root, store, models, norm, v1 = drift_root

        async def scenario():
            v2 = store.publish(models, norm, [1.0, 1.0]).version  # now CURRENT
            service = ScoringService(supervisor_config(root))
            await service.start()
            try:
                assert service.scorer.artifact.version == v2
                sup = make_supervisor(service, service.config)
                sup._pending_rollback = True
                await sup._step()
                assert sup.stats.rollbacks == 1
                assert sup.stats.last_rollback_at is not None
                assert store.current() == v1
                assert service.scorer.artifact.version == v1
                # the rolled-back version is fenced off from hot reload
                assert v2 in service._bad_versions
                service._maybe_reload()
                assert service.scorer.artifact.version == v1
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_rollback_preempts_inflight_canary(self, drift_root):
        root, store, models, norm, v1 = drift_root

        async def scenario():
            v2 = store.publish(models, norm, [1.0, 1.0]).version
            service = ScoringService(supervisor_config(root))
            await service.start()
            try:
                cand = store.publish(models, norm, [1.0, 1.0], set_current=False).version
                sup = make_supervisor(service, service.config)
                sup._retrain_argv = echo_candidate_argv(cand)
                feed(sup, live_labeled_items(service, range(4)))
                sup._pending_retrain = True
                await sup._step()
                assert sup.stats.state == "canary"
                sup._pending_rollback = True  # monitor says: live model is bad
                await sup._step()
                # the canary (trained against a distrusted model) is dropped,
                # the rollback wins
                assert sup._canary is None
                assert sup.stats.promotions == 0
                assert sup.stats.rollbacks == 1
                assert store.current() == v1
                assert service.scorer.artifact.version == v1
            finally:
                await service.shutdown()

        asyncio.run(scenario())

    def test_rollback_with_no_other_version_keeps_serving(self, drift_root):
        root, store, *_ , v1 = drift_root

        async def scenario():
            service = ScoringService(supervisor_config(root))
            await service.start()
            try:
                sup = make_supervisor(service, service.config)
                sup._pending_rollback = True
                await sup._step()
                assert sup.stats.rollbacks == 0
                assert "rollback impossible" in sup.stats.last_error
                assert service.scorer.artifact.version == v1
                r = await rpc(
                    service.port,
                    {"id": "still", "rows": separable_rows(1, seed=42).tolist()},
                )
                assert r["ok"]
            finally:
                await service.shutdown()

        asyncio.run(scenario())


class TestFeedbackBuffer:
    def test_ring_evicts_oldest(self):
        buf = FeedbackBuffer(3)
        for k in range(5):
            buf.add(FeedbackItem(rows=np.ones((1, 2)), label=1, family=str(k)))
        assert len(buf) == 3
        assert [it.family for it in buf.snapshot()] == ["2", "3", "4"]
