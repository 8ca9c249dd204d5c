"""Self-healing retrain → canary → promote/rollback supervisor.

The drift monitor says *something changed*; this module decides what to do
about it without ever endangering the live model:

1. **Retrain** — labeled feedback traces (a bounded ring buffer fed by the
   scoring path) are snapshotted to an ``.npz`` and handed to a *subprocess*
   (``python -m repro.serve.retrain``) under a wall-clock timeout.  A crash,
   a hang, or garbage output costs one backoff interval and nothing else:
   the daemon's memory is never shared with the trainer.
2. **Canary** — a successful retrain publishes a **candidate** artifact with
   the ``CURRENT`` pointer untouched.  The supervisor shadow-scores labeled
   traffic arriving during the canary window against both the candidate and
   the live model; the candidate is promoted (one atomic pointer swap +
   in-process adoption) only if its accuracy clears the live model's minus a
   tolerance *and* an absolute floor.  Otherwise it is discarded — the
   version stays on disk for forensics but nothing ever serves it.
3. **Rollback** — when the drift monitor reports the live model is actively
   bad (rolling accuracy under the rollback floor), the supervisor loads the
   newest *other* version via ``load_with_fallback(skip=...)``, promotes it,
   and marks the bad version so the hot-reload poller will not resurrect it.

Every failure path (subprocess crash, timeout, unloadable candidate, canary
rejection) leaves the live model untouched and arms an exponential backoff,
so a persistently broken trainer degrades to "the loop stops retraining",
never to "the loop takes serving down".
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import shutil
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ArtifactError, RetrainFailed
from ..model.artifact import LoadedArtifact
from ..telemetry import get_logger, log_event

logger = get_logger("repro.serve.supervisor")


def _now_iso() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


@dataclass
class FeedbackItem:
    """One labeled trace captured off the scoring path."""

    rows: np.ndarray
    label: int
    family: str | None = None


class FeedbackBuffer:
    """Bounded ring of labeled traces (oldest evicted first)."""

    def __init__(self, capacity: int):
        self._items: deque[FeedbackItem] = deque(maxlen=max(1, int(capacity)))

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: FeedbackItem) -> None:
        self._items.append(item)

    def snapshot(self) -> list[FeedbackItem]:
        return list(self._items)


def write_feedback_npz(path, items: list[FeedbackItem]) -> None:
    """Serialize labeled traces for the retrain subprocess: stacked interval
    rows, a per-row trace id, and a per-trace label."""
    X = np.vstack([np.asarray(it.rows, dtype=np.float64) for it in items])
    groups = np.concatenate(
        [np.full(np.asarray(it.rows).shape[0], k, dtype=np.int64) for k, it in enumerate(items)]
    )
    labels = np.asarray([it.label for it in items], dtype=np.int64)
    np.savez_compressed(path, X=X, groups=groups, labels=labels)


def shadow_accuracies(
    candidate: LoadedArtifact, live: LoadedArtifact, items: list[FeedbackItem]
) -> tuple[float, float]:
    """(candidate, live) trace-level accuracy over the same labeled traces.
    Runs in an executor thread — pure numpy, no shared mutable state."""
    X = np.vstack([it.rows for it in items])
    groups = np.concatenate(
        [np.full(it.rows.shape[0], k, dtype=np.int64) for k, it in enumerate(items)]
    )
    y = np.asarray([it.label for it in items], dtype=np.int64)

    def accuracy(artifact: LoadedArtifact) -> float:
        _, verdicts = artifact.score_traces(X, groups, len(items))
        return float((verdicts == y).mean())

    return accuracy(candidate), accuracy(live)


@dataclass
class SupervisorStats:
    """Counters + timestamps surfaced on ``/metricsz``."""

    state: str = "idle"
    candidate: str | None = None
    feedback_traces: int = 0
    retrains_started: int = 0
    retrains_succeeded: int = 0
    retrains_failed: int = 0
    retrain_timeouts: int = 0
    canaries_started: int = 0
    canary_rejections: int = 0
    promotions: int = 0
    rollbacks: int = 0
    consecutive_failures: int = 0
    last_retrain_at: str | None = None
    last_promotion_at: str | None = None
    last_rollback_at: str | None = None
    last_error: str | None = None

    def to_json(self) -> dict:
        return {
            "state": self.state,
            "candidate": self.candidate,
            "feedback_traces": self.feedback_traces,
            "retrains_started": self.retrains_started,
            "retrains_succeeded": self.retrains_succeeded,
            "retrains_failed": self.retrains_failed,
            "retrain_timeouts": self.retrain_timeouts,
            "canaries_started": self.canaries_started,
            "canary_rejections": self.canary_rejections,
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "consecutive_failures": self.consecutive_failures,
            "last_retrain_at": self.last_retrain_at,
            "last_promotion_at": self.last_promotion_at,
            "last_rollback_at": self.last_rollback_at,
            "last_error": self.last_error,
        }


@dataclass
class _Canary:
    """An in-flight candidate under evaluation."""

    loaded: LoadedArtifact
    base: str
    started_mono: float
    items: list[FeedbackItem] = field(default_factory=list)


class RetrainSupervisor:
    """Owns the retrain/canary/rollback state machine for one service.

    All entry points (:meth:`add_feedback`, :meth:`on_report`) are called
    from the daemon's event-loop thread, and :meth:`run` is an event-loop
    task, so the state machine needs no locks.  Anything heavier than
    bookkeeping — subprocess waits, artifact loads, shadow scoring — is
    awaited or pushed to the executor so the loop never blocks.
    """

    def __init__(self, service, config):
        self.service = service
        self.config = config
        self.stats = SupervisorStats()
        self.feedback = FeedbackBuffer(config.feedback_capacity)
        self._wake = asyncio.Event()
        self._pending_retrain = False
        self._pending_rollback = False
        self._failures = 0
        self._backoff_until_mono = 0.0
        self._canary: _Canary | None = None
        # candidate versions that never earned promotion (rejected or
        # dropped): they live on disk for forensics, but a rollback must
        # never adopt one — "newest other version" is not "trusted version"
        self._distrusted: set[str] = set()

    # -- event-loop entry points ----------------------------------------

    def add_feedback(self, rows, label: int, family: str | None) -> None:
        item = FeedbackItem(
            rows=np.asarray(rows, dtype=np.float64), label=int(label), family=family
        )
        self.feedback.add(item)
        self.stats.feedback_traces += 1
        if self._canary is not None:
            self._canary.items.append(item)
        self._wake.set()

    def on_report(self, report) -> None:
        """React to a completed drift window (a :class:`~repro.drift.DriftReport`)."""
        if report.rollback:
            self._pending_rollback = True
        elif report.drifted:
            self._pending_retrain = True
        if self._pending_rollback or self._pending_retrain:
            self._wake.set()

    def backoff_remaining(self) -> float:
        return max(0.0, self._backoff_until_mono - time.monotonic())

    # -- main loop -------------------------------------------------------

    async def run(self) -> None:
        """Process wake-ups until cancelled.  The short poll timeout doubles
        as the canary-timeout and backoff-expiry clock."""
        while True:
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.25)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            try:
                await self._step()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # a supervisor bug must not kill the task
                self.stats.last_error = f"{type(exc).__name__}: {exc}"
                log_event(
                    logger,
                    "supervisor.step_error",
                    level=logging.ERROR,
                    error=self.stats.last_error,
                )

    async def _step(self) -> None:
        if self._pending_rollback:
            # rollback preempts everything: an in-flight canary was trained
            # by (or evaluated against) a model we no longer trust
            self._pending_rollback = False
            self._pending_retrain = False
            self._drop_canary(reason="preempted by rollback")
            await self._rollback()
            return
        if self._canary is not None:
            await self._maybe_gate_canary()
            return
        if self._pending_retrain:
            if time.monotonic() < self._backoff_until_mono:
                return
            if len(self.feedback) < self.config.retrain_min_traces:
                return  # stays pending until enough labeled traffic arrives
            self._pending_retrain = False
            await self._retrain()

    # -- retrain ---------------------------------------------------------

    def _retrain_argv(self, data_path, base: str) -> list[str]:
        """Command line for the retrain subprocess.  A method so failure-mode
        tests can substitute a crashing / hanging trainer."""
        return [
            sys.executable,
            "-m",
            "repro.serve.retrain",
            "--artifact-root",
            str(self.config.artifact_root),
            "--base",
            base,
            "--data",
            str(data_path),
            "--mode",
            self.config.retrain_mode,
            "--passes",
            str(self.config.retrain_passes),
            "--seed",
            str(self.stats.retrains_started),
            "--train-workers",
            str(self.config.retrain_workers),
        ]

    @staticmethod
    def _retrain_env() -> dict:
        """Subprocess environment with ``repro`` importable even when the
        daemon itself was started from a source checkout."""
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
        return env

    async def _retrain(self) -> None:
        base = self.service.scorer.artifact.version
        snapshot = self.feedback.snapshot()
        self.stats.retrains_started += 1
        self.stats.state = "retraining"
        log_event(
            logger,
            "supervisor.retrain_start",
            base=base,
            feedback_traces=len(snapshot),
            mode=self.config.retrain_mode,
        )
        tmpdir = tempfile.mkdtemp(prefix="repro-retrain-")
        try:
            data_path = Path(tmpdir) / "feedback.npz"
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, write_feedback_npz, data_path, snapshot)
            candidate = await self._run_retrain_subprocess(data_path, base)
            loaded = await loop.run_in_executor(None, self.service.store.load, candidate)
        except RetrainFailed as exc:
            self._on_retrain_failure(exc)
            return
        except ArtifactError as exc:
            self._on_retrain_failure(
                RetrainFailed(f"candidate failed verification: {exc}")
            )
            return
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        self._failures = 0
        self.stats.consecutive_failures = 0
        self.stats.retrains_succeeded += 1
        self.stats.last_retrain_at = _now_iso()
        self._canary = _Canary(loaded=loaded, base=base, started_mono=time.monotonic())
        self.stats.canaries_started += 1
        self.stats.state = "canary"
        self.stats.candidate = loaded.version
        log_event(
            logger,
            "supervisor.canary_start",
            candidate=loaded.version,
            base=base,
            min_traces=self.config.canary_min_traces,
        )

    async def _run_retrain_subprocess(self, data_path, base: str) -> str:
        """Run the trainer under a hard timeout; returns the candidate
        version.  Every failure becomes :class:`RetrainFailed`."""
        argv = self._retrain_argv(data_path, base)
        try:
            proc = await asyncio.create_subprocess_exec(
                *argv,
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.PIPE,
                env=self._retrain_env(),
            )
        except OSError as exc:
            raise RetrainFailed(f"cannot launch retrain subprocess: {exc}") from exc
        try:
            out, err = await asyncio.wait_for(
                proc.communicate(), timeout=self.config.retrain_timeout_s
            )
        except asyncio.TimeoutError:
            proc.kill()
            await proc.communicate()
            self.stats.retrain_timeouts += 1
            raise RetrainFailed(
                f"retrain exceeded {self.config.retrain_timeout_s}s; killed"
            ) from None
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip()[-300:]
            raise RetrainFailed(f"retrain exited {proc.returncode}: {tail or 'no stderr'}")
        candidate = None
        for line in out.decode(errors="replace").splitlines():
            line = line.strip()
            if line.startswith("{"):
                try:
                    candidate = json.loads(line).get("candidate")
                except ValueError:
                    continue
        if not candidate or not isinstance(candidate, str):
            raise RetrainFailed("retrain produced no candidate version on stdout")
        return candidate

    def _on_retrain_failure(self, exc: RetrainFailed) -> None:
        self._failures += 1
        self.stats.retrains_failed += 1
        self.stats.consecutive_failures = self._failures
        self.stats.last_error = str(exc)
        backoff = min(
            self.config.retrain_backoff_s * (2 ** (self._failures - 1)),
            self.config.retrain_backoff_max_s,
        )
        self._backoff_until_mono = time.monotonic() + backoff
        self._pending_retrain = True  # retry once the backoff expires
        self.stats.state = "idle"
        self.stats.candidate = None
        log_event(
            logger,
            "supervisor.retrain_failed",
            level=logging.WARNING,
            error=str(exc)[:200],
            consecutive=self._failures,
            backoff_s=f"{backoff:.1f}",
        )

    # -- canary ----------------------------------------------------------

    async def _maybe_gate_canary(self) -> None:
        canary = self._canary
        assert canary is not None
        elapsed = time.monotonic() - canary.started_mono
        enough = len(canary.items) >= self.config.canary_min_traces
        if not enough and elapsed < self.config.canary_timeout_s:
            return
        if not canary.items:
            self._reject_canary(canary, "no labeled canary traffic before timeout")
            return
        live = self.service.scorer.artifact
        loop = asyncio.get_running_loop()
        cand_acc, live_acc = await loop.run_in_executor(
            None, shadow_accuracies, canary.loaded, live, list(canary.items)
        )
        passed = (
            cand_acc >= live_acc - self.config.canary_margin
            and cand_acc >= self.config.canary_floor
        )
        log_event(
            logger,
            "supervisor.canary_gate",
            candidate=canary.loaded.version,
            candidate_accuracy=f"{cand_acc:.3f}",
            live_accuracy=f"{live_acc:.3f}",
            traces=len(canary.items),
            passed=passed,
        )
        if not passed:
            self._reject_canary(
                canary,
                f"candidate accuracy {cand_acc:.3f} vs live {live_acc:.3f} "
                f"(margin {self.config.canary_margin}, floor {self.config.canary_floor})",
            )
            return
        await loop.run_in_executor(None, self.service.store.promote, canary.loaded.version)
        self.service.adopt_artifact(canary.loaded)
        self._canary = None
        self._failures = 0
        self.stats.consecutive_failures = 0
        self.stats.promotions += 1
        self.stats.last_promotion_at = _now_iso()
        self.stats.state = "idle"
        self.stats.candidate = None
        log_event(
            logger,
            "supervisor.promote",
            version=canary.loaded.version,
            previous=canary.base,
            accuracy=f"{cand_acc:.3f}",
        )

    def _reject_canary(self, canary: _Canary, reason: str) -> None:
        """Discard a candidate that did not earn promotion.  The version
        stays on disk (CURRENT never pointed at it) but nothing serves it;
        a rejection arms the same backoff as a failed retrain."""
        self._canary = None
        self._distrusted.add(canary.loaded.version)
        self._on_retrain_failure(RetrainFailed(f"canary rejected: {reason}"))
        # _on_retrain_failure counts it as a failed retrain for backoff
        # purposes; keep the canary-specific counter honest too
        self.stats.retrains_failed -= 1
        self.stats.canary_rejections += 1
        log_event(
            logger,
            "supervisor.canary_reject",
            level=logging.WARNING,
            candidate=canary.loaded.version,
            reason=reason[:200],
        )

    def _drop_canary(self, *, reason: str) -> None:
        if self._canary is None:
            return
        dropped = self._canary
        self._canary = None
        self._distrusted.add(dropped.loaded.version)
        self.stats.state = "idle"
        self.stats.candidate = None
        log_event(
            logger,
            "supervisor.canary_dropped",
            candidate=dropped.loaded.version,
            reason=reason,
        )

    # -- rollback --------------------------------------------------------

    async def _rollback(self) -> None:
        current = self.service.scorer.artifact.version
        skip = {current} | self._distrusted
        loop = asyncio.get_running_loop()
        try:
            loaded = await loop.run_in_executor(
                None, lambda: self.service.store.load_with_fallback(skip=skip)
            )
        except ArtifactError as exc:
            # nowhere to roll back to — keep serving the suspect model and
            # say so loudly rather than serving nothing
            self.stats.last_error = f"rollback impossible: {exc}"
            log_event(
                logger,
                "supervisor.rollback_impossible",
                level=logging.ERROR,
                current=current,
                error=str(exc)[:200],
            )
            return
        await loop.run_in_executor(None, self.service.store.promote, loaded.version)
        self.service.mark_bad_version(current)
        self.service.adopt_artifact(loaded)
        self.stats.rollbacks += 1
        self.stats.last_rollback_at = _now_iso()
        self.stats.state = "idle"
        log_event(
            logger,
            "supervisor.rollback",
            level=logging.WARNING,
            rolled_back=current,
            serving=loaded.version,
        )
