"""Shared fixtures: paths into the real trace-cache corpus, synthetic
trace factories used by the codec / ingest / pipeline tests, and a polling
helper for the in-process daemon tests."""

from __future__ import annotations

import asyncio
from pathlib import Path

import numpy as np
import pytest

from repro.sim.trace import Trace, encode_trace

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACE_CACHE = REPO_ROOT / ".trace_cache"


def corpus_paths(limit: int | None = None) -> list[Path]:
    paths = sorted(TRACE_CACHE.glob("*.pkl"))
    return paths[:limit] if limit else paths


@pytest.fixture(scope="session")
def real_trace_paths() -> list[Path]:
    paths = corpus_paths()
    if not paths:
        pytest.skip("no .trace_cache corpus in this checkout")
    return paths


def make_trace(
    program: str = "unit_prog",
    label: int = -1,
    attack_class: str | None = None,
    interval: int = 10000,
    n_intervals: int = 4,
    n_features: int = 12,
    seed: int = 0,
) -> Trace:
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_intervals, n_features)) * 100.0
    return Trace(
        program=program,
        label=label,
        attack_class=attack_class,
        interval=interval,
        rows=rows,
        stat_names=[f"stat_{i}" for i in range(n_features)],
        meta={"seed": seed},
    )


def write_synthetic_corpus(root: Path, n_benign: int = 4, n_attack: int = 4) -> list[Path]:
    """Write a tiny, cleanly-encoded corpus; benign and attack rows are drawn
    from well-separated distributions so a perceptron can tell them apart."""
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_benign):
        rng = np.random.default_rng(100 + i)
        # two benign programs so the per-class stratified split can place
        # benign traces on both sides of the train/test boundary
        trace = make_trace(program=f"benign_{i % 2}", label=-1, seed=100 + i)
        trace.rows = rng.normal(loc=0.0, scale=1.0, size=trace.rows.shape)
        path = root / f"benign_{i}.pkl"
        path.write_bytes(encode_trace(trace))
        paths.append(path)
    for i in range(n_attack):
        rng = np.random.default_rng(200 + i)
        trace = make_trace(
            program=f"attack_{i}", label=1, attack_class="synthetic_attack", seed=200 + i
        )
        trace.rows = rng.normal(loc=6.0, scale=1.0, size=trace.rows.shape)
        path = root / f"attack_{i}.pkl"
        path.write_bytes(encode_trace(trace))
        paths.append(path)
    return paths


async def wait_for_state(predicate, what: str, *, tries: int = 500) -> None:
    """Poll ``predicate`` on the event loop every 10 ms until it holds."""
    for _ in range(tries):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")
