"""Golden regression: the full pipeline over the checked-in 8-trace fixture
corpus must keep reproducing the recorded metrics exactly.

This pins accuracy against silent drift from the cache / parallel-ingest /
batched-scoring refactors: any change to decode results, feature assembly,
the split, training order, or scoring shows up as a diff against
``tests/fixtures/golden/expected_metrics.json``.  If the change is
*intentional*, regenerate with ``PYTHONPATH=src python
tests/fixtures/make_golden.py`` and commit the new expectations.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.pipeline import PipelineConfig, run_pipeline

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "golden"

_spec = importlib.util.spec_from_file_location("make_golden", FIXTURES / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.fixture(scope="module")
def expected() -> dict:
    path = GOLDEN / "expected_metrics.json"
    if not path.exists():
        pytest.skip("golden fixtures not generated in this checkout")
    return json.loads(path.read_text())


def _actual(out_dir, **overrides) -> dict:
    config = PipelineConfig(
        trace_dir=str(GOLDEN), out_dir=str(out_dir), **{**make_golden.GOLDEN_CONFIG, **overrides}
    )
    metrics = run_pipeline(config)
    # json round trip so int/float/list types compare like the stored doc
    return json.loads(json.dumps({k: metrics[k] for k in make_golden.STABLE_KEYS}))


def test_pipeline_reproduces_golden_metrics(tmp_path, expected):
    assert _actual(tmp_path / "run") == expected


def test_golden_metrics_unchanged_by_cache(tmp_path, expected):
    cache_dir = tmp_path / "cache"
    cold = _actual(tmp_path / "cold", cache_dir=str(cache_dir))
    warm = _actual(tmp_path / "warm", cache_dir=str(cache_dir))
    # a warm pass through the ingest pool loads the same cached decodes
    warm4 = _actual(tmp_path / "warm4", cache_dir=str(cache_dir), workers=4)
    for actual in (cold, warm, warm4):
        actual["ingest"].pop("cache")
        assert actual == expected
    for run in ("warm", "warm4"):
        warm_doc = json.loads((tmp_path / run / "metrics.json").read_text())
        assert warm_doc["ingest"]["cache"] == {"hits": 8, "misses": 0}


def test_golden_metrics_unchanged_by_workers(tmp_path, expected):
    assert _actual(tmp_path / "run", workers=4) == expected


def test_golden_corpus_is_intact():
    paths = sorted(GOLDEN.glob("*.pkl"))
    assert len(paths) == 8, "golden corpus must hold exactly 8 traces"
