"""End-to-end pipeline on a tiny synthetic corpus, clean and under fault
injection, via the same entry point as ``python -m repro.pipeline``."""

from __future__ import annotations

import json
import shutil
import warnings
from pathlib import Path

import pytest

from conftest import write_synthetic_corpus
from repro.errors import IngestError
from repro.faults import FaultPlan
from repro.pipeline import PipelineConfig, run_pipeline, split_traces
from repro.pipeline.__main__ import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


def small_config(corpus, out, **overrides) -> PipelineConfig:
    defaults = dict(
        trace_dir=str(corpus),
        out_dir=str(out),
        test_frac=0.3,
        epochs=10,
        seed=7,
        n_models=2,
        theta=5.0,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_clean_run_end_to_end(tmp_path):
    corpus = tmp_path / "corpus"
    write_synthetic_corpus(corpus, n_benign=6, n_attack=6)
    out = tmp_path / "run"
    metrics = run_pipeline(small_config(corpus, out))

    assert (out / "metrics.json").exists()
    assert (out / "quarantine.json").exists()
    assert (out / "normalizer.json").exists()
    assert (out / "models" / "member_0.npz").exists()

    doc = json.loads((out / "metrics.json").read_text())
    assert doc == metrics
    assert doc["ingest"]["loaded"] == 12
    assert doc["ingest"]["quarantined"] == 0
    # two cleanly-separated blobs: the detector must nail the held-out traces
    assert doc["metrics"]["trace_accuracy"] == 1.0
    assert doc["metrics"]["benign_false_positive_rate"] == 0.0
    assert doc["metrics"]["attack_recall"]["synthetic_attack"] == 1.0


def test_faulty_run_completes_and_quarantines(tmp_path):
    corpus = tmp_path / "corpus"
    write_synthetic_corpus(corpus, n_benign=8, n_attack=8)
    out = tmp_path / "run"
    faults = FaultPlan(io_rate=0.3, corrupt_rate=0.4, seed=5)
    metrics = run_pipeline(small_config(corpus, out, faults=faults))

    manifest = json.loads((out / "quarantine.json").read_text())
    assert manifest["total"] == metrics["ingest"]["quarantined"]
    assert metrics["ingest"]["loaded"] + metrics["ingest"]["quarantined"] == 16
    for entry in manifest["entries"]:
        assert entry["code"]  # every quarantined file carries a typed reason
    # training still produced a model and metrics despite the damage
    assert "trace_accuracy" in metrics["metrics"]


def test_all_faulty_corpus_raises_ingest_error(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(3):
        (corpus / f"junk_{i}.pkl").write_bytes(b"\x00" * 32)
    with pytest.raises(IngestError):
        run_pipeline(small_config(corpus, tmp_path / "run"))


def test_split_is_stratified_and_leak_free(tmp_path):
    corpus = tmp_path / "corpus"
    write_synthetic_corpus(corpus, n_benign=6, n_attack=6)
    from repro.ingest import TraceLoader

    results, _ = TraceLoader(corpus).load_corpus()
    traces = [r.trace for r in results]
    train, test = split_traces(traces, test_frac=0.3, seed=0)
    assert set(train) & set(test) == set()
    assert len(train) + len(test) == len(traces)
    # both classes represented on both sides
    train_labels = {traces[i].is_attack for i in train}
    test_labels = {traces[i].is_attack for i in test}
    assert train_labels == {True, False}
    assert test_labels == {True, False}


def test_cli_exit_codes(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    write_synthetic_corpus(corpus, n_benign=4, n_attack=4)
    out = tmp_path / "run"
    rc = cli_main(
        [
            "--trace-dir", str(corpus),
            "--out", str(out),
            "--epochs", "5",
            "--n-models", "1",
            "--theta", "5",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["loaded"] == 8

    empty = tmp_path / "empty"
    empty.mkdir()
    rc = cli_main(["--trace-dir", str(empty), "--out", str(tmp_path / "run2")])
    assert rc == 2  # typed failure -> nonzero exit, no traceback


def test_empty_test_split_reports_null_accuracy(tmp_path, capsys):
    """One capture per class leaves every class in train and the test split
    empty: metrics.json must stay strict JSON with null accuracies, and
    nothing may score the empty split (which warned on 0/0)."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("benign_a_0", "benign_b_0", "flush_0", "spectre_0"):
        shutil.copy(GOLDEN / f"{name}.pkl", corpus)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli_main(
            ["--trace-dir", str(corpus), "--out", str(out), "--epochs", "4", "--n-models", "2"]
        )
    assert rc == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
    assert doc["dataset"]["test_traces"] == 0
    assert doc["metrics"]["trace_accuracy"] is None
    assert doc["metrics"]["interval_accuracy"] is None
    summary = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert summary["trace_accuracy"] is None


def test_cli_faults_flag_round_trip(tmp_path):
    corpus = tmp_path / "corpus"
    write_synthetic_corpus(corpus, n_benign=4, n_attack=4)
    out = tmp_path / "run"
    rc = cli_main(
        [
            "--trace-dir", str(corpus),
            "--out", str(out),
            "--epochs", "5",
            "--n-models", "1",
            "--theta", "5",
            "--faults", "corrupt=1.0,seed=2",
        ]
    )
    # everything corrupted may still salvage or quarantine; either way the
    # CLI must not crash with an uncaught exception
    assert rc in (0, 2)
    assert (out / "quarantine.json").exists() or rc == 2


def test_fully_quarantined_corpus_exits_nonzero_with_event(
    tmp_path, caplog, capsys, monkeypatch
):
    """Satellite contract: when every file in the corpus is quarantined the
    CLI exits non-zero and a single clear ERROR event says why."""
    import logging

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(4):
        (corpus / f"junk_{i}.pkl").write_bytes(b"\xde\xad\xbe\xef" * 16)

    # the repro telemetry root does not propagate (it owns its own stderr
    # handler); re-enable propagation so caplog can observe the event
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    with caplog.at_level(logging.ERROR, logger="repro.pipeline"):
        rc = cli_main(["--trace-dir", str(corpus), "--out", str(tmp_path / "run")])
    assert rc == 2
    events = [
        r for r in caplog.records if "event=pipeline.empty_corpus" in r.getMessage()
    ]
    assert len(events) == 1
    assert events[0].levelno == logging.ERROR
    message = events[0].getMessage()
    assert "files=4" in message and "quarantined=4" in message
    assert "pipeline failed: [ingest_error]" in capsys.readouterr().err


def test_cli_save_artifact_publishes_loadable_store(tmp_path, capsys):
    from repro.model import ArtifactStore

    corpus = tmp_path / "corpus"
    write_synthetic_corpus(corpus, n_benign=4, n_attack=4)
    root = tmp_path / "artifact"
    rc = cli_main(
        [
            "save-artifact",
            "--trace-dir", str(corpus),
            "--out", str(tmp_path / "run"),
            "--artifact-root", str(root),
            "--epochs", "5",
            "--n-models", "2",
            "--theta", "5",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["artifact"]["version"].startswith("v0001-")

    store = ArtifactStore(root)
    assert store.current() == summary["artifact"]["version"]
    loaded = store.load()
    assert loaded.n_features == 12
    assert len(loaded.models) == 2
    assert len(loaded.scales) == 2
