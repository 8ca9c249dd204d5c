"""End-to-end train/eval pipeline: corpus -> ingest -> features -> perceptron.

``python -m repro.pipeline`` walks the trace cache (serially or through the
:mod:`repro.ingest.pool` worker pool), quarantines undecodable files, trains
the hashed perceptron on a per-class stratified trace split, and writes
``metrics.json`` / ``quarantine.json`` / model artifacts to the run
directory.  One bad input never aborts the run.

With ``cache_dir`` set, decodes are memoized in a
:class:`~repro.cache.FeatureCache`, so warm runs skip the salvage decoder.
Worker count (ingest *and* training), cache state, and the online epoch
kernel never change *what* is computed — only how fast — which the
fault-matrix and train-pool regression tests pin down.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..faults import FaultPlan
from ..features import Normalizer, assemble_corpus
from ..ingest.retry import RetryPolicy
from ..model import (
    ArtifactStore,
    ensemble_margins,
    margin_scales,
    trace_verdicts,
    train_ensemble,
)
from ..telemetry import get_logger, log_event, span

logger = get_logger("repro.pipeline")

METRICS_VERSION = 5


@dataclass
class PipelineConfig:
    trace_dir: str = ".trace_cache"
    #: corpus file glob, relative to ``trace_dir``; the recursive default
    #: picks up both flat corpora and the payload-hash-sharded layout
    #: ``repro.gen`` writes (``shard_xx/*.pkl``)
    pattern: str = "**/*.pkl"
    out_dir: str = "runs/latest"
    test_frac: float = 0.3
    epochs: int = 20
    seed: int = 7
    decode_timeout_s: float = 30.0
    faults: FaultPlan | None = None
    n_tables: int = 16
    table_bits: int = 12
    n_bins: int = 16
    theta: float = 50.0
    #: hash-seed ensemble size; margins are averaged across members
    n_models: int = 5
    #: ingest worker processes; <= 1 decodes serially in-process
    workers: int = 1
    #: content-addressed decode cache directory; None disables caching
    cache_dir: str | None = None
    #: memory-mapped assembled-dataset cache directory; None disables the
    #: tier.  A warm corpus then skips decode + assembly entirely: the key
    #: sweep hashes file bytes and the matrix arrives via ``np.load(...,
    #: mmap_mode="r")``
    dataset_cache_dir: str | None = None
    #: retry policy for transient read failures (None = defaults)
    retry_policy: RetryPolicy | None = None
    #: online epoch kernel: "auto" (native C when a compiler is available,
    #: else blocked), "native", "blocked", or "reference" — all bit-identical
    fit_kernel: str = "auto"
    #: ensemble-member training processes; <= 1 trains serially in-process,
    #: more attach to one shared-memory bins matrix — bit-identical
    train_workers: int = 1
    #: when set, publish a versioned serving artifact (ensemble + normalizer
    #: + pinned margin scales) into this store after training
    artifact_root: str | None = None


def _class_key(trace) -> str:
    if trace.is_attack:
        return trace.attack_class or trace.program
    return f"benign:{trace.program}"


def _family_key(trace) -> str:
    """Attack-family label for per-family evaluation.

    Attacks group by ``attack_class`` (the generator stamps the family name
    there; the real corpus carries its capture class), benign traces by
    workload program — both survive the salvage decoder, unlike ``meta``.
    """
    if trace.is_attack:
        return trace.attack_class or trace.program
    return trace.program


def _margin_stats(margins: np.ndarray) -> dict:
    """Distribution summary of per-trace mean margins, JSON-exact floats."""
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        return {"mean": None, "std": None, "min": None, "p25": None, "p50": None, "p75": None, "max": None}
    p25, p50, p75 = (float(v) for v in np.percentile(margins, [25.0, 50.0, 75.0]))
    return {
        "mean": float(margins.mean()),
        "std": float(margins.std()),
        "min": float(margins.min()),
        "p25": p25,
        "p50": p50,
        "p75": p75,
        "max": float(margins.max()),
    }


def per_family_metrics(
    traces, test_idx, verdicts: np.ndarray, truth: np.ndarray, trace_margins: np.ndarray
) -> dict[str, dict]:
    """Per-family accuracy / false-positive-or-miss rate / margin
    distributions over the held-out traces.

    Families come from :func:`_family_key`; benign families report
    ``false_positive_rate`` (flagged-as-attack fraction), attack families
    ``miss_rate`` (1 - recall).  ``margins`` summarizes the per-trace mean
    ensemble margin — the detector's confidence — for that family's test
    traces.
    """
    cells: dict[str, dict] = {}
    members: dict[str, list[int]] = {}
    for t in sorted(int(i) for i in test_idx):
        trace = traces[t]
        key = _family_key(trace)
        cell = cells.setdefault(
            key,
            {"kind": "attack" if trace.is_attack else "benign", "tested": 0, "correct": 0},
        )
        cell["tested"] += 1
        cell["correct"] += int(verdicts[t] == truth[t])
        members.setdefault(key, []).append(t)
    out: dict[str, dict] = {}
    for key in sorted(cells):
        cell = cells[key]
        accuracy = cell["correct"] / cell["tested"]
        error = 1.0 - accuracy
        doc = {
            "kind": cell["kind"],
            "tested": cell["tested"],
            "correct": cell["correct"],
            "accuracy": accuracy,
            "margins": _margin_stats(trace_margins[members[key]]),
        }
        if cell["kind"] == "benign":
            doc["false_positive_rate"] = error
        else:
            doc["miss_rate"] = error
        out[key] = doc
    return out


def split_traces(traces, test_frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified per-class trace split; classes with a single trace stay in
    train, so a corpus of single-trace classes has an empty test split.
    Returns (train_idx, test_idx)."""
    rng = np.random.default_rng(seed)
    by_class: dict[str, list[int]] = {}
    for i, trace in enumerate(traces):
        by_class.setdefault(_class_key(trace), []).append(i)
    train, test = [], []
    for indices in by_class.values():
        indices = list(indices)
        rng.shuffle(indices)
        n_test = int(round(test_frac * len(indices))) if len(indices) > 1 else 0
        n_test = min(n_test, len(indices) - 1)
        test.extend(indices[:n_test])
        train.extend(indices[n_test:])
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(test), dtype=np.int64)


def run_pipeline(config: PipelineConfig) -> dict:
    """Run train + eval once; returns the metrics document (also written to
    ``<out_dir>/metrics.json``)."""
    t_start = time.monotonic()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # ---- ingest + assembly ----------------------------------------------
    # one call resolves the corpus through both cache tiers: a warm dataset
    # cache short-circuits decode and assembly with a single mmap load, a
    # miss walks the decode cache / salvage path and publishes the result
    assembly = assemble_corpus(
        config.trace_dir,
        pattern=config.pattern,
        workers=config.workers,
        retry_policy=config.retry_policy,
        decode_timeout_s=config.decode_timeout_s,
        faults=config.faults,
        cache_root=config.cache_dir,
        dataset_cache_root=config.dataset_cache_dir,
        quarantine_path=out_dir / "quarantine.json",
    )
    dataset = assembly.dataset
    quarantine = assembly.quarantine

    # ---- features -------------------------------------------------------
    train_idx, test_idx = split_traces(dataset.traces, config.test_frac, config.seed)
    train_mask = np.isin(dataset.groups, train_idx)
    # split_traces partitions the trace indices, so the test mask is exactly
    # the complement — skip a second sort-based isin over every sample
    test_mask = ~train_mask

    # the fitted stats depend only on (corpus, seed, test_frac), so the
    # dataset-cache entry carries them as a JSON sidecar; the round-trip is
    # bit-exact, making a sidecar hit indistinguishable from a fresh fit
    normalizer = None
    normalizer_cached = False
    if assembly.cache is not None and assembly.key is not None:
        normalizer = assembly.cache.load_normalizer(
            assembly.key,
            seed=config.seed,
            test_frac=config.test_frac,
            n_features=dataset.n_features,
        )
        normalizer_cached = normalizer is not None
    if normalizer is None:
        normalizer = Normalizer().fit(dataset.X[train_mask])
        if assembly.cache is not None and assembly.key is not None:
            assembly.cache.store_normalizer(
                assembly.key, normalizer, seed=config.seed, test_frac=config.test_frac
            )
    normalizer.save(out_dir / "normalizer.json")
    # transform is elementwise per row (per-column constants only), so
    # normalizing the full matrix once and slicing is bit-identical to
    # transforming each slice — and eval reuses X_all instead of a third pass.
    # the entry also carries the normalized matrix per split as a CRC-verified
    # .npy sidecar holding the exact float64 bytes a fresh transform produced,
    # so a fully warm run never touches log1p at all
    X_all = None
    if normalizer_cached:
        X_all = assembly.cache.load_normalized(
            assembly.key,
            seed=config.seed,
            test_frac=config.test_frac,
            shape=dataset.X.shape,
        )
    normalized_cached = X_all is not None
    if X_all is None:
        X_all = normalizer.transform(dataset.X)
        if assembly.cache is not None and assembly.key is not None:
            assembly.cache.store_normalized(
                assembly.key, X_all, seed=config.seed, test_frac=config.test_frac
            )
    t_features = time.monotonic()

    # ---- model ----------------------------------------------------------
    # carving the train/test copies out of the normalized matrix is training
    # prep, not featurization — it lands in train_s
    Xtr = X_all[train_mask]
    Xte = X_all[test_mask]
    ytr = dataset.y[train_mask]
    yte = dataset.y[test_mask]
    n_models = max(1, config.n_models)
    with span(
        logger,
        "pipeline.train",
        members=n_models,
        kernel=config.fit_kernel,
        workers=config.train_workers,
    ) as train_span:
        members = train_ensemble(
            Xtr,
            ytr,
            n_features=dataset.n_features,
            seeds=[config.seed * 1000 + k for k in range(n_models)],
            model_kwargs={
                "n_tables": config.n_tables,
                "table_bits": config.table_bits,
                "n_bins": config.n_bins,
                "theta": config.theta,
            },
            fit_kwargs={"epochs": config.epochs, "kernel": config.fit_kernel},
            workers=config.train_workers,
        )
        for k, member in enumerate(members):
            member.model.save(out_dir / "models" / f"member_{k}.npz")
        train_span["epochs"] = [len(m.history) for m in members]
    models = [m.model for m in members]
    histories = [m.history for m in members]
    t_train = time.monotonic()

    # ---- artifact publish -----------------------------------------------
    artifact_doc = None
    if config.artifact_root is not None:
        scales = margin_scales(models, Xtr)
        published = ArtifactStore(config.artifact_root).publish(
            models,
            normalizer,
            scales,
            meta={
                "trace_dir": config.trace_dir,
                "seed": config.seed,
                "epochs": config.epochs,
                "n_models": n_models,
                "train_traces": len(train_idx),
                "train_samples": int(train_mask.sum()),
            },
        )
        artifact_doc = {
            "root": config.artifact_root,
            "version": published.version,
            "n_features": published.manifest["n_features"],
            "members": published.manifest["n_members"],
        }

    # ---- eval -----------------------------------------------------------
    # an empty test split has no accuracy: report null rather than scoring
    # zero rows (whose mean-|margin| normalization is 0/0)
    interval_acc = None
    if len(yte):
        margins_test = ensemble_margins(models, Xte)
        interval_acc = float((np.where(margins_test > 0, 1, -1) == yte).mean())
    margins_all = ensemble_margins(models, X_all)
    verdicts = trace_verdicts(margins_all, dataset.groups, len(dataset.traces))
    truth = dataset.trace_labels()
    margin_sums = np.bincount(dataset.groups, weights=margins_all, minlength=len(dataset.traces))
    margin_counts = np.bincount(dataset.groups, minlength=len(dataset.traces))
    trace_margins = np.divide(
        margin_sums, margin_counts, out=np.zeros_like(margin_sums), where=margin_counts > 0
    )
    per_family = per_family_metrics(dataset.traces, test_idx, verdicts, truth, trace_margins)

    test_set = set(test_idx.tolist())
    per_class: dict[str, dict] = {}
    n_correct = n_eval = 0
    benign_total = benign_fp = 0
    for t in sorted(test_set):
        trace = dataset.traces[t]
        key = _class_key(trace)
        cell = per_class.setdefault(key, {"total": 0, "correct": 0})
        cell["total"] += 1
        correct = verdicts[t] == truth[t]
        cell["correct"] += int(correct)
        n_eval += 1
        n_correct += int(correct)
        if not trace.is_attack:
            benign_total += 1
            benign_fp += int(verdicts[t] == 1)
    t_eval = time.monotonic()

    attack_recall = {
        key: cell["correct"] / cell["total"]
        for key, cell in sorted(per_class.items())
        if not key.startswith("benign:")
    }
    ingest_doc = dict(assembly.ingest)
    if config.cache_dir is not None and assembly.decode_cache_hits is not None:
        hits = assembly.decode_cache_hits
        ingest_doc["cache"] = {"hits": hits, "misses": ingest_doc["loaded"] - hits}
    metrics = {
        "version": METRICS_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "elapsed_s": round(time.monotonic() - t_start, 3),
        "timings": {
            # ingest covers the key sweep + decode (cold) or entry load
            # (warm); featurize is everything from trace assembly through
            # the normalized matrix — t_ingest sits after both, so split on
            # the assembly's own ingest clock
            "ingest_s": round(assembly.ingest_s, 3),
            "featurize_s": round(t_features - t_start - assembly.ingest_s, 3),
            "train_s": round(t_train - t_features, 3),
            "train_members_s": [round(m.train_s, 3) for m in members],
            "eval_s": round(t_eval - t_train, 3),
        },
        "config": {
            "trace_dir": config.trace_dir,
            "pattern": config.pattern,
            "test_frac": config.test_frac,
            "epochs": config.epochs,
            "seed": config.seed,
            "n_tables": config.n_tables,
            "table_bits": config.table_bits,
            "n_bins": config.n_bins,
            "theta": config.theta,
            "n_models": config.n_models,
            "fit_kernel": config.fit_kernel,
            "train_workers": config.train_workers,
            "dataset_cache_dir": config.dataset_cache_dir,
            "faults": vars(config.faults) if config.faults else None,
        },
        "ingest": ingest_doc,
        "dataset": {
            "traces": len(dataset.traces),
            "samples": dataset.n_samples,
            "features": dataset.n_features,
            "train_traces": len(train_idx),
            "test_traces": len(test_idx),
            "skipped_traces": len(dataset.skipped),
        },
        "training": {
            "members": len(models),
            "epochs_run": [len(h) for h in histories],
            "updates_per_epoch": histories,
        },
        "artifact": artifact_doc,
        "metrics": {
            "interval_accuracy": interval_acc,
            "trace_accuracy": (n_correct / n_eval) if n_eval else None,
            "benign_false_positive_rate": (benign_fp / benign_total) if benign_total else 0.0,
            "attack_recall": attack_recall,
            "per_class": per_class,
            "families": len(per_family),
            "per_family": per_family,
        },
    }
    if config.dataset_cache_dir is not None:
        # its own top-level section (not under "ingest") so stable-metrics
        # comparisons between cold and warm runs stay key-for-key identical
        doc = dict(assembly.dataset_cache or {"enabled": True, "hit": False})
        doc["normalizer_cached"] = normalizer_cached
        doc["normalized_cached"] = normalized_cached
        if assembly.cache is not None:
            doc["stats"] = assembly.cache.stats.to_json()
        metrics["dataset_cache"] = doc
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    trace_accuracy = metrics["metrics"]["trace_accuracy"]
    log_event(
        logger,
        "pipeline.done",
        trace_accuracy="null" if trace_accuracy is None else f"{trace_accuracy:.4f}",
        fpr=f"{metrics['metrics']['benign_false_positive_rate']:.4f}",
        quarantined=len(quarantine),
        out=str(out_dir),
    )
    return metrics
