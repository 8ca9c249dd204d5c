"""Retrain subprocess: fold labeled feedback into a **candidate** artifact.

Run by the :class:`~repro.serve.supervisor.RetrainSupervisor` as::

    python -m repro.serve.retrain --artifact-root <store> --base <version> \
        --data feedback.npz --mode partial --passes 2 --seed 3

The process is deliberately isolated from the daemon: it loads the base
artifact fresh from disk, trains on the feedback batch, recomputes margin
scales on that batch, and publishes the result with ``set_current=False`` —
the live ``CURRENT`` pointer is never touched here.  The only contract with
the parent is one JSON line on stdout, ``{"candidate": "<version>"}``; any
crash, timeout, or nonzero exit costs the supervisor a backoff interval and
nothing else.

``--mode partial`` runs ``--passes`` incremental :func:`ensemble_partial_fit`
passes starting from the base weights (the streaming path the bit-identity
property test pins); ``--mode full`` zeros the loaded members' weights and
refits them in place on the feedback batch through
:func:`~repro.model.train_ensemble`, each with its own stored salts and
config and its own shuffle seed (``--seed + 17 * k`` for member ``k``) — so
full retrains get the same ``--train-workers`` threads as the
batch pipeline, bit-identical to one thread (pinned by the serve-drift
tests).  Partial mode always trains on one thread: a few incremental passes
are cheap.

The feedback ``.npz`` carries ``X`` (stacked interval rows), ``groups``
(per-row trace id), and ``labels`` (per-trace ±1); per-row labels are the
trace label broadcast over its rows, exactly how the batch trainer labels
interval samples.

``--data`` may also name a trace *corpus directory*: it is then assembled
through the same two cache tiers as the batch pipeline (``--cache-dir`` /
``--dataset-cache-dir``), so a supervisor full retrain over a captured
corpus stops re-paying decode + assembly on every trigger — a warm corpus
arrives as one memory-mapped load.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..errors import ReproError, RetrainFailed
from ..features import assemble_corpus
from ..model import ArtifactStore, ensemble_partial_fit, margin_scales, train_ensemble
from ..telemetry import get_logger, log_event

logger = get_logger("repro.serve.retrain")

RETRAIN_MODES = ("partial", "full")


def load_feedback(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, groups, labels) from a supervisor feedback dump, validated."""
    try:
        with np.load(path) as data:
            X = np.asarray(data["X"], dtype=np.float64)
            groups = np.asarray(data["groups"], dtype=np.int64)
            labels = np.asarray(data["labels"], dtype=np.int64)
    except (OSError, KeyError, ValueError) as exc:
        raise RetrainFailed(f"cannot load feedback data from {path}: {exc}") from exc
    if X.ndim != 2 or X.shape[0] == 0:
        raise RetrainFailed(f"feedback matrix has shape {X.shape}")
    if groups.shape != (X.shape[0],):
        raise RetrainFailed(
            f"groups shape {groups.shape} does not match {X.shape[0]} rows"
        )
    n_traces = int(groups.max()) + 1 if groups.size else 0
    if labels.shape != (n_traces,):
        raise RetrainFailed(
            f"labels shape {labels.shape} does not match {n_traces} traces"
        )
    if set(np.unique(labels)) - {-1, 1}:
        raise RetrainFailed("feedback labels must be -1 or +1")
    return X, groups, labels


def load_corpus_feedback(
    path, *, cache_dir=None, dataset_cache_dir=None, workers: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, groups, labels) assembled from a trace corpus directory through
    both cache tiers; labels come from the decoded trace metadata."""
    try:
        assembly = assemble_corpus(
            path,
            workers=workers,
            cache_root=cache_dir,
            dataset_cache_root=dataset_cache_dir,
        )
    except ReproError as exc:
        raise RetrainFailed(f"cannot assemble corpus {path}: {exc}") from exc
    dataset = assembly.dataset
    log_event(
        logger,
        "retrain.corpus_assembled",
        corpus=str(path),
        traces=len(dataset.traces),
        rows=dataset.n_samples,
        dataset_cache_hit=bool((assembly.dataset_cache or {}).get("hit")),
    )
    return (
        np.asarray(dataset.X, dtype=np.float64),
        np.asarray(dataset.groups, dtype=np.int64),
        dataset.trace_labels(),
    )


def retrain(
    artifact_root: str,
    base: str,
    data_path: str,
    *,
    mode: str = "partial",
    passes: int = 2,
    seed: int = 0,
    workers: int = 1,
    cache_dir=None,
    dataset_cache_dir=None,
) -> str:
    """Train a candidate from ``base`` + feedback; returns its version.

    ``workers`` sets the :func:`train_ensemble` thread count for
    ``mode="full"`` — bit-identical for every count; partial mode ignores
    it (it continues on one thread from the base weights).
    ``data_path`` is either a feedback ``.npz`` or a corpus directory
    (assembled through the decode / dataset cache tiers).
    """
    if mode not in RETRAIN_MODES:
        raise RetrainFailed(f"unknown retrain mode {mode!r}; expected {RETRAIN_MODES}")
    if passes < 1:
        raise RetrainFailed(f"passes must be >= 1, got {passes}")
    store = ArtifactStore(artifact_root)
    loaded = store.load(base)
    if Path(data_path).is_dir():
        X, groups, labels = load_corpus_feedback(
            data_path,
            cache_dir=cache_dir,
            dataset_cache_dir=dataset_cache_dir,
            workers=max(1, workers),
        )
    else:
        X, groups, labels = load_feedback(data_path)
    if X.shape[1] != loaded.n_features:
        raise RetrainFailed(
            f"feedback has {X.shape[1]} features, base {base} expects {loaded.n_features}"
        )
    # models train in the same normalized space they score in
    Z = loaded.normalizer.transform(X)
    y_rows = labels[groups]

    models = loaded.models
    if mode == "full":
        for model in models:
            model.weights[:] = 0
        # member k shuffles with seed + 17 * k, so the refit members keep
        # distinct visit orders and the ensemble does not collapse
        train_ensemble(models, Z, y_rows, epochs=max(passes, 5), seed=seed, workers=workers)
    else:
        for p in range(passes):
            ensemble_partial_fit(models, Z, y_rows, seed=seed + 1000 * p)

    scales = margin_scales(models, Z)
    result = store.publish(
        models,
        loaded.normalizer,
        scales,
        meta={
            "retrained_from": base,
            "retrain_mode": mode,
            "retrain_passes": passes,
            "feedback_traces": int(labels.shape[0]),
            "feedback_rows": int(X.shape[0]),
        },
        set_current=False,
    )
    log_event(
        logger,
        "retrain.candidate",
        candidate=result.version,
        base=base,
        mode=mode,
        traces=int(labels.shape[0]),
    )
    return result.version


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.retrain",
        description="Fold a labeled feedback batch into a candidate artifact.",
    )
    parser.add_argument("--artifact-root", required=True)
    parser.add_argument("--base", required=True, help="artifact version to start from")
    parser.add_argument(
        "--data",
        required=True,
        help="feedback .npz (X, groups, labels) or a trace corpus directory",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="per-trace decode cache when --data is a corpus directory",
    )
    parser.add_argument(
        "--dataset-cache-dir",
        default=None,
        metavar="DIR",
        help="assembled-dataset cache when --data is a corpus directory "
        "(warm retrains skip ingest entirely)",
    )
    parser.add_argument("--mode", choices=RETRAIN_MODES, default="partial")
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--train-workers",
        type=int,
        default=1,
        help="member-fit threads for --mode full (bit-identical for any N)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        candidate = retrain(
            args.artifact_root,
            args.base,
            args.data,
            mode=args.mode,
            passes=args.passes,
            seed=args.seed,
            workers=args.train_workers,
            cache_dir=args.cache_dir,
            dataset_cache_dir=args.dataset_cache_dir,
        )
    except ReproError as exc:
        print(json.dumps({"error": exc.describe()}), file=sys.stderr, flush=True)
        return 1
    print(json.dumps({"candidate": candidate}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
