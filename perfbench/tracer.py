"""Traced launcher: wraps the public entry points of each program layer in
timing spans, runs one program CLI in this process, and writes the spans
as JSON when the program returns.

    python3 perfbench/tracer.py pipeline SPANS.json -- <repro.pipeline args>
    python3 perfbench/tracer.py serve SPANS.json -- <repro.serve args>

The program code is not modified: the wrappers replace attributes on the
modules and classes that hold them, so the program's own calls go through
the spans.  Spans nest per thread; a span's parent is the innermost open
span on the same thread.  The benchmark turns the spans into per-layer self
times (``layers.py``).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time


class Recorder:
    """In-memory span list: ``[name, start_ns, end_ns, parent, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a spanned version.  ``observe(args,
        result)`` may return attributes recorded on the span."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = self._stack()
            record = [name, time.monotonic_ns(), None, stack[-1] if stack else None, {}]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic_ns()
                stack.pop()
            if observe is not None:
                record[4] = observe(args, result)
            return result

        setattr(owner, attr, kind(spanned) if kind is not None else spanned)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def install_pipeline(rec: Recorder):
    import repro.features.dataset_cache as dataset_cache
    import repro.ingest.loader as loader
    import repro.model.train_pool as train_pool
    import repro.pipeline as pipeline
    import repro.pipeline.__main__ as cli
    from repro.cache import FeatureCache
    from repro.features import DatasetCache, Normalizer
    from repro.model.kernels import TrainPlan
    from repro.model.perceptron import HashedPerceptron

    rec.wrap(cli, "run_pipeline", "pipeline.glue")
    rec.wrap(DatasetCache, "corpus_key", "ingest.sweep")
    rec.wrap(DatasetCache, "load", "ingest.load")
    rec.wrap(loader.TraceLoader, "load", "ingest.load")
    rec.wrap(
        loader,
        "decode_trace",
        "ingest.decode",
        lambda args, res: {"salvage": int(res[1].mode == "salvage")},
    )
    rec.wrap(FeatureCache, "get", "cache.get", lambda args, res: {"hit": int(res is not None)})
    rec.wrap(FeatureCache, "put", "cache.put")
    for attr in ("store", "store_normalizer", "store_normalized"):
        rec.wrap(DatasetCache, attr, "cache.store")
    rec.wrap(dataset_cache, "build_dataset", "featurize.assemble")
    for attr in ("load_normalizer", "load_normalized"):
        rec.wrap(DatasetCache, attr, "featurize.normalize")
    rec.wrap(Normalizer, "fit", "featurize.normalize")
    rec.wrap(Normalizer, "transform", "featurize.normalize")
    # only the trainer's quantize call: eval quantizes inside ensemble_margins
    rec.wrap(train_pool, "quantize_bins", "train.quantize")
    rec.wrap(HashedPerceptron, "_flat_from_bins", "train.hash")
    rec.wrap(TrainPlan, "from_flat", "train.hash")
    rec.wrap(
        HashedPerceptron,
        "_run_online_epoch",
        "train.epochs",
        lambda args, res: {"rows": len(args[3]), "updates": int(res)},
    )
    rec.wrap(HashedPerceptron, "fit", "train.fit")
    rec.wrap(HashedPerceptron, "save", "train.save")
    rec.wrap(
        pipeline, "ensemble_margins", "eval.score", lambda args, res: {"rows": len(args[1])}
    )
    rec.wrap(pipeline, "trace_verdicts", "eval.aggregate")
    rec.wrap(pipeline, "per_family_metrics", "eval.aggregate")
    return cli.main


def install_serve(rec: Recorder):
    import repro.serve.__main__ as cli
    import repro.serve.scorer as scorer
    import repro.serve.service as service
    from repro.model.artifact import ArtifactStore, LoadedArtifact

    rec.wrap(ArtifactStore, "load_with_fallback", "artifact.load")
    rec.wrap(
        service,
        "parse_request_line",
        "serve.parse",
        lambda args, res: {"id": str(res.get("id", "?"))},
    )
    rec.wrap(
        scorer.RequestScorer,
        "score_batch",
        "serve.batch",
        lambda args, res: {
            "ids": [req.req_id for req in args[1]],
            "received_ns": [int(req.received_mono * 1e9) for req in args[1]],
        },
    )
    rec.wrap(scorer, "decode_trace", "serve.decode")
    rec.wrap(LoadedArtifact, "score_traces", "serve.score")
    return cli.main


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("pipeline", "serve") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    program, spans_path, program_args = argv[0], argv[1], argv[3:]
    rec = Recorder()
    entry = install_pipeline(rec) if program == "pipeline" else install_serve(rec)
    rc = entry(program_args)
    rec.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
