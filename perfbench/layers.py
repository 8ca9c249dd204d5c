"""Per-layer numbers from the spans ``tracer.py`` records.

A span's self time is its duration minus the time its direct child spans
cover, so the self times of one run add up to the time of its root span.
The benchmark adds ``pipeline.startup`` (process wall time outside
``run_pipeline``), which makes a pipeline run's self times add up to its
wall time; for a served request the components add up to the latency the
client saw.
"""

from __future__ import annotations

from common import percentile

#: pipeline spans, in call order; each yields ``<span>.self_s`` and ``<span>.calls``
PIPELINE_SPANS = (
    "pipeline.startup",
    "pipeline.glue",
    "ingest.sweep",
    "ingest.load",
    "ingest.decode",
    "cache.get",
    "cache.put",
    "cache.store",
    "featurize.assemble",
    "featurize.normalize",
    "train.quantize",
    "train.hash",
    "train.epochs",
    "train.fit",
    "train.save",
    "eval.score",
    "eval.aggregate",
)

#: per-request serve components; each yields ``<span>.p50_ms`` and ``<span>.p99_ms``
SERVE_SPANS = (
    "serve.parse",
    "serve.queue_wait",
    "serve.decode",
    "serve.score",
    "serve.batch",
    "serve.handoff",
    "serve.wire",
)


def _self_ns(spans: list[list]) -> list[int]:
    covered = [0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def pipeline_layers(spans: list[list], wall_s: float, dataset_rows: int) -> dict:
    """Self time and call count per pipeline span, plus the counts measured
    at the same boundaries."""
    self_ns = _self_ns(spans)
    self_s = {name: 0.0 for name in PIPELINE_SPANS}
    calls = {name: 0 for name in PIPELINE_SPANS}
    totals = {"salvage": 0, "hit": 0, "rows": 0, "updates": 0, "scored": 0}
    root_ns = 0
    for span, own in zip(spans, self_ns):
        name, start, end, parent, attrs = span
        self_s[name] += own / 1e9
        calls[name] += 1
        if parent is None:
            root_ns += end - start
        if name == "ingest.decode":
            totals["salvage"] += attrs["salvage"]
        elif name == "cache.get":
            totals["hit"] += attrs["hit"]
        elif name == "train.epochs":
            totals["rows"] += attrs["rows"]
            totals["updates"] += attrs["updates"]
        elif name == "eval.score":
            totals["scored"] += attrs["rows"]
    self_s["pipeline.startup"] = wall_s - root_ns / 1e9
    calls["pipeline.startup"] = 1
    return {
        "self_s": self_s,
        "calls": calls,
        "span_sum_s": sum(self_s.values()),
        "ingest.decode.salvage_share": (
            totals["salvage"] / calls["ingest.decode"] if calls["ingest.decode"] else 0.0
        ),
        "cache.get.hit_ratio": totals["hit"] / calls["cache.get"] if calls["cache.get"] else 0.0,
        "train.rows_visited": totals["rows"],
        "train.updates_traced": totals["updates"],
        "eval.rows_scored_ratio": totals["scored"] / dataset_rows,
    }


def serve_layers(spans: list[list], answered: dict[str, tuple[float, float]]) -> dict:
    """Per-request latency components for the requests in ``answered``
    (id -> (client latency ms, daemon ``latency_ms``)).

    Batch-level spans (decode, score, the scorer's own work) are charged in
    full to every request of the batch, because each request waits for the
    whole batch; the components of one request then add up to its client
    latency.  ``serve.queue_wait`` runs from the daemon reading the line to
    the batch starting, less the parse.
    """
    self_ns = _self_ns(spans)
    parse_ms: dict[str, float] = {}
    batches: dict[int, dict] = {}
    artifact_load_s = 0.0
    for index, (span, own) in enumerate(zip(spans, self_ns)):
        name = span[0]
        if name == "serve.parse":
            parse_ms[span[4]["id"]] = (span[2] - span[1]) / 1e6
        elif name == "serve.batch":
            batches.setdefault(index, {"decode": 0.0, "score": 0.0})["span"] = span
        elif name in ("serve.decode", "serve.score"):
            key = name.split(".", 1)[1]
            batches.setdefault(span[3], {"decode": 0.0, "score": 0.0})[key] += (
                span[2] - span[1]
            ) / 1e6
        elif name == "artifact.load":
            artifact_load_s += own / 1e9
    parts: dict[str, list[float]] = {name: [] for name in SERVE_SPANS}
    worst_gap_ms = 0.0
    for batch in batches.values():
        start, end, attrs = batch["span"][1], batch["span"][2], batch["span"][4]
        batch_ms = (end - start) / 1e6
        for req_id, received_ns in zip(attrs["ids"], attrs["received_ns"]):
            if req_id not in answered:
                continue
            client_ms, daemon_ms = answered[req_id]
            queued_ms = (start - received_ns) / 1e6
            row = {
                "serve.parse": parse_ms.get(req_id, 0.0),
                "serve.queue_wait": queued_ms - parse_ms.get(req_id, 0.0),
                "serve.decode": batch["decode"],
                "serve.score": batch["score"],
                "serve.batch": batch_ms - batch["decode"] - batch["score"],
                "serve.handoff": daemon_ms - queued_ms - batch_ms,
                "serve.wire": client_ms - daemon_ms,
            }
            for name, value in row.items():
                parts[name].append(value)
            worst_gap_ms = max(worst_gap_ms, abs(sum(row.values()) - client_ms))
    if not parts["serve.wire"]:
        raise ValueError("no traced request matched an answered request")
    out = {}
    for name, values in parts.items():
        out[f"{name}.p50_ms"] = percentile(values, 50)
        out[f"{name}.p99_ms"] = percentile(values, 99)
    return {
        "metrics": out,
        "requests": len(parts["serve.wire"]),
        "component_gap_ms": worst_gap_ms,
        "min_ms": {name: min(values) for name, values in parts.items()},
        "artifact.load.self_s": artifact_load_s,
    }
