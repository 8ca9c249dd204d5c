"""The three workloads.  Each run produces every end-to-end metric:

- ``pipeline_warm`` re-runs the pipeline on an unchanged 10k-trace
  generated corpus with every cache filled, then serves the model it
  published to held-out generated traces.
- ``pipeline_cold`` runs the pipeline with empty caches on a fixed subset
  of the committed damaged captures, then serves its model to clean
  re-encodings of those captures (the daemon would otherwise spend its time
  in the salvage decoder, which this workload already times in the
  pipeline).
- ``serve_open_loop`` publishes a model from a generated corpus and spends
  its whole budget on open-loop traffic against the daemon.

The workload seed shapes the served traffic only: held-out generated
traces on ``pipeline_warm`` and ``serve_open_loop``, the order of the
re-encoded captures on ``pipeline_cold``.  The corpora the pipeline trains
on are fixed (see ``TRAIN_SEED``), so its metrics do not vary with the
seed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import layers
import serve_load
from common import (
    BENCH_DIR,
    TRACE_CACHE,
    WORK,
    BenchError,
    files_digest,
    median,
    program_env,
    run_timed,
    source_digest,
)

#: input sizes: full, and the toy sizes of ``--quick``
SIZES = {
    False: {"warm_traces": 10000, "serve_traces": 5000, "traffic": 600, "cold_families": 3},
    True: {"warm_traces": 240, "serve_traces": 240, "traffic": 48, "cold_families": 6},
}


@dataclass(frozen=True)
class Plan:
    """How a workload spends its run."""

    #: set-up repetitions; ``setup_s`` is their median
    setups: int
    #: timed pipeline runs; ``pipeline_s`` is their median
    pipeline_runs: int
    #: the nominal serve rate, about a fifth of this workload's knee
    nominal_rps: float
    #: nominal phase length; ``None`` takes half of ``--seconds``
    nominal_s: float | None
    #: saturation probes that count towards ``serve_max_rps``
    probes: int
    #: the rate the first saturation probe offers, about twice the knee
    overload_rps: float


#: the nominal rates are about a fifth of what the daemon sustains, so a
#: stall of the host delays the few requests it overlaps and is worked off
#: at once; nearer the knee one stall delays every request after it for a
#: while, and the median latency followed the host from run to run
PLANS = {
    "pipeline_warm": Plan(2, 4, 100, 5.0, 4, 1000),
    "pipeline_cold": Plan(9, 3, 50, 8.0, 4, 500),
    "serve_open_loop": Plan(9, 5, 100, None, 6, 1000),
}
QUICK_PLAN = Plan(1, 1, 100, 0.5, 1, 1000)
#: requests per nominal slice.  The nominal phase runs in slices,
#: interleaved with the saturation probes and pipeline runs so that every
#: metric samples the whole run: the shared host slows down in bursts of a
#: few seconds
SLICE_REQUESTS = 50
#: how long a saturation probe offers requests; the daemon drains them over
#: about twice that
PROBE_S = 0.6
#: ``repro.gen`` seed of the corpora models are trained on.  It is fixed:
#: across ten corpus seeds the 10k-trace model's benign FPR spread by 42% of
#: its median (interquartile range), wider than any usable bound, so the
#: workload seed draws the served traffic instead
TRAIN_SEED = 7
#: offset from the workload seed to the traffic corpus seed, keeping the
#: two corpora apart
TRAFFIC_SEED_OFFSET = 1_000_000
#: metrics.json sections every pipeline run of a workload must reproduce
STABLE_SECTIONS = ("dataset", "training", "metrics")


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    flip: bool
    work: Path
    sizes: dict = field(init=False)
    plan: Plan = field(init=False)

    def __post_init__(self):
        self.sizes = SIZES[self.quick]
        self.plan = QUICK_PLAN if self.quick else PLANS[self.workload]

    @property
    def nominal_s(self) -> float:
        return self.plan.nominal_s or 0.5 * self.seconds


class Outcome:
    """Operations attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def add_phase(self, phase: serve_load.Phase) -> None:
        self.attempted += phase.attempted
        self.failed += phase.failed
        self.failures.extend(phase.failures[: max(0, 20 - len(self.failures))])


@dataclass
class Result:
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


# -- program invocations ------------------------------------------------------


def pipeline_cmd(args: list[str], rss: Path, spans: Path | None) -> list[str]:
    """The pipeline CLI, under the traced launcher when ``spans`` is given,
    else under ``peak_rss.py``, which writes its peak RSS to ``rss``."""
    if spans is None:
        return [sys.executable, str(BENCH_DIR / "peak_rss.py"), str(rss), "repro.pipeline", *args]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), "pipeline", str(spans), "--", *args]


def generate(ctx: Ctx, out: Path, count: int, seed: int, native: Path) -> str:
    """A seeded ``repro.gen`` corpus; returns its MANIFEST corpus digest."""
    cmd = [sys.executable, "-m", "repro.gen", "--out", str(out), "--count", str(count)]
    cmd += ["--seed", str(seed), "--workers", str(serve_load.CONNECTIONS)]
    timed = run_timed(cmd, program_env(native), ctx.work / f"gen-{out.name}")
    if timed.rc != 0:
        raise BenchError(f"corpus generation failed: {timed.stderr_tail()}")
    return json.loads((out / "MANIFEST.json").read_text())["corpus_digest"]


def training_corpus(ctx: Ctx, count: int, native: Path) -> tuple[Path, str]:
    """The fixed training corpus (``TRAIN_SEED``), generated once per
    program version and kept under ``.bench_work/inputs``; returns its path
    and MANIFEST corpus digest."""
    stem = f"gen-{count}-seed{TRAIN_SEED}-"
    out = WORK / "inputs" / (stem + source_digest()[:16])
    if not (out / ".complete").exists():
        for stale in out.parent.glob(stem + "*"):
            shutil.rmtree(stale, ignore_errors=True)
        generate(ctx, out, count, TRAIN_SEED, native)
        (out / ".complete").write_text("")
    return out, json.loads((out / "MANIFEST.json").read_text())["corpus_digest"]


def stable_sections(out_dir: Path) -> str | None:
    try:
        doc = json.loads((out_dir / "metrics.json").read_text())
    except (OSError, ValueError):
        return None
    return json.dumps({k: doc.get(k) for k in STABLE_SECTIONS}, sort_keys=True)


class PipelineRunner:
    """Runs pipeline CLI processes and checks each against the workload's
    reference run (the first one it runs)."""

    def __init__(self, ctx: Ctx, outcome: Outcome):
        self.ctx = ctx
        self.outcome = outcome
        self.reference: str | None = None
        self.reference_doc: dict | None = None
        self.count = 0

    def run(self, args: list[str], out: Path, native: Path, spans: Path | None = None):
        self.count += 1
        tag = f"pipeline-{self.count}"
        (out / "metrics.json").unlink(missing_ok=True)
        rss = self.ctx.work / f"{tag}.rss"
        timed = run_timed(
            pipeline_cmd([*args, "--out", str(out)], rss, spans),
            program_env(native),
            self.ctx.work / tag,
        )
        if rss.exists():
            timed.rss_mb = float(rss.read_text())
        sections = stable_sections(out) if timed.rc == 0 else None
        if self.reference is None and sections is not None:
            self.reference = sections
            self.reference_doc = json.loads((out / "metrics.json").read_text())
        self.outcome.check(
            sections is not None and sections == self.reference,
            f"{tag}: rc={timed.rc} "
            + ("metrics differ from the reference run" if sections else timed.stderr_tail(200)),
        )
        return timed

    def metrics(self) -> dict:
        if self.reference_doc is None:
            raise BenchError("no pipeline run succeeded")
        return self.reference_doc


def quality(doc: dict) -> dict:
    metrics = doc["metrics"]
    return {
        "trace_accuracy": metrics["trace_accuracy"],
        "benign_fpr": metrics["benign_false_positive_rate"],
    }


# -- the serve part, shared by all workloads -----------------------------------


def settle() -> None:
    """Flush earlier runs' writes so a timed run does not compete with
    their write-back."""
    os.sync()


class Serving:
    """The untraced daemon of a run: nominal-rate slices and saturation
    probes, called one at a time so that they can be spread over the run."""

    def __init__(self, ctx: Ctx, traffic: serve_load.Traffic, outcome: Outcome, daemon):
        self.ctx = ctx
        self.traffic = traffic
        self.outcome = outcome
        self.daemon = daemon
        rate = ctx.plan.nominal_rps
        self.slices = max(1, round(ctx.nominal_s * rate / SLICE_REQUESTS))
        self.slice_s = ctx.nominal_s / self.slices
        self.nominal: list[serve_load.Phase] = []
        self.capacity = serve_load.Capacity(ctx.plan.overload_rps, ctx.plan.probes)
        self.sent = 0
        self._run(rate, 0.5, "warmup")
        self.nominal_slice()
        # high-water RSS at the nominal rate: the saturation probes fill the
        # daemon's read buffers by an amount that varies per run
        self.rss_mb = daemon.high_water_rss_mb()
        # a daemon's first overload ran slower than the ones after it
        self._run(self.capacity.rate, PROBE_S, "warmup-probe")

    def _run(self, rate: float, seconds: float, tag: str) -> serve_load.Phase:
        phase = serve_load.run_phase(
            self.daemon.port, self.traffic, rate, seconds, tag, offset=self.sent
        )
        self.sent += phase.attempted
        self.outcome.add_phase(phase)
        return phase

    def nominal_slice(self) -> None:
        tag = f"nominal{len(self.nominal)}"
        self.nominal.append(self._run(self.ctx.plan.nominal_rps, self.slice_s, tag))

    def probe(self) -> None:
        if not self.capacity.done:
            tag = f"probe{len(self.capacity.probes)}"
            self.capacity.record(self._run(self.capacity.rate, PROBE_S, tag))

    def finish(self, result: Result) -> None:
        try:
            counters = self.daemon.metricsz()["counters"]
        finally:
            rc, summary = self.daemon.stop()
        self.outcome.check(rc == 0 and bool(summary), f"daemon exit rc={rc}, summary={summary}")
        capacity = self.capacity
        kept_up = f"; it kept up with {capacity.rate / 2:g} req/s" if capacity.capped else ""
        self.outcome.check(
            capacity.complete,
            f"serve_max_rps: {len(capacity.saturated)} of {capacity.wanted} saturation probes "
            f"counted{kept_up}",
        )
        nominal = serve_load.pooled_summary(self.nominal)
        result.e2e.update(serve_p50_ms=nominal["p50_ms"], serve_max_rps=self.capacity.max_rps())
        # the tail is reported without a bound: stalls of the shared host
        # lasting tens of seconds move it by half its median between runs
        result.layers["serve_p99_ms"] = nominal["p99_ms"]
        result.details["serve"] = {
            "nominal": nominal,
            "slices": [
                {key: value for key, value in phase.summary().items() if key != "failures"}
                for phase in self.nominal
            ],
            "probes": [phase.summary() for phase in self.capacity.probes],
            "capped": self.capacity.capped,
            "daemon_rss_mb": self.rss_mb,
            "counters": counters,
            "connections": serve_load.CONNECTIONS,
        }


def start_daemon(ctx: Ctx, native: Path, spans: Path | None = None):
    """A daemon over the workload's artifact; returns it and its seconds
    from spawn to ready."""
    daemon = serve_load.Daemon(ctx.work / "art", program_env(native), spans)
    settle()
    return daemon, daemon.start()


def spread_out(*groups: list) -> list:
    """The calls of all ``groups`` in one sequence, each group spread evenly
    over it, so that every kind of repeated measurement samples the whole
    run rather than one stretch of it."""
    keyed = [
        ((i + 0.5) / len(group), k, call)
        for k, group in enumerate(groups)
        for i, call in enumerate(group)
    ]
    return [call for *_, call in sorted(keyed, key=lambda item: item[:2])]


def serve_interleaved(
    ctx: Ctx,
    traffic: serve_load.Traffic,
    outcome: Outcome,
    daemon: serve_load.Daemon,
    jobs: list,
    result: Result,
) -> None:
    """Serve ``daemon`` (nominal slices and saturation probes) spread out
    with the calls in ``jobs`` (timed pipeline runs, set-up repetitions).
    The daemon is stopped whatever happens."""
    try:
        serving = Serving(ctx, traffic, outcome, daemon)
        slices = [serving.nominal_slice] * (serving.slices - 1)
        for call in spread_out(jobs, slices, [serving.probe] * ctx.plan.probes):
            call()
        # probes that did not count (an offered rate the daemon kept up
        # with, a failed request) are made up at the end
        while not serving.capacity.done:
            serving.probe()
    except BaseException:
        daemon.stop()
        raise
    serving.finish(result)


def traced_serve(
    ctx: Ctx, traffic: serve_load.Traffic, native: Path, outcome: Outcome, result: Result
) -> None:
    """One daemon under the traced launcher, at the nominal rate only."""
    spans_path = ctx.work / "serve-spans.json"
    daemon, _ = start_daemon(ctx, native, spans_path)
    rate = ctx.plan.nominal_rps
    try:
        outcome.add_phase(serve_load.run_phase(daemon.port, traffic, rate, 0.5, "warmup"))
        nominal = serve_load.run_phase(daemon.port, traffic, rate, ctx.nominal_s, "nominal")
        outcome.add_phase(nominal)
        counters = daemon.metricsz()["counters"]
    finally:
        rc, summary = daemon.stop()
    outcome.check(rc == 0 and bool(summary), f"traced daemon exit rc={rc}")
    spans = json.loads(spans_path.read_text())["spans"]
    answered = {
        req_id: ((recv - due) * 1e3, doc["latency_ms"])
        for req_id, due, recv, doc in zip(nominal.ids, nominal.due, nominal.recv, nominal.docs)
        if doc is not None and doc.get("status") == 200
    }
    serve = layers.serve_layers(spans, answered)
    traced = serve_load.pooled_summary([nominal])
    result.layers.update(serve["metrics"])
    result.layers.update(
        {
            "serve.batch_size.mean": counters["ok"] / max(1, counters["batches"]),
            "serve.batches": counters["batches"],
            "serve.shed": counters["shed"],
            "serve.expired": counters["expired"],
            "artifact.load.self_s": serve["artifact.load.self_s"],
            "trace.serve_overhead_ms": traced["p50_ms"] - result.e2e["serve_p50_ms"],
            "loadgen.lateness.p50_ms": traced["lateness_p50_ms"],
            "loadgen.lateness.p99_ms": traced["lateness_p99_ms"],
        }
    )
    result.details["serve_trace"] = {
        "requests": serve["requests"],
        "component_gap_ms": serve["component_gap_ms"],
        "min_ms": serve["min_ms"],
        "nominal": traced,
    }


def traced_pipeline(
    ctx: Ctx, runner: PipelineRunner, args: list[str], native: Path, result: Result
) -> None:
    """One pipeline run under the traced launcher, run like the untraced ones."""
    spans_path = ctx.work / "pipeline-spans.json"
    settle()
    timed = runner.run(args, ctx.work / "traced", native, spans_path)
    spans = json.loads(spans_path.read_text())["spans"]
    doc = runner.metrics()
    traced = layers.pipeline_layers(spans, timed.wall_s, doc["dataset"]["samples"])
    updates = sum(sum(member) for member in doc["training"]["updates_per_epoch"])
    runner.outcome.check(
        traced["train.updates_traced"] == updates,
        f"traced epoch updates {traced['train.updates_traced']} != metrics.json {updates}",
    )
    for name in layers.PIPELINE_SPANS:
        result.layers[f"{name}.self_s"] = traced["self_s"][name]
        result.layers[f"{name}.calls"] = traced["calls"][name]
    for name in ("ingest.decode.salvage_share", "cache.get.hit_ratio", "train.rows_visited",
                 "eval.rows_scored_ratio"):  # fmt: skip
        result.layers[name] = traced[name]
    result.layers["train.updates"] = updates
    result.layers["trace.overhead_s"] = timed.wall_s - result.e2e["pipeline_s"]
    result.details["pipeline_trace"] = {
        "wall_s": timed.wall_s,
        "span_sum_s": traced["span_sum_s"],
        "min_self_s": min(traced["self_s"].values()),
    }


def gen_traffic(ctx: Ctx, native: Path, result: Result) -> serve_load.Traffic:
    """Held-out generated traces (a corpus seed the model never saw),
    answered in-process against the published artifact."""
    out = ctx.work / "traffic"
    result.inputs["traffic_corpus_digest"] = generate(
        ctx, out, ctx.sizes["traffic"], TRAFFIC_SEED_OFFSET + ctx.seed, native
    )
    blobs = [p.read_bytes() for p in sorted(out.rglob("*.pkl"))]
    return serve_load.reference_traffic(ctx.work / "art", blobs, native, ctx.flip)


def native_setup(ctx: Ctx, native: Path) -> float:
    """Compile the program's native kernel into ``native``; returns the
    wall time of the process that did it."""
    code = "from repro.model import _native; raise SystemExit(0 if _native.available() else 1)"
    settle()
    timed = run_timed([sys.executable, "-c", code], program_env(native), ctx.work / native.name)
    if timed.rc != 0:
        raise BenchError("the native kernel did not build")
    return timed.wall_s


def record_pipeline(result: Result, runner: PipelineRunner, runs: list, setups: list) -> None:
    walls = [t.wall_s for t in runs]
    rss = [t.rss_mb for t in runs if t.rss_mb is not None]
    if not rss:
        raise BenchError("no pipeline process reported its peak RSS")
    result.e2e.update(
        pipeline_s=median(walls),
        peak_rss_mb=median(rss),
        setup_s=median(setups),
        **quality(runner.metrics()),
    )
    result.details["pipeline"] = {
        "walls_s": walls,
        "steal": [t.steal for t in runs],
        "rss_mb": [t.rss_mb for t in runs],
        "setup_walls_s": setups,
    }


# -- workloads --------------------------------------------------------------------


def pipeline_warm(ctx: Ctx, outcome: Outcome) -> Result:
    """Set-up: a cold ``save-artifact`` run that fills the decode cache and
    the dataset cache, builds the native kernel and publishes the served
    model.  Timed: fresh pipeline processes on the filled caches."""
    result = Result()
    native = ctx.work / "native"
    corpus, result.inputs["corpus_digest"] = training_corpus(
        ctx, ctx.sizes["warm_traces"], native
    )
    runner = PipelineRunner(ctx, outcome)
    setups = []

    def fill(prefix: str = "") -> None:
        """One set-up: the caches, artifact store and native build named
        ``<prefix>fc`` and so on, emptied and filled again."""
        dirs = [ctx.work / f"{prefix}{name}" for name in ("fc", "dc", "art", "native")]
        for stale in dirs:
            shutil.rmtree(stale, ignore_errors=True)
        fc, dc, art, build = dirs
        settle()
        args = ["save-artifact", "--trace-dir", str(corpus), "--cache-dir", str(fc),
                "--dataset-cache-dir", str(dc), "--artifact-root", str(art)]  # fmt: skip
        setups.append(runner.run(args, ctx.work / f"{prefix}setup", build).wall_s)
        # its writes must not compete with the serve step that follows
        settle()

    # the first set-up fills what the timed runs and the daemon use; the
    # others fill spare copies between the serve steps
    fill()
    traffic = gen_traffic(ctx, native, result)
    caches = ["--cache-dir", str(ctx.work / "fc"), "--dataset-cache-dir", str(ctx.work / "dc")]
    warm_args = ["--trace-dir", str(corpus), *caches]

    runs = []

    def once():
        settle()
        runs.append(runner.run(warm_args, ctx.work / "warm", native))

    daemon = start_daemon(ctx, native)[0]
    spare = [lambda: fill("spare-")] * (ctx.plan.setups - 1)
    jobs = spread_out([once] * ctx.plan.pipeline_runs, spare)
    serve_interleaved(ctx, traffic, outcome, daemon, jobs, result)
    record_pipeline(result, runner, runs, setups)
    if ctx.trace:
        traced_pipeline(ctx, runner, warm_args, native, result)
        traced_serve(ctx, traffic, native, outcome, result)
    return result


def cold_subset(every: int) -> list[Path]:
    """The fixed subset of the committed captures ``pipeline_cold`` runs on:
    the first two captures, in name order, of every ``every``-th family.
    Two per family put one capture of each family in the held-out split."""
    families: dict[str, list[Path]] = {}
    for path in sorted(TRACE_CACHE.glob("*.pkl")):
        families.setdefault(path.name.rsplit("_", 1)[0], []).append(path)
    return [path for name in sorted(families)[::every] for path in families[name][:2]]


def pipeline_cold(ctx: Ctx, outcome: Outcome) -> Result:
    """Set-up: building the native kernel (the caches start empty on every
    timed run).  Timed: fresh pipeline processes with empty decode and
    dataset caches over a fixed subset of the committed captures."""
    from repro.cache import FeatureCache
    from repro.sim.trace import encode_trace

    result = Result()
    corpus = ctx.work / "corpus"
    corpus.mkdir(parents=True)
    files = cold_subset(ctx.sizes["cold_families"])
    for path in files:
        shutil.copyfile(path, corpus / path.name)
    result.inputs["trace_cache_sha256"] = files_digest(files)
    result.inputs["trace_cache_files"] = len(files)
    native = ctx.work / "native"
    setups = [native_setup(ctx, native)]

    def rebuild():
        spare = ctx.work / "native-spare"
        shutil.rmtree(spare, ignore_errors=True)
        setups.append(native_setup(ctx, spare))

    runner = PipelineRunner(ctx, outcome)
    caches = ["--cache-dir", str(ctx.work / "fc"), "--dataset-cache-dir", str(ctx.work / "dc")]
    cold_args = ["--trace-dir", str(corpus), *caches]

    runs = []

    def once():
        for stale in ("fc", "dc"):
            shutil.rmtree(ctx.work / stale, ignore_errors=True)
        settle()
        runs.append(runner.run(cold_args, ctx.work / "cold", native))

    once()
    # publish from the first run's caches; serve clean re-encodings of the
    # decoded captures, in an order drawn from the seed
    runner.run(["save-artifact", *cold_args, "--artifact-root", str(ctx.work / "art")],
               ctx.work / "publish", native)  # fmt: skip
    cache = FeatureCache(ctx.work / "fc")
    blobs = []
    for path in files:
        cached = cache.get(cache.key(path.read_bytes()), path=str(path))
        if cached is None:
            raise BenchError(f"{path.name} is missing from the decode cache")
        blobs.append(encode_trace(cached[0]))
    random.Random(ctx.seed).shuffle(blobs)
    traffic = serve_load.reference_traffic(ctx.work / "art", blobs, native, ctx.flip)
    daemon = start_daemon(ctx, native)[0]
    jobs = spread_out([once] * (ctx.plan.pipeline_runs - 1), [rebuild] * (ctx.plan.setups - 1))
    serve_interleaved(ctx, traffic, outcome, daemon, jobs, result)
    record_pipeline(result, runner, runs, setups)
    if ctx.trace:
        for stale in ("fc", "dc"):
            shutil.rmtree(ctx.work / stale, ignore_errors=True)
        traced_pipeline(ctx, runner, cold_args, native, result)
        traced_serve(ctx, traffic, native, outcome, result)
    return result


def serve_open_loop(ctx: Ctx, outcome: Outcome) -> Result:
    """Inputs: a generated corpus, published as the served model by one
    ``save-artifact`` run.  Set-up: daemon spawn to ``/readyz``.  Timed: the
    nominal phase and the saturation probes, interleaved with fresh pipeline
    processes on the same corpus (no caches), which give this workload's
    pipeline metrics."""
    result = Result()
    native = ctx.work / "native"
    corpus, result.inputs["corpus_digest"] = training_corpus(
        ctx, ctx.sizes["serve_traces"], native
    )
    native_setup(ctx, native)
    runner = PipelineRunner(ctx, outcome)
    runner.run(["save-artifact", "--trace-dir", str(corpus), "--artifact-root",
                str(ctx.work / "art")], ctx.work / "publish", native)  # fmt: skip
    traffic = gen_traffic(ctx, native, result)
    daemon, seconds = start_daemon(ctx, native)
    setups = [seconds]

    def spare_daemon():
        # a second daemon over the same artifact, while the served one idles
        spare, seconds = start_daemon(ctx, native)
        setups.append(seconds)
        rc, summary = spare.stop()
        outcome.check(rc == 0 and bool(summary), f"set-up daemon exit rc={rc}")

    pipeline_args = ["--trace-dir", str(corpus)]
    runs = []

    def once():
        settle()
        runs.append(runner.run(pipeline_args, ctx.work / "pipeline", native))

    jobs = spread_out([once] * ctx.plan.pipeline_runs, [spare_daemon] * (ctx.plan.setups - 1))
    serve_interleaved(ctx, traffic, outcome, daemon, jobs, result)
    record_pipeline(result, runner, runs, setups)
    # the daemon's, not the pipeline processes' that give this workload's
    # other pipeline metrics
    result.e2e["peak_rss_mb"] = result.details["serve"]["daemon_rss_mb"]
    if ctx.trace:
        traced_pipeline(ctx, runner, pipeline_args, native, result)
        traced_serve(ctx, traffic, native, outcome, result)
    return result


WORKLOADS = {
    "pipeline_warm": pipeline_warm,
    "pipeline_cold": pipeline_cold,
    "serve_open_loop": serve_open_loop,
}
