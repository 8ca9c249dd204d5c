"""Shared helpers for the benchmark: paths, child processes, statistics,
provenance and result documents."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import threading
import time
from pathlib import Path

#: the checkout the benchmark runs from: every read and write stays under it
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CACHE = ROOT / ".trace_cache"
WORK = ROOT / ".bench_work"
BENCH_DIR = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    """The benchmark cannot run at all (missing program, broken set-up)."""


def require_program() -> None:
    """Fail fast when the checkout does not hold the program and its corpus."""
    missing = [p for p in (SRC / "repro", TRACE_CACHE) if not p.is_dir()]
    if missing:
        raise BenchError(
            "program sources not found: " + ", ".join(str(p.relative_to(ROOT)) for p in missing)
        )


def program_env(native_dir: Path) -> dict[str, str]:
    """Environment for a program process: sources on the path, the native
    kernel built into (and loaded from) ``native_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_DIR"] = str(native_dir)
    return env


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) CPU time of the host since boot, from ``/proc/stat``."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(start: tuple[int, int] | None) -> float | None:
    """Share of CPU time the hypervisor took from this machine since ``start``
    (a :func:`cpu_jiffies` reading): high values explain slow runs."""
    end = cpu_jiffies()
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


class Timed:
    """One finished child process: wall time, exit code, and the share of
    the machine's CPU time the hypervisor took meanwhile.  ``rss_mb`` is the
    child's own peak RSS, when it reported one (``peak_rss.py``)."""

    def __init__(self, wall_s: float, rc: int, steal: float | None, err: Path):
        self.wall_s = wall_s
        self.rc = rc
        self.steal = steal
        self.err = err
        self.rss_mb: float | None = None

    def stderr_tail(self, n: int = 400) -> str:
        return self.err.read_text(errors="replace")[-n:]


def run_timed(cmd: list[str], env: dict, log_stem: Path, timeout_s: float = 170.0) -> Timed:
    """Run ``cmd`` to completion; wall time from spawn to reap, standard
    error kept in a file."""
    err = log_stem.with_suffix(".err")
    jiffies = cpu_jiffies()
    with open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=fe)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    return Timed(wall, rc, steal_share(jiffies), err)


def stop_process(proc: subprocess.Popen, timeout_s: float = 30.0) -> int:
    """SIGTERM, wait, SIGKILL as a last resort; returns the exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a non-empty list."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# -- provenance -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over every program source file (relative path + bytes), so a
    result names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def files_digest(paths) -> str:
    """sha256 over file names and bytes, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, native_available: bool, inputs: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_available": native_available,
        "commit": _commit(),
        "source_sha256": source_digest(),
        "inputs": inputs,
    }


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
