"""Untraced launcher: runs a program module the way ``python -m`` does and,
as the process exits, writes its own peak resident set size in MB.

    python3 perfbench/peak_rss.py OUT repro.pipeline <args>

The peak is ``VmHWM`` from ``/proc/self/status``.  The rusage a parent reads
with ``wait4`` cannot be used: Linux carries the peak of the spawning
process into the child's ``ru_maxrss`` at ``exec``, so every child of a
benchmark process that has grown to 110 MB would read at least 110 MB.
"""

from __future__ import annotations

import atexit
import os
import runpy
import sys
from pathlib import Path


def record_peak(out: str) -> None:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            Path(out).write_text(str(int(line.split()[1]) / 1024.0))
            return


def main(argv: list[str]) -> None:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    out, module, args = argv[0], argv[1], argv[2:]
    atexit.register(record_peak, out)
    # what ``python -m`` puts first on the path, in place of this directory
    sys.path[0] = os.getcwd()
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
