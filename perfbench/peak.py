"""Peak memory of one pass of a workload, in a fresh process.

    python3 perfbench/peak.py PASS.json

PASS.json lists the pass's requests (`argv`, and the `restore` file pair a
request copies first, or null).  The script imports kostka, runs the
requests once through ``kostka.cli.main`` exactly as a timed pass does, and
prints how far the pass raised the process's peak resident set, in KiB.
A fresh process starts with no memo, no cached polynomials and a resident
set that the harness's earlier passes have not already grown.

The peak is the kernel's VmHWM for this process.  getrusage's ru_maxrss
would not do: across fork and exec it keeps the parent's high-water mark,
which is already above anything one pass adds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def peak_rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(path: str) -> int:
    spec = json.loads(Path(path).read_text())
    kostka = run.import_kostka()
    plan = workloads.Plan([
        workloads.Request(r["argv"], lambda o: None,
                          restore=tuple(map(Path, r["restore"])) if r["restore"] else None)
        for r in spec["requests"]])
    before = peak_rss_kib()
    workloads.run_pass(kostka, plan)
    print(json.dumps({"peak_growth_kib": peak_rss_kib() - before}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
