"""bench_e2e - the layered end-to-end benchmark.

Eight named workloads, each driven through the system's public doors only,
reporting end-to-end metrics (tracing off) and per-layer metrics (a separate
traced run).  ``python -m bench_e2e run --seed 0`` runs everything; the
driver form is ``python3 -m bench_e2e run --workload NAME --seed N
--seconds S --trace 0|1``.  See README.md in this directory.
"""

import os
import sys

#: The checkout root (the directory holding ``bench_e2e/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Everything the benchmark writes (traces, results, temp stores) goes here.
OUT_DIR = os.path.join(ROOT, "bench_e2e", "out")


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout's own ``src/``."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
