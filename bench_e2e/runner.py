"""The parent side of a run: spawn harness processes, check for leaks, report.

Each workload process is started in its own session (process group), one at
a time.  After it exits, anything still alive in that group, any new
``/dev/shm`` segment and any leftover scratch directory is a leak - cleaned
up, and counted as a failed op.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from bench_e2e import OUT_DIR, ROOT, osutil
from bench_e2e.spec import (
    DELTA, END_TO_END_UNITS, PER_LAYER_UNITS, ROUNDS, RUN_SECONDS, SETUPS, TRACE_ROUNDS,
)

#: Ops per round that make ROUNDS rounds last about RUN_SECONDS on the
#: 2-core box the benchmark was sized on; scaled by ``--seconds``.
OPS_PER_ROUND = {
    "sparse_k8": 5,
    "dense_k19": 11,
    "wide_k1000": 10,
    "sharded_k1000_process": 2,
    "serve_cold": 40,
    "serve_hit": 1500,
    "store_reopen": 12,
    "window_sliding": 104,
}
QUICK_OPS_PER_ROUND = {
    "sparse_k8": 2,
    "dense_k19": 2,
    "wide_k1000": 2,
    "sharded_k1000_process": 1,
    "serve_cold": 8,
    "serve_hit": 40,
    "store_reopen": 2,
    "window_sliding": 8,
}

#: Set-ups beyond SETUPS for a workload whose set-up is so short (under a
#: second) that the median of three moved by a fifth between runs.
EXTRA_SETUPS = {"window_sliding": 2}

#: Hard stop for one harness process, inside the contract's 180 s per run.
CHILD_TIMEOUT_S = 150.0

#: How long exiting helpers (multiprocessing's resource tracker) get to
#: leave the process group before they count as survivors.
GROUP_GRACE_S = 3.0


class BenchmarkError(RuntimeError):
    """A harness process produced no result."""


@dataclass(frozen=True)
class Plan:
    ops: int
    rounds: int
    setups: int
    trace_pairs: int
    scale: int


def plan_for(workload: str, seconds: float, quick: bool) -> Plan:
    if quick:
        return Plan(QUICK_OPS_PER_ROUND[workload], rounds=2, setups=1, trace_pairs=1, scale=10)
    ops = max(2, round(OPS_PER_ROUND[workload] * seconds / RUN_SECONDS))
    return Plan(ops, ROUNDS, SETUPS + EXTRA_SETUPS.get(workload, 0), TRACE_ROUNDS, scale=1)


def _kill_group(pgid: int) -> list[int]:
    """Wait briefly for the group to empty; kill and return what is left."""
    deadline = time.monotonic() + GROUP_GRACE_S
    while (alive := osutil.process_group(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return alive


def run_harness(workload: str, mode: str, seed: int, plan: Plan, serial: int) -> dict:
    """One harness process; returns its result with ``leaks`` added."""
    tmp = os.path.join(OUT_DIR, "tmp", f"{workload}-{os.getpid()}-{serial}")
    shm_before = set(osutil.shm_segments())
    rounds = plan.trace_pairs if mode == "trace" else plan.rounds
    cmd = [
        sys.executable, "-W", "error::DeprecationWarning", "-m", "bench_e2e.harness",
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--ops", str(plan.ops), "--rounds", str(rounds), "--scale", str(plan.scale),
        "--tmp", tmp, "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    leaks = []
    survivors = _kill_group(proc.pid)
    proc.wait()
    if survivors:
        leaks.append(f"{len(survivors)} process(es) outlived the workload")
    for name in sorted(set(osutil.shm_segments()) - shm_before):
        leaks.append(f"shm segment {name} left behind")
        try:
            os.unlink(os.path.join(osutil.SHM_DIR, name))
        except OSError:
            pass
    if os.path.exists(tmp):
        leaks.append(f"scratch directory {tmp} left behind")
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} ({mode}) exited with code {proc.returncode} and no result"
        )
    out = json.loads(lines[-1])
    out["leaks"] = leaks
    return out


def run_workload(workload: str, seed: int, seconds: float, traced: bool, quick: bool = False) -> dict:
    """One ``--trace 0`` or ``--trace 1`` run of one workload.

    Returns the contract's result object (``correct``, ``attempted``,
    ``failed``, ``metrics``) plus ``notes`` for the human reader.
    """
    plan = plan_for(workload, seconds, quick)
    modes = ["trace"] if traced else ["setup"] * (plan.setups - 1) + ["measure"]
    outs = [run_harness(workload, mode, seed, plan, k) for k, mode in enumerate(modes)]
    final = outs[-1]
    leaks = [leak for out in outs for leak in out["leaks"]]
    failed = final["failed"] + len(leaks)
    values = dict(final["metrics"])
    if not traced:
        # median of the fresh-process set-ups, the measuring one included
        values["setup_s"] = statistics.median(o["metrics"]["setup_s"] for o in outs)
    else:
        values["failed_share"] = failed / final["attempted"]
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    return {
        "correct": failed == 0 and final["misordered"] <= DELTA * final["attempted"],
        "attempted": final["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
        "notes": final["notes"] + leaks,
        "ops_per_round": plan.ops,
        "samples_per_op": final["samples_per_op"],
        "misordered": final["misordered"],
    }


def print_metrics(workload: str, result: dict) -> None:
    """Every metric by name, with its unit, one per line."""
    for name, metric in result["metrics"].items():
        print(f"{workload:<22} {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for note in result["notes"]:
        print(f"{workload:<22} note: {note}")
