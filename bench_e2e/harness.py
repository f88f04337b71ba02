"""One workload in one fresh process: set-up, warm-up, rounds, verification.

Run by ``bench_e2e.runner`` as ``python -m bench_e2e.harness``; prints one
JSON object as its last line.  Three modes share the set-up and the warm-up
pass: ``setup`` stops there (it only times the set-up), ``measure`` replays
the timed rounds with tracing off, ``trace`` interleaves untraced and traced
rounds and then runs the workload's layer probes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import warnings

from bench_e2e import OUT_DIR, add_src_to_path, osutil
from bench_e2e.spec import PER_LAYER
from bench_e2e.stats import per_op_best, percentile
from bench_e2e.trace import OFF, Tracer


def measure(wl, rounds: int) -> dict:
    """The timed rounds, tracing off; every answer verified off the clock."""
    from bench_e2e.workloads.base import Verdict

    total = Verdict()
    latencies, walls, cpus = [], [], []
    wl.mark_timed_region()
    for r in range(rounds):
        gc.collect()  # every round starts from the same collector state
        cpu = osutil.cpu_seconds(wl.in_process)
        done = wl.run_round(r, OFF)
        cpus.append(osutil.cpu_seconds(wl.in_process) - cpu)
        latencies.append(done.latencies)
        walls.append(done.wall)
        total.absorb(wl.verify(r, done.answers))
    per_op = per_op_best(latencies)
    attempted = wl.n_ops * rounds
    return {
        "attempted": attempted,
        "failed": total.failed,
        "misordered": total.misordered,
        "samples_per_op": total.samples / attempted,
        "notes": total.notes,
        "metrics": {
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_p90_ms": percentile(per_op, 90) * 1e3,
            # per-round figures come from the best round, as per-op ones
            # come from the best replay (see stats.per_op_best)
            "ops_per_s": wl.n_ops / min(walls),
            "cpu_ms_per_op": min(cpus) / wl.n_ops * 1e3,
        },
    }


def _span_metric(tracer: Tracer, name: str, unit: str) -> float:
    """Per-layer metric ``x.y_ms`` / ``x.y_s`` = ``Tracer.best`` of the spans
    ``x.y``; any other unit = mean of the counts recorded under its name."""
    if unit in ("ms", "s"):
        return tracer.best(name[: -len(unit) - 1]) * (1e3 if unit == "ms" else 1.0)
    values = tracer.values(name)
    return statistics.fmean(values) if values else 0.0


def trace(wl, pairs: int) -> dict:
    """Untraced and traced rounds interleaved, then the layer probes."""
    from bench_e2e.workloads.base import Verdict

    total = Verdict()
    tracer = Tracer()
    untraced, traced = [], []
    wl.mark_timed_region()
    for pair in range(pairs):
        # distinct round indexes: a workload whose seeds are fresh per round
        # must not replay the untraced round's requests in the traced one;
        # the order alternates so that a drifting box favours neither side
        order = ((untraced, OFF), (traced, tracer))
        for k, (sink, which) in enumerate(order if pair % 2 == 0 else order[::-1]):
            gc.collect()
            done = wl.run_round(2 * pair + k, which)
            sink.append(done.latencies)
            total.absorb(wl.verify(2 * pair + k, done.answers))
    attempted = wl.n_ops * pairs * 2
    extra = wl.probe(tracer, total)
    values = {
        name: extra[name] if name in extra else _span_metric(tracer, name, unit)
        for name, unit, _ in PER_LAYER
    }
    if values["core.run_algorithm_ms"]:
        values["session.overhead_ms"] = (
            values["session.execute_spec_ms"]
            - values["catalog.engine_build_ms"]
            - values["core.run_algorithm_ms"]
        )
    untraced_p50 = statistics.median(per_op_best(untraced)) * 1e3
    traced_p50 = statistics.median(per_op_best(traced)) * 1e3
    samples_per_op = total.samples / attempted
    values.update({
        "core.samples_per_op": samples_per_op,
        "core.samples_share_of_rows": samples_per_op / wl.rows_per_op,
        "core.misordered_share": total.misordered / attempted,
        "failed_share": total.failed / attempted,
        "untraced_op_p50_ms": untraced_p50,
        "traced_op_p50_ms": traced_p50,
        "trace_overhead_share": traced_p50 / untraced_p50 - 1.0,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(
        os.path.join(OUT_DIR, f"trace-{wl.name}.json"),
        workload=wl.name, seed=wl.seed, ops_per_round=wl.n_ops,
    )
    return {
        "attempted": attempted,
        "failed": total.failed,
        "misordered": total.misordered,
        "samples_per_op": samples_per_op,
        "notes": total.notes,
        "metrics": values,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="bench_e2e.harness")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    args = parser.parse_args(argv)

    warnings.simplefilter("error", DeprecationWarning)
    add_src_to_path()
    from bench_e2e.workloads import WORKLOADS
    from bench_e2e.workloads.base import WARMUP

    os.makedirs(args.tmp)
    wl = WORKLOADS[args.workload](args.seed, args.ops, args.scale, args.tmp)
    try:
        wl.setup()
        wl.run_round(WARMUP, OFF)
        setup_s = time.monotonic() - args.t0  # process start -> first timed op
        if args.mode == "setup":
            out = {"metrics": {}}
        elif args.mode == "measure":
            out = measure(wl, args.rounds)
        else:
            out = trace(wl, args.rounds)
    finally:
        wl.teardown()
        shutil.rmtree(args.tmp, ignore_errors=True)
    if getattr(wl, "exit_code", 0) != 0:
        out["failed"] = out.get("failed", 0) + 1
        out.setdefault("notes", []).append(f"server exited with code {wl.exit_code}")
    if args.mode != "trace":
        out["metrics"]["setup_s"] = setup_s
        # after teardown, so a server child is reaped and counted
        out["metrics"]["peak_rss_mb"] = osutil.peak_rss_mb()
    sys.stdout.flush()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
