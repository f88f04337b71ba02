"""``python -m bench_e2e run | compare | selftest``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import warnings

from bench_e2e import OUT_DIR, ROOT, compare, runner, selftest, spec
from bench_e2e.stats import highest_supported_percentile


def environment(seed: int) -> dict:
    """Where the numbers were taken (stored in the results file)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "load_average_at_start": os.getloadavg()[0],
        "seed": seed,
        "git_commit": commit,
    }


def run_one(args) -> int:
    """Driver form: one workload, one mode, result object on the last line."""
    result = runner.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    runner.print_metrics(args.workload, result)
    sys.stdout.flush()
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced; table, results file, manifest."""
    env = environment(args.seed)
    workloads = {}
    for name in spec.WORKLOAD_NAMES:
        untraced = runner.run_workload(name, args.seed, args.seconds, False, args.quick)
        traced = runner.run_workload(name, args.seed, args.seconds, True, args.quick)
        runner.print_metrics(name, untraced)
        runner.print_metrics(name, traced)
        supported = highest_supported_percentile(untraced["ops_per_round"])
        workloads[name] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "ops_per_round": untraced["ops_per_round"],
            "highest_supported_percentile": supported,
            "samples_per_op": untraced["samples_per_op"],
            "misordered_share": untraced["misordered"] / untraced["attempted"],
            "end_to_end": {k: m["value"] for k, m in untraced["metrics"].items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "notes": untraced["notes"] + traced["notes"],
        }
    print()
    print(f"{'workload':<22} {'N':>5} {'p50 ms':>9} {'p90 ms':>9} {'ops/s':>9} "
          f"{'cpu ms/op':>10} {'samples/op':>11} {'of rows':>8} {'setup s':>8} ok")
    for name, w in workloads.items():
        e, p = w["end_to_end"], w["per_layer"]
        # p90 has ten ops beyond it only where N >= 100; elsewhere it is
        # the slowest op or two and is marked
        mark = " " if w["highest_supported_percentile"] else "*"
        print(f"{name:<22} {w['ops_per_round']:>5} {e['op_p50_ms']:>9.3f} "
              f"{e['op_p90_ms']:>8.3f}{mark} {e['ops_per_s']:>9.2f} "
              f"{e['cpu_ms_per_op']:>10.3f} {w['samples_per_op']:>11.0f} "
              f"{p['core.samples_share_of_rows']:>8.4f} {e['setup_s']:>8.2f} "
              f"{'yes' if w['correct'] else 'NO'}")
    base = workloads["wide_k1000"]["end_to_end"]["op_p50_ms"]
    sharded = workloads["sharded_k1000_process"]["end_to_end"]["op_p50_ms"]
    print(f"\nsharded_k1000_process op_p50_ms is {sharded / base:.2f}x of "
          f"wide_k1000's {base:.3f} ms (same table, seeds, answers)")
    results = {
        "environment": env,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "manifest": spec.manifest(),
        "workloads": workloads,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "quick" if args.quick else f"seed{args.seed}"
    path = args.output or os.path.join(OUT_DIR, f"results-{suffix}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"wrote {os.path.relpath(path)}")
    if not args.quick:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        print("wrote BENCHMARK.json")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


def main(argv: list[str] | None = None) -> int:
    warnings.simplefilter("error", DeprecationWarning)
    parser = argparse.ArgumentParser(prog="bench_e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                     help="one workload, result object on the last line (driver form)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--quick", action="store_true",
                     help="tiny N, 2 rounds, small tables; never writes BENCHMARK.json")
    run.add_argument("--output", help="results file (full run only)")
    cmp_ = sub.add_parser("compare", help="B against A, by A's bounds")
    cmp_.add_argument("a", help="results file, or a comma-separated set of them")
    cmp_.add_argument("b", help="the same, for the side being judged")
    sub.add_parser("selftest", help="check the benchmark's own arithmetic")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.main(args.a, args.b)
    if args.command == "selftest":
        return selftest.main()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench_e2e: no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    try:
        return run_one(args) if args.workload else run_all(args)
    except runner.BenchmarkError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
