"""``python -m bench_e2e compare A.json B.json``: B against A, by A's bounds.

A and B are results files written by ``python -m bench_e2e run``; either may
be a comma-separated list of files (a *set* of runs of one commit), in which
case each metric's median over the set is compared - one run on a shared box
can sit in a slow minute, the median of several does not.  For every
(workload, end-to-end metric) the ratio B/A is printed with its base and
checked against the bound stored in A's manifest; the count metrics must be
exactly equal in every file.  Exit code 1 on any breach - the tool the A/A
criterion and every later PR uses.
"""

from __future__ import annotations

import json
import statistics

#: Counts that repeat exactly for a seed: compared for equality, no bound.
EXACT = ("core.samples_per_op", "core.rounds_per_op", "core.misordered_share", "failed_share")


def worse_by(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: it is better)."""
    delta = new - base if better == "lower" else base - new
    return delta / base


def compare(a: list[dict], b: list[dict]) -> tuple[list[str], list[str]]:
    """Set ``b`` against set ``a``; returns (report lines, breaches)."""
    lines, breaches = [], []
    first = a[0]
    for run in a + b:
        if (run["seed"], run["seconds"]) != (first["seed"], first["seconds"]):
            breaches.append(
                f"runs differ in seed/seconds: {first['seed']}/{first['seconds']} "
                f"vs {run['seed']}/{run['seconds']}"
            )
    bounds = {m["name"]: m for m in first["manifest"]["end_to_end"]}
    for workload, reference in first["workloads"].items():
        missing = [r for r in a + b if workload not in r["workloads"]]
        if missing:
            breaches.append(f"{workload}: missing from {len(missing)} run(s)")
            continue
        runs_a = [r["workloads"][workload] for r in a]
        runs_b = [r["workloads"][workload] for r in b]
        for name, meta in bounds.items():
            base = statistics.median(w["end_to_end"][name] for w in runs_a)
            new = statistics.median(w["end_to_end"][name] for w in runs_b)
            worse = worse_by(base, new, meta["better"])
            verdict = "ok"
            if worse > meta["bound"]:
                verdict = "BREACH"
                breaches.append(
                    f"{workload} {name}: {new:.6g} vs base {base:.6g} "
                    f"({worse:+.1%} worse, bound {meta['bound']:.0%})"
                )
            lines.append(
                f"{workload:<22} {name:<16} {new / base:>7.3f}x of base {base:>12.6g} "
                f"{meta['unit']:<4} bound {meta['bound']:.2f} {verdict}"
            )
        for other in runs_a[1:] + runs_b:
            for name in EXACT:
                if other["per_layer"][name] != reference["per_layer"][name]:
                    breaches.append(
                        f"{workload} {name}: {other['per_layer'][name]!r} != "
                        f"{reference['per_layer'][name]!r} (must repeat exactly)"
                    )
            for key in ("attempted", "failed", "correct"):
                if other[key] != reference[key]:
                    breaches.append(f"{workload} {key}: {other[key]!r} != {reference[key]!r}")
    return lines, breaches


def _load(paths: str) -> list[dict]:
    runs = []
    for path in paths.split(","):
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def main(paths_a: str, paths_b: str) -> int:
    lines, breaches = compare(_load(paths_a), _load(paths_b))
    print("\n".join(lines))
    for breach in breaches:
        print("BREACH", breach)
    print(f"{len(breaches)} breach(es)")
    return 1 if breaches else 0
