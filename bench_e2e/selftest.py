"""``python -m bench_e2e selftest``: the benchmark's own arithmetic.

Covers the per-op latency statistic, the percentile rule, ``compare``, the
trace self-time arithmetic and the manifest contract - without importing
``repro`` or running a workload, so a CI leg can call it anywhere.
"""

from __future__ import annotations

import copy
import json
import os
import re

from bench_e2e import ROOT, spec
from bench_e2e.compare import compare, worse_by
from bench_e2e.stats import highest_supported_percentile, per_op_best, percentile
from bench_e2e.trace import Tracer, self_times


def check_per_op_best() -> None:
    # a slow replay of any op, in any round, drops out
    rounds = [[1.0, 9.0, 3.0], [1.1, 2.0, 3.1], [7.0, 2.1, 2.9]]
    assert per_op_best(rounds) == [1.0, 2.0, 2.9]
    try:
        per_op_best([[1.0], [1.0, 2.0]])
    except ValueError:
        pass
    else:
        raise AssertionError("ragged rounds accepted")


def check_percentiles() -> None:
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile([5.0, 1.0], 90) == 5.0  # nearest rank: a measured value
    assert percentile([3.0], 50) == 3.0
    # at least ten samples beyond the reported percentile
    assert highest_supported_percentile(12) is None
    assert highest_supported_percentile(99) is None
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(1000) == 99.0


def check_trace() -> None:
    spans = [
        {"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "build", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "run", "parent": 0, "start": 4.0, "end": 9.0},
        {"id": 3, "name": "draw", "parent": 2, "start": 5.0, "end": 7.0},
        {"id": 4, "name": "open", "parent": None, "start": 0.0, "end": None},
    ]
    assert self_times(spans) == {0: 2.0, 1: 3.0, 2: 3.0, 3: 2.0}
    tracer = Tracer()
    with tracer.span("outer", op=7):
        with tracer.span("inner", op=7):
            pass
        tracer.count("rows", 3, op=7)
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert tracer.values("rows") == [3]
    assert tracer.best("inner") == inner["end"] - inner["start"] and tracer.best("none") == 0.0
    own = self_times(tracer.spans)
    assert abs(own[outer["id"]] + own[inner["id"]] - (outer["end"] - outer["start"])) < 1e-9
    off = Tracer(enabled=False)
    with off.span("nothing"):
        off.count("rows", 1)
    assert off.spans == [] and off.counts == []


def _results(p50: float, samples: float) -> dict:
    workload = {
        "correct": True, "attempted": 10, "failed": 0,
        "end_to_end": {name: 100.0 for name, *_ in spec.END_TO_END},
        "per_layer": {name: 0.0 for name, *_ in spec.PER_LAYER},
    }
    workload["end_to_end"]["op_p50_ms"] = p50  # its bound is pinned below
    workload["per_layer"]["core.samples_per_op"] = samples
    manifest = copy.deepcopy(spec.manifest())
    for metric in manifest["end_to_end"]:
        metric["bound"] = 0.10  # the checks below are about the rule, not spec.py's values
    return {"seed": 0, "seconds": 6.0, "manifest": manifest, "workloads": {"w": workload}}


def check_compare() -> None:
    assert worse_by(100.0, 110.0, "lower") == 0.10
    assert worse_by(100.0, 90.0, "higher") == 0.10
    assert worse_by(100.0, 90.0, "lower") == -0.10
    base = [_results(100.0, 5000.0)]
    assert compare(base, copy.deepcopy(base))[1] == []
    assert compare(base, [_results(109.0, 5000.0)])[1] == []  # inside the 0.10 bound
    assert len(compare(base, [_results(111.0, 5000.0)])[1]) == 1  # outside it
    assert compare(base, [_results(50.0, 5000.0)])[1] == []  # better is never a breach
    assert len(compare(base, [_results(100.0, 5001.0)])[1]) == 1  # counts are exact
    slower = _results(100.0, 5000.0)
    slower["workloads"]["w"]["end_to_end"]["ops_per_s"] = 85.0  # higher is better
    assert len(compare(base, [slower])[1]) == 1
    # sets of runs compare by their medians: one slow run of three is absorbed
    trio = [_results(p50, 5000.0) for p50 in (101.0, 140.0, 99.0)]
    assert compare(base, trio)[1] == []
    assert len(compare(base, [_results(p50, 5000.0) for p50 in (140.0, 140.0, 99.0)])[1]) == 1


def check_manifest() -> None:
    """The contract's limits, and BENCHMARK.json in step with the code."""
    manifest = spec.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in manifest[key]]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert 1 <= len(manifest["end_to_end"]) <= 16 and 1 <= len(manifest["per_layer"]) <= 128
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert unit_re.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert len(json.dumps(manifest)) < 64 * 1024
    path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as fh:
            assert json.load(fh) == manifest, "BENCHMARK.json is out of step with spec.py"


def main() -> int:
    checks = (check_per_op_best, check_percentiles, check_trace, check_compare, check_manifest)
    for check in checks:
        check()
        print(f"ok {check.__name__}")
    print(f"selftest: {len(checks)} checks passed")
    return 0
