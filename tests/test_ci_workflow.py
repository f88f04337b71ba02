"""Validity and invariants of the hosted CI workflow.

Acceptance bar for the CI gate: ``.github/workflows/ci.yml`` yaml-parses,
covers the 3.10/3.11/3.12 matrix with pip caching, and every run step
invokes only the repo's own CI scripts (``scripts/ci.sh``, the bench smoke,
the regression guard) plus environment setup - so a green local
``scripts/ci.sh`` run means a green hosted run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml", reason="PyYAML validates the workflow")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"

#: Run-step commands the workflow is allowed to use (prefix match, per line).
ALLOWED_RUN_PREFIXES = (
    "python -m pip install",  # environment setup
    "scripts/ci.sh",  # the local CI gate
    "python scripts/bench_export.py",  # bench smoke
    "python scripts/check_bench.py",  # bench regression guard
    "python scripts/serve_smoke.py",  # query-service boot/stream/cancel smoke
    "python scripts/storage_smoke.py",  # durable-store restart + warm-open gate
    "python scripts/streaming_smoke.py",  # continuous-query SSE + cancel smoke
    "python -m bench_e2e",  # end-to-end bench selftest + quick run
)


@pytest.fixture(scope="module")
def workflow() -> dict:
    assert WORKFLOW.exists(), f"missing workflow file {WORKFLOW}"
    data = yaml.safe_load(WORKFLOW.read_text())
    assert isinstance(data, dict)
    return data


def _steps(workflow: dict):
    for job_name, job in workflow["jobs"].items():
        for step in job.get("steps", []):
            yield job_name, step


def test_workflow_parses_and_has_jobs(workflow):
    assert workflow.get("name") == "CI"
    assert set(workflow["jobs"]) == {
        "tests",
        "bench-smoke",
        "procpool",
        "chaos",
        "serve-smoke",
        "storage",
        "streaming",
        "bench-e2e",
    }
    # "on" parses as the YAML boolean True when unquoted - accept either key.
    triggers = workflow.get("on", workflow.get(True))
    assert "push" in triggers and "pull_request" in triggers


def test_matrix_covers_three_python_versions(workflow):
    matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
    versions = matrix["python-version"]
    assert versions == ["3.10", "3.11", "3.12"]
    # Quoting matters: unquoted 3.10 would YAML-parse as the float 3.1.
    assert all(isinstance(v, str) for v in versions)


def test_one_matrix_leg_requires_pyarrow(workflow):
    """Exactly one extra leg installs the arrow extra and demands pyarrow.

    The base matrix must stay pyarrow-free (the Parquet tests skip there);
    the include leg flips REPRO_REQUIRE_PYARROW so tests/catalog/test_parquet.py
    *fails* instead of skipping if the extra did not install.
    """
    job = workflow["jobs"]["tests"]
    matrix = job["strategy"]["matrix"]
    assert matrix["extras"] == ["dev"], "base matrix legs must not pull pyarrow"
    arrow_legs = [
        inc for inc in matrix.get("include", []) if "arrow" in inc.get("extras", "")
    ]
    assert len(arrow_legs) == 1, "want exactly one pyarrow matrix leg"
    # The install step derives from matrix.extras, so the arrow leg installs it.
    install = " ".join(step.get("run", "") for step in job["steps"])
    assert "matrix.extras" in install
    # The flag is wired through the job env from the same matrix variable.
    assert "REPRO_REQUIRE_PYARROW" in job.get("env", {})
    assert "arrow" in str(job["env"]["REPRO_REQUIRE_PYARROW"])


def test_setup_python_steps_cache_pip(workflow):
    setup_steps = [
        step
        for _, step in _steps(workflow)
        if str(step.get("uses", "")).startswith("actions/setup-python")
    ]
    assert setup_steps, "no setup-python steps found"
    for step in setup_steps:
        assert step["with"]["cache"] == "pip"


def test_run_steps_only_invoke_ci_scripts(workflow):
    """Hosted CI must not grow bespoke inline logic local runs would miss."""
    run_steps = [(j, step["run"]) for j, step in _steps(workflow) if "run" in step]
    assert run_steps, "no run steps found"
    for job_name, command in run_steps:
        for line in filter(None, (ln.strip() for ln in command.splitlines())):
            assert line.startswith(ALLOWED_RUN_PREFIXES), (
                f"job {job_name!r} runs {line!r}, which is not one of the "
                f"repo CI scripts {ALLOWED_RUN_PREFIXES}"
            )


def test_matrix_job_runs_the_local_ci_gate(workflow):
    commands = [step["run"] for _, step in _steps(workflow) if "run" in step]
    assert any(c.strip().startswith("scripts/ci.sh") for c in commands)


def test_bench_smoke_job_runs_smoke_and_guard(workflow):
    job = workflow["jobs"]["bench-smoke"]
    commands = " ".join(step.get("run", "") for step in job["steps"])
    assert "bench_export.py --smoke" in commands
    assert "check_bench.py" in commands
    # Tier-1 runs in the test matrix, not here; the job's env keeps the
    # heavy benches off for any step that does not set its own (the
    # --smoke export pops the variable for its pytest run).
    assert job["env"]["REPRO_RUN_BENCH"] == "0"


def test_procpool_job_runs_lifecycle_tests_and_smoke_bench(workflow):
    """The 2-vCPU leg must exercise the process-executor suites (incl. the
    kill-the-worker cleanup test, the durable-store file transport and the
    SIGKILLed-parent directory sweep) and the proc-pool smoke bench - still
    through the repo's own CI scripts only."""
    job = workflow["jobs"]["procpool"]
    commands = " ".join(step.get("run", "") for step in job["steps"])
    assert "tests/engines/test_procpool.py" in commands
    assert "tests/engines/test_pool_dir_sweep.py" in commands
    assert "tests/engines/test_sharded.py" in commands
    assert "tests/storage/test_mapped.py" in commands
    assert "tests/catalog/test_fanout_cache.py" in commands
    assert "bench_export.py --smoke" in commands
    for step in job["steps"]:
        line = step.get("run", "").strip()
        if line and "test_procpool" in line:
            assert line.startswith("scripts/ci.sh")


def test_serve_smoke_job_boots_the_server_through_the_script(workflow):
    """The serving leg runs the serve test suites through the repo CI gate,
    then boots a real server via scripts/serve_smoke.py - canned queries,
    an SSE stream, a cancel, and the pool-directory leak oracle on
    shutdown."""
    job = workflow["jobs"]["serve-smoke"]
    commands = " ".join(step.get("run", "") for step in job["steps"])
    assert "tests/serve/" in commands
    assert "tests/session/test_wire_roundtrip.py" in commands
    assert "python scripts/serve_smoke.py" in commands
    for step in job["steps"]:
        line = step.get("run", "").strip()
        if line and "tests/serve" in line:
            assert line.startswith("scripts/ci.sh")


def test_storage_job_builds_restarts_and_gates_warm_open(workflow):
    """The durable-storage leg runs the segment/store/catalog suites through
    the repo CI gate, then scripts/storage_smoke.py: build a store, re-open
    it in a fresh process, and gate warm-open >= 10x faster than the cold
    build with zero index rebuilds and identical results."""
    job = workflow["jobs"]["storage"]
    commands = " ".join(step.get("run", "") for step in job["steps"])
    assert "tests/storage/" in commands
    assert "python scripts/storage_smoke.py" in commands
    for step in job["steps"]:
        line = step.get("run", "").strip()
        if line and "tests/storage" in line:
            assert line.startswith("scripts/ci.sh")


def test_streaming_job_runs_window_suites_and_sse_smoke(workflow):
    """The streaming leg runs the continuous-query suites (window geometry,
    bit-identity vs one-shot, lateness, the /subscribe surface) through the
    repo CI gate, then scripts/streaming_smoke.py: a live SSE subscription
    with monotone window ids that survives a late chunk, a DELETE-cancel,
    and the pool-directory leak oracle on shutdown."""
    job = workflow["jobs"]["streaming"]
    commands = " ".join(step.get("run", "") for step in job["steps"])
    assert "tests/streaming/" in commands
    assert "tests/serve/test_subscribe.py" in commands
    assert "python scripts/streaming_smoke.py" in commands
    for step in job["steps"]:
        line = step.get("run", "").strip()
        if line and "tests/streaming" in line:
            assert line.startswith("scripts/ci.sh")


def test_bench_e2e_job_runs_selftest_and_quick_run(workflow):
    job = workflow["jobs"]["bench-e2e"]
    commands = [step["run"].strip() for step in job["steps"] if "run" in step]
    assert "python -m bench_e2e selftest" in commands
    assert "python -m bench_e2e run --quick" in commands


def test_chaos_job_covers_the_storage_fault_site(workflow):
    """fail_segment_write (mid-save atomicity) must run under the seeded
    chaos leg, not only in the storage leg's deterministic tests."""
    job = workflow["jobs"]["chaos"]
    commands = " ".join(step.get("run", "") for step in job["steps"])
    assert "tests/storage/" in commands


def test_chaos_job_runs_the_resilience_suite_with_a_seed(workflow):
    """The fault-injection leg runs the resilience suite through the repo's
    own CI gate, with REPRO_FAULT_PLAN set to a *bare integer* - the seed
    the chaos tests derive their fault coordinates from, never an active
    JSON plan (which would inject faults into unrelated tests)."""
    job = workflow["jobs"]["chaos"]
    commands = " ".join(step.get("run", "") for step in job["steps"])
    assert "tests/resilience/" in commands
    seed = str(job["env"]["REPRO_FAULT_PLAN"])
    assert seed.isdigit(), "REPRO_FAULT_PLAN in CI must be a bare seed integer"
    for step in job["steps"]:
        line = step.get("run", "").strip()
        if line and "tests/resilience" in line:
            assert line.startswith("scripts/ci.sh")
