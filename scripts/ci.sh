#!/usr/bin/env bash
# CI gate: lint (ruff, when available) + the tier-1 test suite + (full gate
# only) every examples/*.py under -W error::DeprecationWarning.
#
# Usage:  scripts/ci.sh [extra pytest args...]
#
#   scripts/ci.sh                  # full gate: lint + tier-1 (with the 15
#                                  # slowest tests and its wall time)
#   scripts/ci.sh -k sharded       # fast mode: only tests matching an
#                                  # expression (args go straight to pytest,
#                                  # so -k/-m/paths all work while iterating)
#   scripts/ci.sh -m "not slow"    # drop the long statistical tests
#
# This script *is* the hosted CI: .github/workflows/ci.yml runs exactly this
# plus the bench smoke (scripts/bench_export.py --smoke + scripts/check_bench.py),
# so a green local run means a green matrix job.
#
# Exits non-zero on the first failure.  ruff is optional because the offline
# image may not ship it; without ruff, scripts/lint_f401.py (standard library
# only) still enforces the unused-import rule (F401), so local and hosted runs
# agree on it.  The lint rule set is pinned in pyproject.toml ([tool.ruff]),
# not inherited from ruff defaults.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check (config: pyproject.toml) =="
    ruff check src tests scripts benchmarks
else
    echo "== ruff not installed; F401 only (scripts/lint_f401.py) =="
    python scripts/lint_f401.py src tests scripts benchmarks
fi

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
if [ "$#" -eq 0 ]; then
    # Full gate: show the slowest tests and the wall time, so the tier-1
    # time budget (ROADMAP.md) is visible in every CI log.
    start=$(date +%s)
    python -m pytest -x -q --durations=15
    echo "== tier-1 wall time: $(( $(date +%s) - start )) s =="
else
    python -m pytest -x -q "$@"
fi

if [ "$#" -eq 0 ]; then
    echo "== examples (DeprecationWarning is an error) =="
    for example in examples/*.py; do
        python -W error::DeprecationWarning "$example" >/dev/null
    done
fi

echo "== CI OK =="
