"""Crash cleanup of process-pool directories across processes.

A pool's owner holds an ``flock`` on its directory for as long as the
directory lives.  Creating a pool sweeps every sibling directory whose lock
is free, so:

* a parent SIGKILLed mid-session (no ``close()``, no ``atexit``) leaves its
  directory behind only until the next pool - in any process - is created;
* the directory of a live session in another process is never swept.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np

import repro
from repro.engines.memory import InMemoryEngine
from repro.engines.payload import live_pool_dirs
from repro.engines.sharded import ShardedEngine
from tests.conftest import make_materialized_population

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# Runs one process-sharded query, prints its pool directory, then waits for
# a line on stdin before closing the session and printing how many of its
# pool directories are left.
_CHILD = textwrap.dedent(
    """
    import sys

    from repro import SourceSpec, avg, connect
    from repro.engines.payload import live_pool_dirs

    if __name__ == "__main__":
        session = connect(delta=0.1, seed=0, engine="memory")
        session.attach("flights", SourceSpec("flights", rows=5000, seed=0))
        (
            session.table("flights")
            .group_by("carrier")
            .agg(avg("arrival_delay"))
            .sharded(2, executor="process")
            .run(seed=0)
        )
        print(*live_pool_dirs(), flush=True)
        sys.stdin.readline()
        session.close()
        print(len(live_pool_dirs()), flush=True)
    """
)


def _start_child(tmp_path) -> tuple[subprocess.Popen, str]:
    script = tmp_path / "child.py"
    script.write_text(_CHILD)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    path = proc.stdout.readline().strip()
    assert path and os.path.isdir(path), f"child reported no pool directory: {path!r}"
    return proc, path


def _open_and_close_a_pool() -> None:
    pop = make_materialized_population([10.0, 20.0, 30.0, 40.0], sizes=50, seed=1)
    engine = ShardedEngine(InMemoryEngine(pop), shards=2, executor="process")
    try:
        engine.open_run(seed=0).draw_block(np.arange(4), 2)
    finally:
        engine.close()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)
    proc.stdout.close()
    proc.stdin.close()


def test_sigkilled_parent_directory_is_swept_by_the_next_pool(tmp_path):
    proc, path = _start_child(tmp_path)
    try:
        assert os.listdir(path)  # payload and output files
        proc.kill()
        proc.wait(timeout=30)
        assert os.path.isdir(path)  # nothing of the dead owner cleaned up
        _open_and_close_a_pool()
        assert not os.path.exists(path)
    finally:
        _stop(proc)
    assert live_pool_dirs() == []


def test_live_session_directory_is_never_swept(tmp_path):
    proc, path = _start_child(tmp_path)
    try:
        _open_and_close_a_pool()
        assert os.path.isdir(path) and os.listdir(path)
        out, _ = proc.communicate("\n", timeout=120)
        assert proc.returncode == 0 and out.strip() == "0"
        assert not os.path.exists(path)
    finally:
        _stop(proc)
    assert live_pool_dirs() == []
