"""Process-backed shard execution: persistent spawn workers over mapped files.

:class:`ProcessShardPool` is the muscle behind
``ShardedEngine(executor="process")``: one persistent worker process per
non-empty shard (``spawn`` context - no inherited state, identical semantics
on every platform), each owning its shard's
:class:`~repro.engines.base.EngineRun` and fused block kernels over a
sub-population rebuilt zero-copy from mapped buffer files
(:mod:`repro.engines.payload`).  The parent never ships data - only tiny
``(command, gids, count)`` tuples travel down each worker's pipe, and result
matrices come back through a preallocated per-worker output buffer file
(grown geometrically, parent-owned, mapped by both sides), so a fused draw
moves exactly one ``(count, m)`` float64 block through memory, not through
pickle.

Determinism: workers rebuild per-group RNG streams from the *same*
``SeedSequence`` children the thread executor (and the plain engines) spawn
(:func:`repro._util.spawn_group_seed_seqs`), in the same gid order, so the
PR-3 shard-merge contract holds verbatim - asserted by running the sharded
determinism test matrix against ``executor="process"``.

Deterministic worker recovery: everything a worker holds is either owned by
the parent (the payload files) or a pure function of the parent-side
command history (sampler streams are rebuilt from ``SeedSequence`` children;
every draw advances them by amounts fixed by the command sequence and the
static data).  So the pool logs each state-mutating command per shard, and
when a worker dies - SIGKILL, OOM, a corrupt handshake - it respawns the
process from the still-live payloads and *replays the log*: the replacement
ends in a state bit-identical to where the casualty would have been, and
the in-flight command's reply comes from the replay.  Recovery is bounded
by a pool-wide restart budget (``max_restarts``); past it the original
``WorkerCrashed`` surfaces.  Crash/recovery events are recorded for
``Result.caveats`` and reported to the engine's circuit breaker.

Lifecycle: the pool owns one :class:`~repro.engines.payload.PoolDir` (every
buffer file it wrote) and each worker process.  ``shutdown()`` stops workers
against one shared deadline (terminate -> kill escalation, so N stuck
workers cost one timeout, not N) and then removes the directory.

Fault-injection sites (:mod:`repro.resilience.faults`): ``procpool.command``
(parent-side, per fresh command: ``kill_worker``, ``kill_mid_command``,
``delay_shard``) and ``procpool.handshake`` (worker-side, per spawn:
``corrupt_handshake``).  Kill faults fire in the parent with parent-side
budgets, so a respawned worker replaying its log can never re-trigger them.
"""

from __future__ import annotations

import collections
import contextlib
import multiprocessing
import os
import signal
import threading
import time
import traceback

import numpy as np

from repro.engines.payload import FileArrayRef, PoolDir, ShardPayload, build_shard_payloads
from repro.errors import WorkerCrashed
from repro.resilience.faults import fault_at

__all__ = ["ProcessShardPool", "WorkerCrashed"]

#: Initial per-worker output buffer (bytes); grown geometrically on demand.
_MIN_OUT_BYTES = 1 << 16

#: What a draw on a shut-down pool raises.
_SHUT_DOWN = (
    "process shard pool is shut down; runs opened before a "
    "release_pool()/close() cannot draw - open a new run"
)

#: Default pool-wide worker-restart budget.
_DEFAULT_MAX_RESTARTS = 3

#: Default build-handshake timeout (seconds).  Generous: a spawn-context
#: worker must import numpy and map its buffer files before it can answer.
_DEFAULT_HANDSHAKE_TIMEOUT = 30.0


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(conn, payload: ShardPayload, shard: int = 0, spawn_index: int = 0) -> None:
    """Entry point of one shard worker process.

    Protocol (parent -> worker, one reply per command):

    * ``("open_run", run_id, seed_seqs, without_replacement)``
    * ``("draw_block", run_id, gids, count, out_ref)`` -> ``(shape, seconds)``
    * ``("draw", run_id, gid, count, out_ref)`` -> ``(shape, seconds)``
    * ``("close_run", run_id)``
    * ``("stop",)``

    Replies are ``("ok", value)`` or ``("err", exception, traceback_text)``.
    Errors (e.g. group exhaustion) leave the worker alive, mirroring the
    thread fan-out where a raised draw does not kill the pool.
    """
    from repro._util import rngs_from_seed_seqs
    from repro.engines.base import EngineRun

    runs: dict[int, EngineRun] = {}
    mapped: FileArrayRef | None = None
    out_view: np.ndarray | None = None

    def out_buffer(ref: FileArrayRef) -> np.ndarray:
        nonlocal mapped, out_view
        if ref != mapped:  # the parent grew the buffer into a new file
            mapped, out_view = ref, ref.map("r+")
        return out_view

    try:
        fault = fault_at("procpool.handshake", shard=shard, index=spawn_index)
        if fault is not None and fault.kind == "corrupt_handshake":
            conn.send(("garbled", spawn_index))
            return
        population = payload.build_population()
        conn.send(("ok", "ready"))
        while True:
            try:
                msg = conn.recv()
            except EOFError:  # parent went away; nothing left to serve
                break
            cmd = msg[0]
            try:
                if cmd == "open_run":
                    _, run_id, seed_seqs, without_replacement = msg
                    rngs = rngs_from_seed_seqs(seed_seqs)
                    samplers = [
                        group.sampler(rng, without_replacement)
                        for group, rng in zip(population.groups, rngs)
                    ]
                    # Workers only draw: accounting happens once, parent-side.
                    runs[run_id] = EngineRun(population, samplers)
                    reply = None
                elif cmd in ("draw_block", "draw"):
                    _, run_id, gids, count, out_ref = msg
                    run = runs[run_id]
                    t0 = time.thread_time()
                    if cmd == "draw_block":
                        block = run.draw_block(gids, count)
                    else:
                        block = run.draw(int(gids), count)
                    seconds = time.thread_time() - t0
                    flat = np.ascontiguousarray(block).reshape(-1)
                    out_buffer(out_ref)[: flat.size] = flat
                    reply = (block.shape, seconds)
                elif cmd == "close_run":
                    runs.pop(msg[1], None)
                    reply = None
                elif cmd == "stop":
                    conn.send(("ok", None))
                    break
                else:  # pragma: no cover - protocol is fixed at build time
                    raise ValueError(f"unknown worker command {cmd!r}")
                conn.send(("ok", reply))
            except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
                text = traceback.format_exc()
                try:
                    conn.send(("err", exc, text))
                except Exception:  # unpicklable exception: degrade to text
                    conn.send(
                        ("err", RuntimeError(f"{type(exc).__name__}: {exc}"), text)
                    )
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Worker:
    """Parent-side record of one shard worker.

    ``log`` is the shard's replay journal: one normalized entry per
    state-mutating command (``open_run``/``draw_block``/``draw``), with draw
    entries stored *without* their out-buffer handle - an outgrown out file
    is unlinked, so replay substitutes the current one (always big enough:
    growth is monotone).  ``out_ref`` names the current out file and
    ``out_view`` is the parent's mapping of it.  ``commands`` counts fresh
    (non-replay) commands over the pool's whole lifetime - every query a
    cached pool serves adds to it; it is the fault-injection index and
    survives a respawn, so a plan's per-shard coordinates stay stable
    across crashes.
    """

    __slots__ = (
        "process", "conn", "lock", "out_ref", "out_view", "alive", "log", "commands"
    )

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.out_ref: FileArrayRef | None = None
        self.out_view: np.ndarray | None = None
        self.alive = True
        self.log: list[tuple] = []
        self.commands = 0


class ProcessShardPool:
    """Persistent worker processes serving one sharded engine's draws.

    Args:
        population / shard_gids / name: as before (PR 5).
        max_restarts: pool-wide budget of worker respawns; ``0`` disables
            recovery entirely (a crash surfaces as ``WorkerCrashed`` on the
            next command, the pre-resilience behaviour).
        handshake_timeout: seconds to wait for a worker's build handshake
            before declaring it crashed (a worker that dies *before*
            handshaking must never block the build forever).
        on_crash: optional observer called as ``on_crash(shard, exc)`` for
            every crash the pool attempts to recover from - the sharded
            engine feeds its circuit breaker with this.
        on_event: optional observer called with each crash/recovery event
            text as it is recorded, on the thread whose command observed it
            - the sharded engine attributes events to queries with this.
    """

    def __init__(
        self,
        population,
        shard_gids: list[np.ndarray],
        *,
        name: str = "repro-shard",
        max_restarts: int = _DEFAULT_MAX_RESTARTS,
        handshake_timeout: float = _DEFAULT_HANDSHAKE_TIMEOUT,
        on_crash=None,
        on_event=None,
    ) -> None:
        if int(max_restarts) < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if handshake_timeout <= 0:
            raise ValueError(
                f"handshake_timeout must be > 0, got {handshake_timeout}"
            )
        self._ctx = multiprocessing.get_context("spawn")
        self._name = name
        self._max_restarts = int(max_restarts)
        self._restarts_left = int(max_restarts)
        self._handshake_timeout = float(handshake_timeout)
        self._on_crash = on_crash
        self._on_event = on_event
        # Guards _closed and _events: a draw racing shutdown() must either
        # complete against live state or fail the closed check - never create
        # an out file after shutdown removed the directory.
        self._state_lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._events: list[str] = []
        self._closed = False
        # Run ids whose parent-side run was garbage collected; drained (with
        # real close_run commands) on the next open_run.  GC finalizers only
        # ever append here - a deque append is lock-free and never blocks,
        # so collection can never deadlock on a worker lock or touch a pipe.
        self._retired: collections.deque[int] = collections.deque()
        self._dir = PoolDir()
        try:
            self._payloads = build_shard_payloads(population, shard_gids, self._dir)
            self._spawned = [0] * len(self._payloads)
            for shard in range(len(self._payloads)):
                process, conn = self._spawn_process(shard)
                self._workers.append(_Worker(process, conn))
            for shard, worker in enumerate(self._workers):
                try:
                    self._handshake(shard, worker)
                except WorkerCrashed as exc:
                    # Empty log: recovery here is a clean respawn+handshake.
                    self._recover(shard, exc)
        except BaseException:
            self.shutdown()
            raise

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def restarts_remaining(self) -> int:
        return self._restarts_left

    @property
    def live_workers(self) -> int:
        """Worker processes currently alive (0 once shut down)."""
        if self._closed:
            return 0
        return sum(w.alive and w.process.is_alive() for w in self._workers)

    def events(self) -> list[str]:
        """Crash/recovery events recorded so far (for Result caveats)."""
        with self._state_lock:
            return list(self._events)

    def _record_event(self, text: str) -> None:
        with self._state_lock:
            self._events.append(text)
        if self._on_event is not None:
            self._on_event(text)

    # -- spawning and recovery ----------------------------------------------

    def _spawn_process(self, shard: int):
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._payloads[shard], shard, self._spawned[shard]),
            daemon=True,
            name=f"{self._name}-{shard}",
        )
        process.start()
        child_conn.close()
        self._spawned[shard] += 1
        return process, parent_conn

    def _reap(self, worker: _Worker) -> None:
        """Bury a dead (or doomed) worker process and its pipe."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def _handshake(self, shard: int, worker: _Worker) -> None:
        """Wait (bounded) for the worker's build handshake.

        A worker that died or hung before handshaking must never block the
        build forever: past the timeout it is declared crashed (with its
        exit code, once reaped) and ``WorkerCrashed`` raises.
        """
        try:
            ready = worker.conn.poll(self._handshake_timeout)
        except (EOFError, OSError):
            ready = True  # the recv below surfaces the broken pipe
        if not ready:
            worker.alive = False
            self._reap(worker)
            raise WorkerCrashed(
                f"shard worker {shard} did not complete its build handshake "
                f"within {self._handshake_timeout:.1f}s and was killed "
                f"(exit code {worker.process.exitcode})"
            )
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            raise self._crashed(shard, worker) from None
        if not (isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "ok"):
            worker.alive = False
            self._reap(worker)
            raise WorkerCrashed(
                f"shard worker {shard} sent a corrupt build handshake "
                f"({reply!r}); it was killed (exit code {worker.process.exitcode})"
            )

    def _recover(self, shard: int, cause: WorkerCrashed, raise_last: bool = True):
        """Respawn the shard's worker and replay its command log.

        Returns the final replayed reply (the in-flight command's answer,
        when the caller logged it before crashing).  Raises ``cause`` when
        the pool is closed or the restart budget is exhausted; each failed
        recovery attempt consumes budget, so a persistent killer cannot
        loop forever.
        """
        worker = self._workers[shard]
        while True:
            with self._state_lock:
                if self._closed:
                    raise cause
                exhausted = self._restarts_left <= 0
                if not exhausted:
                    self._restarts_left -= 1
            if exhausted:
                self._record_event(
                    f"shard worker {shard} died and the pool restart "
                    f"budget (max_restarts={self._max_restarts}) is "
                    "exhausted; no recovery attempted"
                )
                raise cause
            if self._on_crash is not None:
                self._on_crash(shard, cause)
            self._reap(worker)
            process, conn = self._spawn_process(shard)
            worker.process, worker.conn = process, conn
            worker.alive = True
            try:
                self._handshake(shard, worker)
                last = self._replay(shard, worker, raise_last=raise_last)
            except WorkerCrashed as exc:
                cause = exc
                continue
            self._record_event(
                f"shard worker {shard} crashed ({cause}) and was respawned; "
                f"{len(worker.log)} logged commands were replayed "
                "deterministically"
            )
            return last

    def _replay(self, shard: int, worker: _Worker, *, raise_last: bool):
        """Re-issue the shard's logged commands against a fresh worker.

        Draw entries get the *current* out buffer attached (big enough by
        monotone growth).  Worker-side errors on non-final entries already
        surfaced to their original callers, so they are swallowed here to
        reproduce the original state; the final entry's error propagates
        only when it answers an in-flight command (``raise_last``).
        """
        last = None
        for i, entry in enumerate(worker.log):
            if entry[0] in ("draw_block", "draw"):
                count = entry[3]
                width = entry[2].size if entry[0] == "draw_block" else 1
                out_ref = self._ensure_out(worker, count * width * 8)
                message = (*entry, out_ref)
            else:
                message = entry
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError):
                raise self._crashed(shard, worker) from None
            try:
                last = self._recv(shard, worker)
            except WorkerCrashed:
                raise
            except Exception:
                if raise_last and i == len(worker.log) - 1:
                    raise
                last = None
        return last

    # -- plumbing -----------------------------------------------------------

    def _crashed(self, shard: int, worker: _Worker) -> WorkerCrashed:
        worker.alive = False
        code = worker.process.exitcode
        return WorkerCrashed(
            f"shard worker {shard} died (exit code {code}) before answering"
        )

    def _recv(self, shard: int, worker: _Worker):
        try:
            status, *rest = worker.conn.recv()
        except (EOFError, OSError):
            raise self._crashed(shard, worker) from None
        if status == "err":
            exc, text = rest
            if hasattr(exc, "add_note"):  # keep the worker-side traceback
                exc.add_note(f"(raised in shard worker {shard})\n{text}")
            raise exc
        return rest[0]

    def _worker(self, shard: int) -> _Worker:
        if self._closed:
            raise RuntimeError(_SHUT_DOWN)
        return self._workers[shard]

    def _kill_worker(self, worker: _Worker) -> None:
        """Apply a planned kill fault: SIGKILL, then wait for the death to
        be observable (so the fault is deterministic, not racy)."""
        try:
            os.kill(worker.process.pid, signal.SIGKILL)
        except (OSError, TypeError):  # pragma: no cover - already gone
            pass
        worker.process.join(timeout=10)

    def _roundtrip(self, shard: int, message: tuple, entry: tuple | None = None):
        """One command round-trip, with logging, faults, and recovery.

        Must run under the shard worker's lock.  ``entry`` is the normalized
        replay-log record for state-mutating commands; ``None`` marks
        commands that are not replayed (``close_run``) and are instead
        re-sent after a recovery.
        """
        worker = self._worker(shard)
        fault = None
        if entry is not None:
            index = worker.commands
            worker.commands += 1
            worker.log.append(entry)
            fault = fault_at("procpool.command", shard=shard, index=index)
        while True:
            try:
                if not worker.alive:
                    raise self._crashed(shard, worker)
                kill_after = False
                if fault is not None:
                    if fault.kind == "delay_shard":
                        time.sleep(fault.delay_s)
                    elif fault.kind == "kill_worker":
                        self._kill_worker(worker)
                    elif fault.kind == "kill_mid_command":
                        kill_after = True
                    fault = None  # one firing per fresh command
                try:
                    worker.conn.send(message)
                    if kill_after:
                        # The parent is about to block on the result pipe
                        # with the command already in flight - the exact
                        # mid-command death the chaos suite exercises.
                        self._kill_worker(worker)
                    return self._recv(shard, worker)
                except (BrokenPipeError, OSError):
                    raise self._crashed(shard, worker) from None
            except WorkerCrashed as exc:
                answered = entry is not None
                last = self._recover(shard, exc, raise_last=answered)
                if answered:
                    # The in-flight command was the log's final entry; its
                    # replayed reply is the answer.
                    return last
                # Unlogged command (close_run): re-send it this iteration.

    def _ensure_out(self, worker: _Worker, nbytes: int) -> FileArrayRef:
        ref = worker.out_ref
        if ref is not None and ref.nbytes >= nbytes:
            return ref
        size = max(_MIN_OUT_BYTES, nbytes)
        if ref is not None:
            size = max(size, 2 * ref.nbytes)
        # Check, create and map under one lock: shutdown() flips _closed under
        # it and only then removes the directory.
        with self._state_lock:
            if self._closed:
                raise RuntimeError(_SHUT_DOWN)
            worker.out_ref = self._dir.create(size)
            worker.out_view = worker.out_ref.map("r+")
        if ref is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(ref.path)
        return worker.out_ref

    # -- commands -----------------------------------------------------------

    def open_run(
        self, shard: int, run_id: int, seed_seqs, without_replacement: bool
    ) -> None:
        self._drain_retired()
        worker = self._worker(shard)
        with worker.lock:
            message = ("open_run", run_id, seed_seqs, without_replacement)
            self._roundtrip(shard, message, entry=message)

    def retire_run(self, run_id: int) -> None:
        """Mark a run's worker-side state reclaimable.

        Safe to call from a ``weakref`` finalizer (i.e. from GC at an
        arbitrary point, possibly on a thread already holding a worker
        lock): it only appends to a deque.  The actual ``close_run``
        commands run on the next :meth:`open_run`, on a normal thread.
        """
        self._retired.append(run_id)

    def _drain_retired(self) -> None:
        while True:
            try:
                run_id = self._retired.popleft()
            except IndexError:
                return
            for shard, worker in enumerate(self._workers):
                if not worker.alive:
                    continue
                with worker.lock:
                    try:
                        self._roundtrip(shard, ("close_run", run_id))
                    except (WorkerCrashed, RuntimeError):  # best-effort cleanup
                        pass
                    else:
                        # The run is gone worker-side; replay no longer
                        # needs its commands.
                        worker.log = [e for e in worker.log if e[1] != run_id]

    def _fetch(self, shard: int, message_head: tuple, count: int, width: int):
        """Send a draw command and copy the result out of the out buffer.

        The copy happens under the worker lock: the buffer is reused by the
        very next command, so the bytes must be lifted before another run's
        draw can overwrite them.
        """
        worker = self._worker(shard)
        with worker.lock:
            out_ref = self._ensure_out(worker, count * width * 8)
            shape, seconds = self._roundtrip(
                shard, (*message_head, out_ref), entry=message_head
            )
            n = int(np.prod(shape)) if shape else 0
            block = np.empty(shape, dtype=np.float64)
            block.reshape(-1)[...] = worker.out_view[:n]
        return block, float(seconds)

    def draw_block(
        self, shard: int, run_id: int, gids: np.ndarray, count: int
    ) -> tuple[np.ndarray, float]:
        gids = np.asarray(gids, dtype=np.int64)
        return self._fetch(
            shard, ("draw_block", run_id, gids, count), count, gids.size
        )

    def draw(
        self, shard: int, run_id: int, gid: int, count: int
    ) -> tuple[np.ndarray, float]:
        return self._fetch(shard, ("draw", run_id, int(gid), count), count, 1)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop workers, then remove the pool directory (idempotent).

        An in-flight draw either finishes first (the stop loop waits on its
        worker lock) or fails the closed check in ``_ensure_out``/``_worker``
        - so no out file is created after the directory is removed.

        Join discipline: all workers share *one* deadline.  Any worker
        still alive at the deadline is terminated; any still alive a grace
        period after that is killed - so N stuck workers cost one timeout,
        not N.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        for shard, worker in enumerate(self._workers):
            if not worker.alive:
                continue
            with worker.lock:
                try:
                    worker.conn.send(("stop",))
                    worker.conn.recv()
                except (EOFError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
        grace = deadline + 1.0
        for worker in self._workers:
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.join(timeout=max(0.0, grace - time.monotonic()))
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
            worker.conn.close()
        # The worker list is deliberately NOT cleared: a thread that read
        # _closed just before it flipped may still index it, and must get a
        # clean closed/crashed error from the ensuing request - never an
        # IndexError from a vanished list.
        self._dir.close()
