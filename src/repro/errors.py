"""Structured error taxonomy shared across the stack.

Every layer that can fail - data-source scans, the worker payload transport,
worker processes, the planner - classifies its failures along one axis the
resilience layer (:mod:`repro.resilience`) can act on:

* :class:`TransientError` - the operation may succeed if repeated: a flaky
  scan chunk, a crashed worker process that can be respawned and replayed.
  Retry policies (:class:`repro.resilience.retry.RetryPolicy`) only ever
  retry these.
* :class:`FatalError` - repeating cannot help: exhausted restart budgets,
  corrupted state, contract violations.  Surfaces to the caller unchanged.
* :class:`QueryCancelled` - the query's cancel token was triggered
  (``Session.submit()`` future ``cancel()`` or an explicit
  :meth:`repro.resilience.deadline.Deadline.cancel`).  Deliberately *not* a
  :class:`ReproError` subclass pair of transient/fatal: cancellation is a
  caller decision, not a failure of the stack.

``WorkerCrashed`` (a :class:`TransientError`) doubles as ``RuntimeError``
for backwards compatibility - pre-resilience callers caught worker deaths
as RuntimeError and must keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TransientError",
    "FatalError",
    "StorageError",
    "WorkerCrashed",
    "QueryCancelled",
]


class ReproError(Exception):
    """Base class of the repro failure taxonomy."""


class TransientError(ReproError):
    """A failure that may not recur: retrying the operation is sound."""


class FatalError(ReproError):
    """A failure retrying cannot fix; it must surface to the caller."""


class StorageError(FatalError):
    """A durable-storage segment or catalog is unreadable or corrupt.

    Raised by :mod:`repro.storage` when an on-disk segment fails its
    structural checks (bad magic, unsupported version, truncated payload)
    or its checksum verification - never silently served as garbage reads.
    Fatal: re-reading the same bytes cannot help; the store needs a
    ``repro store verify``/``gc`` pass or a rebuild.
    """


class WorkerCrashed(TransientError, RuntimeError):
    """A shard worker process died before answering a command.

    Transient: the process pool can respawn the worker from the parent-owned
    payload files and replay its command log (deterministic
    recovery, see :mod:`repro.engines.procpool`).  Also a ``RuntimeError``
    so callers from before the taxonomy existed keep catching it.
    """


class QueryCancelled(ReproError):
    """The query's cancel token fired; sampling stopped cooperatively."""
