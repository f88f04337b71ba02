"""Worker payloads for process-parallel shard execution: buffers as files.

The process shard executor (:mod:`repro.engines.procpool`) gives every shard
a persistent worker process that owns its shard's :class:`EngineRun` and
block kernels.  Workers must see the shard's *data* - its groups' values -
without pickling it through the command pipe.

What they see is the durable store's build format: the population is packed
once by :func:`repro.storage.mapped.pack_population` (the layout the store
persists), every packed buffer becomes one :class:`FileArrayRef` - a window
of a file each worker ``mmap``\\ s - and a worker rebuilds its shard with the
same :func:`~repro.storage.mapped.unpack_population` the store uses.

* Buffers already in durable-store segment files (populations and engines
  re-opened from a :class:`~repro.storage.DurableCatalog`) ship as windows
  of those files, read in place.
* Every other buffer is streamed once, chunk by chunk, into a file of the
  pool's :class:`PoolDir` - raw bytes, no header, no fsync: the directory
  dies with the pool.  It lives on the ``/dev/shm`` tmpfs when that is
  writable (so the bytes stay RAM-resident, as shared memory would keep
  them) and in :func:`tempfile.gettempdir` otherwise.  The workers' output
  buffers are files in the same directory.

Cleanup is deleting the directory: the pool does it on shutdown, a
``weakref.finalize`` at interpreter exit, and - for an owner that was
SIGKILLed - the next pool any process creates, which removes every sibling
directory whose owner no longer holds its ``flock``.  :func:`live_pool_dirs`
(this process's pool directories still on disk) is the leak oracle.

A :class:`ShardPayload` is ``(kind, meta, refs)``: the packed meta with its
groups restricted to the shard's gids, and the whole population's buffer
refs, shared by every shard.  Fusable virtual groups (parameter-only
distributions) have no buffers; they travel pickled in the meta.

Not every population can cross the process boundary this way:
:func:`shareable` returns the reason a population must stay on the thread
executor (the planner surfaces it as a ``Result`` caveat).
"""

from __future__ import annotations

import fcntl
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

from repro.data.population import MaterializedGroup, Population, VirtualGroup

__all__ = [
    "FileArrayRef",
    "PoolDir",
    "ShardPayload",
    "shareable",
    "file_backed_ref",
    "build_shard_payloads",
    "live_pool_dirs",
]


@dataclass(frozen=True)
class FileArrayRef:
    """A picklable handle to one ndarray living in a file.

    The file is either a durable-store segment (``offset`` is the absolute
    byte position of the window, so no header parsing happens worker-side)
    or a raw buffer file in a :class:`PoolDir` (``offset`` 0).
    """

    path: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize

    def map(self, mode: str = "r") -> np.ndarray:
        """Map the window (``"r+"`` for an output buffer); the page cache
        dedups the bytes across workers."""
        return np.memmap(
            self.path,
            dtype=np.dtype(self.dtype),
            mode=mode,
            offset=int(self.offset),
            shape=tuple(self.shape),
        ).view(np.ndarray)


def file_backed_ref(array: np.ndarray) -> FileArrayRef | None:
    """A :class:`FileArrayRef` for ``array``, or None if it isn't mappable.

    ``array`` qualifies when its base chain bottoms out in a *read-only*
    ``np.memmap`` over a named file and the array is a C-contiguous window
    of those mapped bytes.  Writable mappings are rejected: a worker's view
    must be bit-stable for the lifetime of the run, which only the durable
    store's immutable (write-once, atomic-rename) segments guarantee.
    """
    if not isinstance(array, np.ndarray) or not array.flags.c_contiguous:
        return None
    root = array
    while isinstance(root.base, np.ndarray):
        root = root.base
    if not isinstance(root, np.memmap) or not root.flags.c_contiguous:
        return None
    if getattr(root, "filename", None) is None or getattr(root, "mode", None) != "r":
        return None
    span = array.__array_interface__["data"][0] - root.__array_interface__["data"][0]
    if span < 0 or span + array.nbytes > root.nbytes:
        return None
    return FileArrayRef(
        path=str(root.filename),
        dtype=array.dtype.str,
        shape=tuple(array.shape),
        offset=int(root.offset) + int(span),
    )


# ---------------------------------------------------------------------------
# Pool directories
# ---------------------------------------------------------------------------

_PREFIX = "repro-pool-"
#: A directory is created under this (unswept) name and renamed to
#: ``_PREFIX`` only once its owner holds the lock, so a sweep never sees a
#: live directory unlocked.
_STAGING_PREFIX = ".repro-pool-"

#: This process's pool directories (the :func:`live_pool_dirs` oracle).
_OWN_DIRS: set[str] = set()


def _pool_root() -> str:
    """``/dev/shm`` when it is a writable directory, else the temp dir."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK | os.X_OK):
        return shm
    return tempfile.gettempdir()


def live_pool_dirs() -> list[str]:
    """This process's pool directories that exist on disk (the leak oracle:
    empty once every pool is shut down)."""
    return sorted(path for path in _OWN_DIRS.copy() if os.path.isdir(path))


def _sweep_dead(root: str) -> None:
    """Remove every pool directory under ``root`` whose owner is gone.

    An owner holds an exclusive ``flock`` on its directory until it removes
    it, so a lock taken here means the owner died without cleanup (e.g. it
    was SIGKILLed).  Locks, unlike pids, mean the same thing across PID
    namespaces.
    """
    try:
        entries = list(os.scandir(root))
    except OSError:
        return
    for entry in entries:
        if not entry.name.startswith(_PREFIX) or entry.path in _OWN_DIRS:
            continue
        try:
            fd = os.open(entry.path, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
        except OSError:
            continue
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:  # a live owner holds it (or locking failed): keep it
            pass
        else:
            shutil.rmtree(entry.path, ignore_errors=True)
        finally:
            os.close(fd)


def _remove_dir(path: str, fd: int) -> None:
    shutil.rmtree(path, ignore_errors=True)
    if not os.path.exists(path):  # a directory rmtree missed stays reported
        _OWN_DIRS.discard(path)
    os.close(fd)  # releases the lock only once the directory is gone


class PoolDir:
    """One process pool's directory of buffer files, locked while it lives.

    Creating one first sweeps the dead owners' directories (see
    :func:`_sweep_dead`).  :meth:`close` removes the directory; a
    ``weakref.finalize`` does the same for a pool leaked at interpreter exit.
    """

    def __init__(self) -> None:
        root = _pool_root()
        _sweep_dead(root)
        staging = tempfile.mkdtemp(prefix=_STAGING_PREFIX, dir=root)
        fd = os.open(staging, os.O_RDONLY | os.O_DIRECTORY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            path = os.path.join(
                root, _PREFIX + os.path.basename(staging)[len(_STAGING_PREFIX) :]
            )
            os.rename(staging, path)
        except BaseException:
            os.close(fd)
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self.path = path
        _OWN_DIRS.add(path)
        self._finalizer = weakref.finalize(self, _remove_dir, path, fd)

    def write(self, buffer: np.ndarray | list[np.ndarray]) -> FileArrayRef:
        """Stream an array, or a list of 1-D chunks of one dtype laid end to
        end, into a new file; returns its handle."""
        chunks = [buffer] if isinstance(buffer, np.ndarray) else buffer
        fd, path = tempfile.mkstemp(prefix="payload-", dir=self.path)
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                chunk.tofile(f)
        shape = chunks[0].shape if len(chunks) == 1 else (sum(c.size for c in chunks),)
        return FileArrayRef(path, chunks[0].dtype.str, tuple(shape), 0)

    def create(self, nbytes: int) -> FileArrayRef:
        """A new zero-filled float64 buffer file of ``nbytes`` bytes."""
        fd, path = tempfile.mkstemp(prefix="out-", dir=self.path)
        try:
            os.ftruncate(fd, int(nbytes))
        finally:
            os.close(fd)
        return FileArrayRef(path, np.dtype(np.float64).str, (int(nbytes) // 8,), 0)

    def close(self) -> None:
        """Remove the directory and every file in it (idempotent)."""
        self._finalizer()


# ---------------------------------------------------------------------------
# Shard payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPayload:
    """Everything a worker needs to rebuild one shard's sub-population.

    ``kind`` is the packed kind (``"population"``) or ``"virtual"``; ``meta`` is the packed meta restricted to the shard's
    groups; ``refs`` maps each packed buffer to its file.  Buffer files are
    owned by the pool (or the durable store), never by the payload: a
    worker's mappings are closed by the garbage collector and unlink nothing.
    """

    kind: str
    meta: dict
    refs: dict

    def build_population(self) -> Population:
        """Reconstruct the sub-population as zero-copy views (worker side)."""
        from repro.storage.mapped import unpack_population

        if self.kind == "virtual":
            meta = self.meta
            return Population(groups=list(meta["groups"]), c=meta["c"], name=meta["name"])
        arrays = {role: ref.map() for role, ref in self.refs.items()}
        return unpack_population(self.kind, self.meta, arrays)


def shareable(population: Population) -> str | None:
    """Why ``population`` cannot cross into worker processes (None = it can).

    Materialized groups and fusable virtual groups ship - one kind per
    population, since a packed population has one layout.  Rejection-sampled
    virtual groups (whose draws run arbitrary Python sampler code with
    data-dependent RNG consumption) and unknown ``Group`` subclasses do not.
    The planner downgrades ``executor="process"`` to the thread fan-out when
    this returns a reason, surfacing it as a caveat.
    """
    kinds = set()
    for group in population.groups:
        if isinstance(group, MaterializedGroup):
            kinds.add("materialized")
        elif isinstance(group, VirtualGroup):
            if not group.dist.fusable:
                return (
                    f"group {group.name!r} is backed by a rejection-sampled "
                    f"distribution ({type(group.dist).__name__}), whose sampler "
                    "state cannot be rebuilt in worker processes"
                )
            kinds.add("virtual")
        else:
            return (
                f"group {group.name!r} has unknown kind {type(group).__name__}, "
                "which the process transport does not cover"
            )
    if len(kinds) > 1:
        return (
            f"population mixes group kinds ({', '.join(sorted(kinds))}); the "
            "process transport ships one packed layout per population"
        )
    return None


def build_shard_payloads(
    population: Population,
    shard_gids: list[np.ndarray],
    directory: PoolDir,
) -> list[ShardPayload]:
    """Pack ``population`` once and describe each shard's part of it.

    Buffers already backed by read-only mapped segment files (populations
    re-opened from a :class:`~repro.storage.DurableCatalog`)
    travel as windows of those files - workers map the store's bytes
    directly, no copy.  Everything else is written once into ``directory``,
    which owns the files (a failed build leaves them for its removal).
    Raises ``ValueError`` when :func:`shareable` says no.
    """
    from repro.storage.mapped import pack_population

    reason = shareable(population)
    if reason is not None:
        raise ValueError(f"population is not process-shareable: {reason}")
    packed = pack_population(population)
    if packed is None:  # fusable virtual groups: parameters travel by pickle
        meta = {"groups": population.groups, "c": population.c, "name": population.name}
        kind, refs = "virtual", {}
    else:
        kind, meta, buffers = packed
        refs = {
            role: file_backed_ref(buffer) or directory.write(buffer)
            for role, buffer in buffers.items()
        }
    return [
        ShardPayload(kind, {**meta, "groups": [meta["groups"][int(g)] for g in gids]}, refs)
        for gids in shard_gids
    ]
