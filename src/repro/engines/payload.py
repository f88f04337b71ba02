"""Worker payloads for process-parallel shard execution: buffers as files.

The process shard executor (:mod:`repro.engines.procpool`) gives every shard
a persistent worker process that owns its shard's :class:`EngineRun` and
block kernels.  Workers must see the shard's *data* - materialized value
columns, NEEDLETAIL row-store columns, bitmap words - without pickling it
through the command pipe.  One handle covers every buffer: a
:class:`FileArrayRef`, a window of a file that each worker ``mmap``\\ s.

* Buffers already in durable-store segment files (engines re-opened from a
  :class:`~repro.storage.DurableCatalog`) ship as windows of those files,
  read in place.
* Every other buffer is written once into the pool's :class:`PoolDir` with
  ``ndarray.tofile`` - raw bytes, no header, no fsync: the directory dies
  with the pool.  It lives on the ``/dev/shm`` tmpfs when that is writable
  (so the bytes stay RAM-resident, as shared memory would keep them) and in
  :func:`tempfile.gettempdir` otherwise.  The workers' output buffers are
  files in the same directory.

Cleanup is deleting the directory: the pool does it on shutdown, a
``weakref.finalize`` at interpreter exit, and - for an owner that was
SIGKILLed - the next pool any process creates, which removes every sibling
directory whose owner no longer holds its ``flock``.  :func:`live_pool_dirs`
(this process's pool directories still on disk) is the leak oracle.

Shard payloads (:func:`build_shard_payloads`) are compact, picklable
descriptions of one shard's sub-population: per-group metadata plus at most
three buffer refs per engine (one concatenated materialized-values buffer,
one concatenated bitmap-words buffer, one shared row-store value column).
Workers rebuild the sub-:class:`~repro.data.population.Population` as views
into the mapped files (:meth:`ShardPayload.build_population`) - no copies.

Not every population can cross the process boundary this way:
:func:`shareable` returns the reason a population must stay on the thread
executor (the planner surfaces it as a ``Result`` caveat).  Materialized
groups, NEEDLETAIL indexed groups whose selectors reduce to flat
:class:`~repro.needletail.bitvector.BitVector` words, and fusable virtual
groups (parameter-only distributions) all ship; rejection-sampled virtual
groups - whose draws run arbitrary Python sampler code with data-dependent
RNG consumption - and unknown third-party ``Group`` subclasses do not.
"""

from __future__ import annotations

import fcntl
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

from repro.data.distributions import Distribution
from repro.data.population import Group, MaterializedGroup, Population, VirtualGroup

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

    def write(self, array: np.ndarray) -> FileArrayRef:
        """Write ``array``'s raw bytes to a new file; returns its handle."""
        array = np.ascontiguousarray(array)
        fd, path = tempfile.mkstemp(prefix="payload-", dir=self.path)
        with os.fdopen(fd, "wb") as f:
            array.tofile(f)
        return FileArrayRef(path, array.dtype.str, tuple(array.shape), 0)

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
class _MaterializedSpec:
    """One materialized group: a slice of the shard's flat values buffer."""

    name: str
    lo: int
    hi: int


@dataclass(frozen=True)
class _IndexedSpec:
    """One NEEDLETAIL group: a word-slice of the bitmap buffer + row count."""

    name: str
    word_lo: int
    word_hi: int
    length: int


@dataclass(frozen=True)
class _VirtualSpec:
    """One fusable virtual group: distribution parameters travel by pickle."""

    name: str
    dist: Distribution
    size: int


@dataclass(frozen=True)
class ShardPayload:
    """Everything a worker needs to rebuild one shard's sub-population.

    Buffer files are owned by the pool (or the durable store), never by the
    payload: a worker's mappings are closed by the garbage collector and
    unlink nothing.
    """

    population_name: str
    c: float
    groups: tuple
    values_flat: FileArrayRef | None = None
    bitmap_words: FileArrayRef | None = None
    value_column: FileArrayRef | None = None

    def build_population(self) -> Population:
        """Reconstruct the sub-population as zero-copy views (worker side)."""
        from repro.needletail.bitvector import BitVector
        from repro.needletail.engine import IndexedGroup

        values_flat, words_flat, value_column = (
            None if ref is None else ref.map()
            for ref in (self.values_flat, self.bitmap_words, self.value_column)
        )
        groups: list[Group] = []
        for spec in self.groups:
            if isinstance(spec, _MaterializedSpec):
                groups.append(MaterializedGroup(spec.name, values_flat[spec.lo : spec.hi]))
            elif isinstance(spec, _IndexedSpec):
                selector = BitVector(
                    words_flat[spec.word_lo : spec.word_hi], spec.length
                )
                groups.append(IndexedGroup(spec.name, selector, value_column))
            elif isinstance(spec, _VirtualSpec):
                groups.append(VirtualGroup(spec.name, spec.dist, spec.size))
            else:  # pragma: no cover - payloads are built by this module only
                raise TypeError(f"unknown shard group spec {type(spec).__name__}")
        return Population(groups=groups, c=self.c, name=self.population_name)


def shareable(population: Population) -> str | None:
    """Why ``population`` cannot cross into worker processes (None = it can).

    The process executor ships buffers as files and rebuilds
    samplers from compact parameter specs; see the module docstring for the
    per-kind rules.  The planner downgrades ``executor="process"`` to the
    thread fan-out when this returns a reason, surfacing it as a caveat.
    """
    from repro.needletail.engine import IndexedGroup, base_bitvector

    for group in population.groups:
        if isinstance(group, MaterializedGroup):
            continue
        if isinstance(group, IndexedGroup):
            if base_bitvector(group._selector) is None:
                return (
                    f"group {group.name!r} uses a selector without flat bitmap "
                    "words, which cannot be shipped to worker processes"
                )
            continue
        if isinstance(group, VirtualGroup):
            if not group.dist.fusable:
                return (
                    f"group {group.name!r} is backed by a rejection-sampled "
                    f"distribution ({type(group.dist).__name__}), whose sampler "
                    "state cannot be rebuilt in worker processes"
                )
            continue
        return (
            f"group {group.name!r} has unknown kind {type(group).__name__}, "
            "which the process transport does not cover"
        )
    return None


def _file_windows(
    chunks: list[np.ndarray],
) -> tuple[FileArrayRef, list[int]] | None:
    """One whole-file :class:`FileArrayRef` + per-chunk element offsets.

    Succeeds only when *every* chunk is a read-only mapped window of the
    same segment file (see :func:`file_backed_ref`) - then one flat mapping
    spanning all windows replaces the concatenated copy, and the returned
    offsets index each chunk inside it.  Returns None (caller falls back to
    writing a concatenated pool file) otherwise.
    """
    refs = []
    for chunk in chunks:
        ref = file_backed_ref(chunk)
        if ref is None or len(ref.shape) != 1:
            return None
        refs.append(ref)
    if len({ref.path for ref in refs}) != 1 or len({ref.dtype for ref in refs}) != 1:
        return None
    itemsize = np.dtype(refs[0].dtype).itemsize
    base = min(ref.offset for ref in refs)
    end = max(ref.offset + ref.shape[0] * itemsize for ref in refs)
    if any((ref.offset - base) % itemsize for ref in refs):
        return None
    whole = FileArrayRef(
        path=refs[0].path,
        dtype=refs[0].dtype,
        shape=((end - base) // itemsize,),
        offset=base,
    )
    return whole, [(ref.offset - base) // itemsize for ref in refs]


def build_shard_payloads(
    population: Population,
    shard_gids: list[np.ndarray],
    directory: PoolDir,
) -> list[ShardPayload]:
    """Describe a population's buffers for workers, one payload per shard.

    Buffers already backed by read-only mapped segment files (populations
    and indexes re-opened from a :class:`~repro.storage.DurableCatalog`)
    travel as windows of those files - workers map the store's bytes
    directly, no copy.  Everything else is written once into ``directory``,
    which owns the files (a failed build leaves them for its removal).
    Raises ``ValueError`` when :func:`shareable` says no.
    """
    from repro.needletail.engine import IndexedGroup, base_bitvector

    reason = shareable(population)
    if reason is not None:
        raise ValueError(f"population is not process-shareable: {reason}")

    # The NEEDLETAIL row-store value column is shared by every group of an
    # engine; ship each distinct array once, across all shards.
    column_refs: dict[int, FileArrayRef] = {}

    def column_ref(column: np.ndarray) -> FileArrayRef:
        if id(column) not in column_refs:
            values = np.asarray(column, dtype=np.float64)
            column_refs[id(column)] = file_backed_ref(values) or directory.write(values)
        return column_refs[id(column)]

    payloads = []
    for gids in shard_gids:
        groups = [population.groups[int(g)] for g in gids]
        specs: list = []
        mat_entries: list[tuple[int, np.ndarray]] = []  # (spec index, values)
        word_entries: list[tuple[int, np.ndarray]] = []  # (spec index, words)
        value_ref: FileArrayRef | None = None
        for group in groups:
            if isinstance(group, MaterializedGroup):
                values = np.asarray(group.values, dtype=np.float64)
                mat_entries.append((len(specs), values))
                specs.append(_MaterializedSpec(group.name, 0, values.size))
            elif isinstance(group, IndexedGroup):
                base = base_bitvector(group._selector)
                words = np.asarray(base.words)
                word_entries.append((len(specs), words))
                specs.append(_IndexedSpec(group.name, 0, words.size, len(base)))
                ref = column_ref(group._values)
                if value_ref is not None and ref != value_ref:
                    raise ValueError(
                        "groups of one shard span distinct value columns; "
                        "the process transport shares one column per shard"
                    )
                value_ref = ref
            else:  # fusable VirtualGroup (shareable() vetted the rest)
                specs.append(_VirtualSpec(group.name, group.dist, group.size))

        def place(
            entries: list[tuple[int, np.ndarray]],
        ) -> tuple[FileArrayRef | None, list[int]]:
            if not entries:
                return None, []
            mapped = _file_windows([chunk for _, chunk in entries])
            if mapped is not None:
                return mapped
            sizes = [chunk.size for _, chunk in entries]
            offsets = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(int)
            return directory.write(np.concatenate([c for _, c in entries])), list(offsets)

        values_flat, mat_offs = place(mat_entries)
        bitmap_words, word_offs = place(word_entries)
        for (i, values), off in zip(mat_entries, mat_offs):
            spec = specs[i]
            specs[i] = _MaterializedSpec(spec.name, int(off), int(off) + values.size)
        for (i, words), off in zip(word_entries, word_offs):
            spec = specs[i]
            specs[i] = _IndexedSpec(
                spec.name, int(off), int(off) + words.size, spec.length
            )
        payloads.append(
            ShardPayload(
                population_name=population.name,
                c=population.c,
                groups=tuple(specs),
                values_flat=values_flat,
                bitmap_words=bitmap_words,
                value_column=value_ref,
            )
        )
    return payloads
