"""The window runner: re-running the guarantee machinery per window.

:class:`WindowRunner` consumes chunks from any
:class:`~repro.catalog.source.DataSource` (primarily
:class:`~repro.catalog.source.IteratorSource`), assigns rows to the
windows of a :class:`~repro.streaming.window.WindowSpec`, and evaluates
the query once per window through the *existing* planner - so every
engine, guarantee mode, shard fan-out, deadline and retry knob works
unchanged inside a window.

Lifecycle of one window:

1. **accumulating** - chunks arrive; rows land in the window's panes
   (``stride``-wide disjoint slices of the stream) or, when the stride
   does not divide the size, directly in per-window buffers.
2. **evaluating** - the window's data is complete (watermark passed its
   end, or end of stream): the rows are materialized as a single-table
   catalog and the spec (window stripped) runs through
   :func:`~repro.session.planner.stream_spec`.  Per-group
   :class:`~repro.session.result.PartialUpdate`\\ s surface as
   :class:`WindowUpdate` events while sampling runs.
3. **closed** - a :class:`WindowResult` (the
   :class:`~repro.session.result.Result` plus bounds, watermark and
   lateness accounting) is emitted.

Determinism: window *i* runs with seed ``seed + i`` over its rows in
canonical (pane-major) order, so a closed tumbling window's result is
bit-identical to a one-shot query over exactly those rows with that
seed - the correctness anchor the test suite pins.

Warm start (sliding windows): when a window is a run of panes and the
query is a single-group-by, no-WHERE, population-engine workload, each
pane's grouped value arrays are cached at first use and successor
windows assemble their population by concatenating pane groups instead
of re-sorting the whole overlap.  Because the catalog's cold build is
one *stable* argsort (original row order preserved within groups) and
the canonical window order is pane-major, the assembled population is
bit-identical to a cold build - it is pre-seeded into the per-window
catalog via :meth:`~repro.catalog.Catalog.seed_population` and the
planner never notices the difference.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.catalog import Catalog, TableSource
from repro.data.population import MaterializedGroup, Population, split_by_key
from repro.errors import QueryCancelled, ReproError
from repro.resilience.deadline import Deadline
from repro.session.planner import execute_spec, stream_spec
from repro.session.result import PartialUpdate, Result
from repro.session.spec import QuerySpec
from repro.streaming.window import WindowSpec

__all__ = [
    "LateDataError",
    "WindowBounds",
    "WindowUpdate",
    "WindowResult",
    "WindowRunner",
]


class LateDataError(ReproError):
    """A row arrived for an already-closed window under ``late="error"``."""


@dataclass(frozen=True)
class WindowBounds:
    """One window's position on the grid: ``[start, end)`` at ``index``."""

    index: int
    start: float
    end: float

    def to_dict(self) -> dict:
        return {"index": self.index, "start": self.start, "end": self.end}


@dataclass(frozen=True)
class WindowUpdate:
    """A per-group :class:`PartialUpdate` tagged with its window."""

    window: WindowBounds
    update: PartialUpdate

    def to_dict(self) -> dict:
        return {"window": self.window.to_dict(), "update": self.update.to_dict()}


@dataclass(frozen=True)
class WindowResult:
    """A closed window: its :class:`Result` plus streaming accounting.

    Attributes:
        window: grid position of the window.
        result: the unified query result, or ``None`` for an empty window
            (no rows landed in ``[start, end)`` before it closed).
        rows: number of rows the window was evaluated over.
        seed: the per-window seed (``query seed + window index``); replaying
            a one-shot query over the same rows with this seed reproduces
            ``result`` bit-for-bit.
        watermark: completeness marker at close time - ``max(t) -
            allowed_lateness`` for time windows, rows seen for row windows.
        late_rows: late rows incorporated into this emission (only non-zero
            on ``late="recompute"`` revisions).
        revision: 0 for the first emission; incremented each time a late
            chunk triggers a recompute of this window.
        closed_by: ``"watermark"`` (time), ``"row_count"`` (row windows),
            ``"end_of_stream"`` (finite source exhausted) or
            ``"late_recompute"`` (revised emission).
        warm_start: True when the population was assembled from cached
            panes of overlapping predecessor windows (bit-identical to a
            cold build by construction).
        elapsed_seconds: wall-clock spent evaluating the window.
    """

    window: WindowBounds
    result: Result | None
    rows: int
    seed: int | None
    watermark: float | None
    late_rows: int = 0
    revision: int = 0
    closed_by: str = "watermark"
    warm_start: bool = False
    elapsed_seconds: float = 0.0

    @property
    def empty(self) -> bool:
        return self.result is None

    def to_dict(self) -> dict:
        return {
            "window": self.window.to_dict(),
            "result": self.result.to_dict() if self.result is not None else None,
            "rows": self.rows,
            "seed": self.seed,
            "watermark": self.watermark,
            "late_rows": self.late_rows,
            "revision": self.revision,
            "closed_by": self.closed_by,
            "warm_start": self.warm_start,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class _Pane:
    """One stride-wide slice of the stream, buffered column-wise."""

    cols: dict[str, list[np.ndarray]] = field(default_factory=dict)
    rows: int = 0
    # value_col -> (raw-key -> float64 values in arrival order, pane max)
    grouped: dict[str, tuple[dict, float]] = field(default_factory=dict)

    def append(self, chunk: dict, mask: np.ndarray, columns: tuple[str, ...]) -> int:
        n = int(mask.sum())
        if n == 0:
            return 0
        for col in columns:
            self.cols.setdefault(col, []).append(np.asarray(chunk[col])[mask])
        self.rows += n
        self.grouped.clear()  # new rows invalidate the grouped cache
        return n

    def concat(self, col: str) -> np.ndarray:
        parts = self.cols[col]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class WindowRunner:
    """Evaluate a windowed :class:`QuerySpec` over a catalog source.

    Args:
        spec: a spec with ``spec.window`` set.  Everything except the
            window is evaluated per window through the normal planner.
        catalog: the catalog holding ``spec.table`` (a snapshot is fine;
            the runner scans the source exactly once).
        seed: base RNG seed; window *i* samples with ``seed + i``.
        warm_start: allow sliding windows to reuse cached pane groupings
            from overlapping predecessors (bit-identical; see module doc).
        max_windows: stop after emitting this many closed windows
            (revisions not counted) - the natural bound for demos over
            unbounded sources.
        emit_updates: emit per-group :class:`WindowUpdate` events while a
            window evaluates; False skips them (results only).
        runner_kwargs: forwarded to the planner (``trace_every``, ...).
        checkpoint: best-effort durability sink - called with a small state
            dict (``emissions``, watermark, counters) at every emission, so
            a restarted run can resume where this one stopped.  Exceptions
            from the sink are swallowed: checkpointing must never fail the
            stream.
        resume_emissions: resume support - suppress the first N emission
            events (they were already delivered by a previous process).
            The source is replayed from the start and every piece of
            bookkeeping still runs (watermarks, late counters, pane
            release, ``max_windows`` math), but suppressed windows skip
            planner evaluation and are not yielded, so the remaining
            emissions come out bit-identical to an uninterrupted run
            (per-window seed stays ``seed + index``).
    """

    def __init__(
        self,
        spec: QuerySpec,
        catalog: Catalog,
        *,
        seed: int | None = None,
        warm_start: bool = True,
        max_windows: int | None = None,
        emit_updates: bool = True,
        runner_kwargs: dict | None = None,
        checkpoint=None,
        resume_emissions: int = 0,
    ) -> None:
        if spec.window is None:
            raise ValueError(
                "spec has no window; WindowRunner needs a windowed spec "
                "(QueryBuilder.window(...) or QuerySpec(window=...))"
            )
        if max_windows is not None and int(max_windows) < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        if int(resume_emissions) < 0:
            raise ValueError(
                f"resume_emissions must be >= 0, got {resume_emissions}"
            )
        self._checkpoint = checkpoint
        self._skip = int(resume_emissions)
        self._emissions = 0
        self._spec = spec
        self._window: WindowSpec = spec.window
        self._inner = replace(spec, window=None)
        self._catalog = catalog
        self._seed = seed
        self._max_windows = max_windows
        self._emit_updates = emit_updates
        self._runner_kwargs = dict(runner_kwargs or {})

        if spec.table not in catalog:
            raise KeyError(
                f"unknown table {spec.table!r}; catalog has {sorted(catalog.names)}"
            )
        schema = catalog.schema(spec.table)
        w = self._window
        cols = list(spec.scan_columns())
        if w.by_time:
            if w.on not in schema:
                raise KeyError(
                    f"window column {w.on!r} is not in table {spec.table!r}"
                )
            if not schema.is_numeric(w.on):
                raise ValueError(
                    f"window column {w.on!r} must be numeric (event time)"
                )
            if w.on not in cols:
                cols.append(w.on)
        self._columns: tuple[str, ...] = tuple(cols)

        # Pane decomposition: possible iff the stride divides the size.
        self._panes_per_window = w.panes_per_window
        self._panes: dict[int, _Pane] = {}
        self._buffers: dict[int, _Pane] = {}  # direct mode: one _Pane per window

        self._warm = bool(
            warm_start
            and w.sliding
            and self._panes_per_window is not None
            and len(spec.group_by) == 1
            and spec.where is None
            and spec.engine == "memory"
            and all(
                a.func in ("AVG", "SUM") and a.column != "*"
                for a in spec.aggregates
            )
        )
        self._value_cols = tuple(
            dict.fromkeys(a.column for a in spec.aggregates if a.column != "*")
        )

        self._started = False
        self._closed_below = 0  # first window index not yet closed
        self._rows_seen = 0
        self._watermark: float | None = None
        self._windows_emitted = 0
        self._revisions = 0
        self._late_dropped = 0
        self._late_recomputed = 0
        self._done = False
        self._cancelled = threading.Event()
        self._active_deadline: Deadline | None = None
        # closed-window accounting, kept only under late="recompute"
        self._closed_info: dict[int, dict] = {}

    # -- public surface ---------------------------------------------------

    def cancel(self) -> None:
        """Stop the run: takes effect at the next chunk/window boundary and
        interrupts the in-flight window's sampling via its deadline token."""
        self._cancelled.set()
        deadline = self._active_deadline
        if deadline is not None:
            deadline.cancel()

    def stats(self) -> dict:
        """Live accounting: rows/windows/late counters for /stats surfaces."""
        return {
            "rows_seen": self._rows_seen,
            "windows_emitted": self._windows_emitted,
            "revisions": self._revisions,
            "late_dropped": self._late_dropped,
            "late_recomputed": self._late_recomputed,
            "watermark": self._watermark,
            "emissions": self._emissions,
        }

    def run(self) -> Iterator[WindowUpdate | WindowResult]:
        """Consume the source once, yielding window events in close order.

        Raises :class:`~repro.errors.QueryCancelled` after :meth:`cancel`
        and :class:`LateDataError` under ``late="error"``.
        """
        w = self._window
        source = self._catalog.source(self._spec.table)
        for chunk in source.scan(columns=self._columns):
            self._check_cancel()
            first = chunk[self._columns[0]]
            if len(first) == 0:
                continue
            if w.by_time:
                yield from self._ingest_time(chunk)
            else:
                yield from self._ingest_rows(chunk)
            if self._done:
                return
        yield from self._flush()

    # -- ingestion --------------------------------------------------------

    def _check_cancel(self) -> None:
        if self._cancelled.is_set():
            raise QueryCancelled("continuous query cancelled")

    def _ingest_time(self, chunk: dict) -> Iterator[WindowUpdate | WindowResult]:
        w = self._window
        values = np.asarray(chunk[w.on], dtype=np.float64)
        lo, hi = w.assign(values)
        if not self._started:
            # Anchor emission at the first window that can hold data: the
            # grid is unchanged, but leading empty windows are not emitted.
            self._started = True
            self._closed_below = int(lo.min())
        late_windows = self._handle_late(chunk, lo, hi)
        on_time = hi >= self._closed_below
        self._append(chunk, lo, hi, on_time)
        self._rows_seen += int(on_time.sum())
        wm = float(values.max()) - w.allowed_lateness
        if self._watermark is None or wm > self._watermark:
            self._watermark = wm
        for idx in late_windows:  # recompute policy: re-emit revised windows
            yield from self._close_window(idx, closed_by="late_recompute")
            if self._done:
                return
        while True:
            _, end = w.bounds(self._closed_below)
            if self._watermark is None or end > self._watermark:
                break
            yield from self._close_window(self._closed_below, closed_by="watermark")
            self._closed_below += 1
            self._release_panes()
            if self._done:
                return

    def _ingest_rows(self, chunk: dict) -> Iterator[WindowUpdate | WindowResult]:
        w = self._window
        n = len(chunk[self._columns[0]])
        values = np.arange(self._rows_seen, self._rows_seen + n, dtype=np.float64)
        lo, hi = w.assign(values)
        self._started = True
        self._append(chunk, lo, hi, np.ones(n, dtype=bool))
        self._rows_seen += n
        self._watermark = float(self._rows_seen)
        while True:
            _, end = w.bounds(self._closed_below)
            if end > self._rows_seen:
                break
            yield from self._close_window(self._closed_below, closed_by="row_count")
            self._closed_below += 1
            self._release_panes()
            if self._done:
                return

    def _handle_late(
        self, chunk: dict, lo: np.ndarray, hi: np.ndarray
    ) -> list[int]:
        """Apply the late policy; returns closed windows to re-emit."""
        w = self._window
        cb = self._closed_below
        touches_closed = lo < cb
        if not touches_closed.any():
            return []
        fully_late = hi < cb
        if w.late == "error":
            t = float(np.asarray(chunk[w.on], dtype=np.float64)[touches_closed][0])
            raise LateDataError(
                f"row with {w.on}={t:g} targets a window that closed at "
                f"watermark {self._watermark:g} (late=\"error\"); widen "
                "allowed_lateness or switch to late=\"drop\"/\"recompute\""
            )
        if w.late == "drop":
            # Fully-late rows vanish (counted); rows that still have an open
            # window keep flowing into it via the normal append.
            self._late_dropped += int(fully_late.sum())
            return []
        # recompute: late rows are appended to their (closed) windows too and
        # each touched closed window is re-emitted as a revision.
        touched: set[int] = set()
        for i in np.nonzero(touches_closed)[0]:
            for idx in range(int(lo[i]), min(int(hi[i]) + 1, cb)):
                if idx in self._closed_info:
                    touched.add(idx)
                    self._closed_info[idx]["late_rows"] += 1
        self._late_recomputed += int(touches_closed.sum())
        return sorted(touched)

    def _append(
        self, chunk: dict, lo: np.ndarray, hi: np.ndarray, keep: np.ndarray
    ) -> None:
        """Buffer chunk rows - by pane when the grid decomposes, else per
        window.  Under late="recompute" closed windows keep their buffers
        and late rows flow back into them (keep masks only fully-dropped
        rows)."""
        recompute = self._window.late == "recompute"
        if self._panes_per_window is not None:
            live = keep if not recompute else np.ones(len(hi), dtype=bool)
            for pane_idx in np.unique(hi[live]):
                mask = live & (hi == pane_idx)
                pane = self._panes.setdefault(int(pane_idx), _Pane())
                pane.append(chunk, mask, self._columns)
            return
        lo_eff = lo if recompute else np.maximum(lo, self._closed_below)
        live = hi >= lo_eff
        if not recompute:
            live &= keep
        if not live.any():
            return
        span_lo = int(lo_eff[live].min())
        span_hi = int(hi[live].max())
        for idx in range(span_lo, span_hi + 1):
            mask = live & (lo_eff <= idx) & (idx <= hi)
            if mask.any():
                buf = self._buffers.setdefault(idx, _Pane())
                buf.append(chunk, mask, self._columns)

    def _release_panes(self) -> None:
        """Free buffers no window will read again (late != recompute)."""
        if self._window.late == "recompute":
            return
        cb = self._closed_below
        if self._panes_per_window is not None:
            for idx in [p for p in self._panes if p < cb]:
                del self._panes[idx]
        else:
            for idx in [i for i in self._buffers if i < cb]:
                del self._buffers[idx]

    def _flush(self) -> Iterator[WindowUpdate | WindowResult]:
        """End of stream: a finite scan means the data is complete, so every
        window up to the last one holding rows closes now."""
        if not self._started:
            return
        store = self._panes if self._panes_per_window is not None else self._buffers
        with_rows = [i for i, b in store.items() if b.rows]
        if not with_rows:
            return
        last = max(with_rows)
        for idx in range(self._closed_below, last + 1):
            self._check_cancel()
            yield from self._close_window(idx, closed_by="end_of_stream")
            self._closed_below = idx + 1
            self._release_panes()
            if self._done:
                return

    # -- evaluation -------------------------------------------------------

    def _window_rows(self, idx: int) -> dict[str, np.ndarray] | None:
        """The window's columns in canonical (pane-major) order."""
        if self._panes_per_window is not None:
            panes = [
                self._panes[p]
                for p in range(idx, idx + self._panes_per_window)
                if p in self._panes and self._panes[p].rows
            ]
            if not panes:
                return None
            return {
                col: np.concatenate([p.concat(col) for p in panes])
                if len(panes) > 1
                else panes[0].concat(col)
                for col in self._columns
            }
        buf = self._buffers.get(idx)
        if buf is None or not buf.rows:
            return None
        return {col: buf.concat(col) for col in self._columns}

    def _pane_grouped(self, pane: _Pane, group_col: str, value_col: str):
        cached = pane.grouped.get(value_col)
        if cached is not None:
            return cached
        values = np.asarray(pane.concat(value_col), dtype=np.float64)
        by_key = dict(zip(*split_by_key(pane.concat(group_col), values)))
        entry = (by_key, float(values.max()))
        pane.grouped[value_col] = entry
        return entry

    def _warm_population(self, idx: int, group_col: str, value_col: str):
        """Assemble the window's population from cached pane groupings.

        Bit-identical to :func:`~repro.data.population.population_from_chunks`
        over the window's canonical rows: the cold build's stable argsort
        keeps arrival order within each group, which is exactly pane-major
        concatenation of the per-pane (stable-sorted) group chunks.
        """
        merged: dict = {}
        maxes: list[float] = []
        for p in range(idx, idx + self._panes_per_window):
            pane = self._panes.get(p)
            if pane is None or not pane.rows:
                continue
            by_key, pane_max = self._pane_grouped(pane, group_col, value_col)
            maxes.append(pane_max)
            for key, arr in by_key.items():
                merged.setdefault(key, []).append(arr)
        if not merged:
            return None
        if self._spec.value_bound is not None:
            c = float(self._spec.value_bound)
        else:
            c = max(max(maxes), 1e-9)
        groups = [
            MaterializedGroup(
                str(key),
                merged[key][0]
                if len(merged[key]) == 1
                else np.concatenate(merged[key]),
            )
            for key in sorted(merged)
        ]
        return Population(groups=groups, c=c, name=self._spec.table)

    def _close_window(
        self, idx: int, *, closed_by: str
    ) -> Iterator[WindowUpdate | WindowResult]:
        self._check_cancel()
        w = self._window
        start, end = w.bounds(idx)
        bounds = WindowBounds(index=idx, start=start, end=end)
        info = self._closed_info.get(idx)
        revision = 0
        late_rows = 0
        if info is not None:
            info["revision"] += 1
            revision = info["revision"]
            late_rows = info["late_rows"]
            self._revisions += 1
        elif w.late == "recompute":
            self._closed_info[idx] = {"revision": 0, "late_rows": 0}

        if self._skip > 0:
            # Resuming from a checkpoint: this emission was already
            # delivered by a previous process.  Count it (so max_windows
            # and the next checkpoint line up) but skip evaluation and the
            # yield entirely.
            self._skip -= 1
            self._count_emission(revision)
            return

        began = time.perf_counter()
        rows = self._window_rows(idx)
        if rows is None:
            yield self._emit(
                WindowResult(
                    window=bounds,
                    result=None,
                    rows=0,
                    seed=self._window_seed(idx),
                    watermark=self._watermark,
                    late_rows=late_rows,
                    revision=revision,
                    closed_by=closed_by,
                    elapsed_seconds=time.perf_counter() - began,
                ),
                revision,
            )
            return

        n_rows = int(len(rows[self._columns[0]]))
        catalog = Catalog()
        catalog.register(self._spec.table, TableSource(rows, name=self._spec.table))
        warm = False
        if self._warm:
            group_col = self._spec.group_by[0]
            for value_col in self._value_cols:
                population = self._warm_population(idx, group_col, value_col)
                if population is None:
                    continue
                catalog.seed_population(
                    self._spec.table,
                    group_col,
                    value_col,
                    population,
                    predicate=None,
                    value_bound=self._spec.value_bound,
                )
                warm = True

        seed = self._window_seed(idx)
        deadline = (
            Deadline.after_ms(self._spec.deadline_ms)
            if self._spec.deadline_ms is not None
            else Deadline()
        )
        self._active_deadline = deadline
        try:
            if self._emit_updates:
                # Same code path as Session.stream: live per-group updates,
                # then the assembled result.
                stream = stream_spec(
                    self._inner,
                    catalog,
                    seed=seed,
                    runner_kwargs=self._runner_kwargs,
                    deadline=deadline,
                )
                for update in stream:
                    yield WindowUpdate(window=bounds, update=update)
                result = stream.result
            else:
                # Same code path as Session.execute - the bit-identity
                # anchor the tumbling-window tests pin.
                result = execute_spec(
                    self._inner,
                    catalog,
                    seed=seed,
                    runner_kwargs=self._runner_kwargs,
                    deadline=deadline,
                )
        finally:
            self._active_deadline = None
            # The window's catalog dies with the window: shut its fan-out
            # down now so a sharded subscription holds one pool at a time.
            catalog.close()
        self._check_cancel()
        yield self._emit(
            WindowResult(
                window=bounds,
                result=result,
                rows=n_rows,
                seed=seed,
                watermark=self._watermark,
                late_rows=late_rows,
                revision=revision,
                closed_by=closed_by,
                warm_start=warm,
                elapsed_seconds=time.perf_counter() - began,
            ),
            revision,
        )

    def _emit(self, result: WindowResult, revision: int) -> WindowResult:
        self._count_emission(revision)
        self._write_checkpoint()
        return result

    def _count_emission(self, revision: int) -> None:
        self._emissions += 1
        if revision == 0:
            self._windows_emitted += 1
            if (
                self._max_windows is not None
                and self._windows_emitted >= self._max_windows
            ):
                self._done = True

    def _write_checkpoint(self) -> None:
        if self._checkpoint is None:
            return
        try:
            self._checkpoint(
                {
                    "emissions": self._emissions,
                    "closed_below": self._closed_below,
                    "rows_seen": self._rows_seen,
                    "watermark": self._watermark,
                    "windows_emitted": self._windows_emitted,
                    "revisions": self._revisions,
                    "late_dropped": self._late_dropped,
                    "late_recomputed": self._late_recomputed,
                }
            )
        except Exception:
            # Checkpointing is a durability aid, never a correctness
            # dependency: a failing sink must not kill a healthy stream.
            pass

    def _window_seed(self, idx: int) -> int | None:
        return None if self._seed is None else int(self._seed) + idx
