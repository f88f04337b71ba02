"""Window definitions for continuous queries.

A :class:`WindowSpec` carves an unbounded chunk stream into half-open
windows ``[start, start + size)`` and is the only piece of the streaming
package that the one-shot layers (``QuerySpec``, the wire format) need to
know about, so this module stays dependency-light: numpy only, no session
or planner imports.

Two domains:

* **Row-count windows** (``on=None``): ``size`` / ``every`` count rows in
  arrival order.  Window *i* covers global row indices
  ``[i * every, i * every + size)``.  Row numbers are assigned by the
  runner as chunks arrive, so row windows close deterministically and can
  never see late data.
* **Time windows** (``on="col"``): ``size`` / ``every`` are measured in
  the units of a numeric column.  The grid is anchored at ``origin`` and
  rows *before* the origin are rejected loudly (a silent negative window
  would otherwise swallow them).  Completeness is tracked by a
  *watermark*: ``max(t seen) - allowed_lateness``.  A window closes once
  the watermark passes its end; rows that arrive for an already-closed
  window are handled per the ``late`` policy (``drop`` / ``recompute`` /
  ``error``).

``every`` defaults to ``size`` (tumbling).  ``every < size`` slides;
``every > size`` would leave gaps that silently drop rows and is
rejected.  When ``size`` is an exact multiple of ``every`` the stream
decomposes into disjoint *panes* of width ``every`` and each window is a
run of ``size/every`` consecutive panes — the property the runner's
warm-start reuse is built on.  The canonical row order of a window is
**pane-major**: panes in grid order, arrival order within each pane.  For
tumbling windows (one pane) that is plain arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LATE_POLICIES", "WindowSpec"]

LATE_POLICIES = ("drop", "recompute", "error")

# Tolerance for "size is an exact multiple of every" on float time grids.
_PANE_EPS = 1e-9


@dataclass(frozen=True)
class WindowSpec:
    """How to slice a stream into windows.

    Args:
        size: window width — rows (``on=None``) or time units.
        every: stride between window starts; ``None`` means tumbling
            (``every == size``).  Must satisfy ``0 < every <= size``.
        on: numeric column carrying event time; ``None`` selects
            row-count windows.
        late: what to do with rows whose every window already closed:
            ``"drop"`` (count and discard), ``"recompute"`` (re-append
            and re-emit a revised ``WindowResult``) or ``"error"``
            (raise ``LateDataError``).  Time windows only.
        allowed_lateness: slack subtracted from the max time seen before
            closing windows (the watermark).  Time windows only.
        origin: grid anchor for time windows; rows with ``t < origin``
            are rejected.
    """

    size: float
    every: float | None = None
    on: str | None = None
    late: str = "drop"
    allowed_lateness: float = 0.0
    origin: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.size, (int, float)) or isinstance(self.size, bool):
            raise TypeError(f"window size must be a number, got {self.size!r}")
        if self.size <= 0:
            raise ValueError(f"window size must be > 0, got {self.size!r}")
        if self.every is not None:
            if not isinstance(self.every, (int, float)) or isinstance(self.every, bool):
                raise TypeError(f"window every must be a number, got {self.every!r}")
            if self.every <= 0:
                raise ValueError(f"window every must be > 0, got {self.every!r}")
            if self.every > self.size:
                raise ValueError(
                    f"window every ({self.every!r}) > size ({self.size!r}) would leave "
                    "gaps between windows and silently drop the rows that land there"
                )
        if self.on is not None and not isinstance(self.on, str):
            raise TypeError(f"window on= must be a column name, got {self.on!r}")
        if self.late not in LATE_POLICIES:
            raise ValueError(
                f"unknown late policy {self.late!r}; expected one of {LATE_POLICIES}"
            )
        if self.allowed_lateness < 0:
            raise ValueError(
                f"allowed_lateness must be >= 0, got {self.allowed_lateness!r}"
            )
        if self.on is None:
            for name, value in (("size", self.size), ("every", self.every)):
                if value is not None and float(value) != int(value):
                    raise ValueError(
                        f"row-count windows need integer {name}, got {value!r}"
                    )
            if self.allowed_lateness != 0:
                raise ValueError(
                    "allowed_lateness only applies to time windows (on=...); "
                    "row-count windows are assigned in arrival order and are "
                    "never late"
                )
            if self.late != "drop":
                raise ValueError(
                    f"late={self.late!r} only applies to time windows (on=...); "
                    "row-count windows close deterministically and never see "
                    "late rows"
                )
            if self.origin != 0:
                raise ValueError("origin only applies to time windows (on=...)")

    # -- derived geometry ------------------------------------------------

    @property
    def stride(self) -> float:
        """Distance between consecutive window starts (``every`` or ``size``)."""
        return self.size if self.every is None else self.every

    @property
    def sliding(self) -> bool:
        return self.stride < self.size

    @property
    def by_time(self) -> bool:
        return self.on is not None

    @property
    def panes_per_window(self) -> int | None:
        """Number of ``stride``-wide panes per window, or None if the
        stride does not evenly divide the size (no pane decomposition)."""
        ratio = self.size / self.stride
        n = round(ratio)
        if abs(ratio - n) > _PANE_EPS:
            return None
        return int(n)

    def bounds(self, index: int) -> tuple[float, float]:
        """``[start, end)`` of window ``index`` on the grid."""
        if index < 0:
            raise ValueError(f"window index must be >= 0, got {index}")
        start = self.origin + index * self.stride
        return (start, start + self.size)

    def assign(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Window index range ``[lo, hi]`` (inclusive) for each value.

        ``values`` are event times (time windows) or global row indices
        (row windows).  Each value belongs to windows ``lo..hi``; for
        tumbling windows ``lo == hi``.  Indices are clamped at 0 — the
        grid starts at the origin, so the leading windows of a sliding
        stream see fewer rows than ``size``.
        """
        v = np.asarray(values, dtype=np.float64)
        if v.size and float(v.min()) < self.origin:
            bad = float(v.min())
            raise ValueError(
                f"value {bad!r} in window column precedes the grid origin "
                f"({self.origin!r}); shift origin= or filter the stream"
            )
        rel = v - self.origin
        hi = np.floor(rel / self.stride).astype(np.int64)
        lo = (np.floor((rel - self.size) / self.stride) + 1).astype(np.int64)
        np.maximum(lo, 0, out=lo)
        return lo, hi

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "every": self.every,
            "on": self.on,
            "late": self.late,
            "allowed_lateness": self.allowed_lateness,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowSpec":
        if not isinstance(payload, dict):
            raise TypeError(f"window payload must be a dict, got {payload!r}")
        known = {"size", "every", "on", "late", "allowed_lateness", "origin"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown window keys: {sorted(unknown)}")
        if "size" not in payload:
            raise ValueError("window payload needs a size")
        return cls(
            size=payload["size"],
            every=payload.get("every"),
            on=payload.get("on"),
            late=payload.get("late", "drop"),
            allowed_lateness=payload.get("allowed_lateness", 0.0),
            origin=payload.get("origin", 0.0),
        )
