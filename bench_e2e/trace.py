"""The benchmark's own span recorder (spans inside ``repro`` are a later issue).

A span is ``(id, name, start, end, parent, op)``: ``parent`` is the span that
was open on the same thread when this one started, ``op`` identifies the
workload op the span belongs to.  Spans and counts stay in memory and are
written out once, at exit.  Self time = a span's duration minus the part of
it its direct children cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time


class _Span:
    """One open span; a plain class because a generator-based context
    manager costs several times more per span than the bookkeeping itself."""

    __slots__ = ("_stack", "_record")

    def __init__(self, stack: list, record: dict) -> None:
        self._stack = stack
        self._record = record

    def __enter__(self) -> dict:
        self._stack.append(self._record)
        self._record["start"] = time.perf_counter()
        return self._record

    def __exit__(self, *exc_info) -> None:
        self._record["end"] = time.perf_counter()
        self._stack.pop()


_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """Records spans and counts; ``Tracer(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def span(self, name: str, op=None):
        """Context manager timing one public call into a layer."""
        if not self.enabled:
            return _NO_SPAN
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        record = {
            "id": next(self._ids),  # atomic, also across client threads
            "name": name, "op": op,
            "parent": stack[-1]["id"] if stack else None,
            "start": None, "end": None,
        }
        self.spans.append(record)
        return _Span(stack, record)

    def record(self, name: str, start: float, end: float, op=None) -> None:
        """Add a span timed elsewhere (``perf_counter`` readings)."""
        if self.enabled:
            self.spans.append({
                "id": next(self._ids), "name": name, "op": op,
                "parent": None, "start": start, "end": end,
            })

    def count(self, name: str, value: float, op=None) -> None:
        """Record a count taken at the same boundary as a span."""
        if self.enabled:
            self.counts.append({"name": name, "value": value, "op": op})

    def best(self, name: str) -> float:
        """Seconds: the fastest span of each op, then the median over ops.

        The rule of the end-to-end latencies (``stats.per_op_best``) applied
        to a layer: replays of one op keep their fastest, distinct ops keep
        their differences.  Spans without an op id are replays of one call.
        Returns 0.0 when no span of that name finished.
        """
        fastest: dict = {}
        for s in self.spans:
            if s["name"] == name and s["end"] is not None:
                took = s["end"] - s["start"]
                fastest[s["op"]] = min(took, fastest.get(s["op"], took))
        return statistics.median(fastest.values()) if fastest else 0.0

    def values(self, name: str) -> list[float]:
        return [c["value"] for c in self.counts if c["name"] == name]

    def dump(self, path: str, **header) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "spans": self.spans,
                    "counts": self.counts,
                    "self_seconds": {str(k): v for k, v in self_times(self.spans).items()},
                },
                fh,
            )


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus what its direct children cover.

    Children of one parent on one thread never overlap (they nest on a
    stack), so the covered part is the sum of their durations.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans if s["end"] is not None}
    for s in spans:
        if s["end"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


#: The tracer of every untraced round.
OFF = Tracer(enabled=False)
