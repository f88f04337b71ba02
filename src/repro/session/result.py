"""Unified result hierarchy for the Session API.

Every workload - AVG, SUM, COUNT, multi-AVG, top-t, trends, values, mistakes,
no-index, streaming - returns the same shapes:

* :class:`GroupEstimate` - one bar: estimate, confidence half-width, sample
  and finalization accounting;
* :class:`AggregateResult` - one aggregate's bars plus its raw
  :class:`~repro.core.types.OrderingResult` (the algorithm-layer record);
* :class:`Result` - the whole answer: per-aggregate results, HAVING drops,
  guarantee metadata, *caveats*, and engine accounting;
* :class:`PartialUpdate` / :class:`ResultStream` - the incremental form every
  workload supports through ``.stream()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.core.types import GroupOutcome, OrderingResult
from repro.session.spec import GuaranteeSpec, QuerySpec

__all__ = [
    "GroupEstimate",
    "AggregateResult",
    "Result",
    "PartialUpdate",
    "ResultStream",
]


@dataclass(frozen=True)
class GroupEstimate:
    """One group's (bar's) final state.

    Attributes:
        label: group label (e.g. carrier code, or "x|z" composite key).
        estimate: the returned estimate of the group's aggregate.
        half_width: confidence-interval half-width at finalization
            (0.0 when the value is exact).
        samples: number of samples charged to this group.
        exhausted: True if the group was fully read (estimate is exact).
        finalized_round: round at which the group left the active set.
    """

    label: str
    estimate: float
    half_width: float
    samples: int
    exhausted: bool
    finalized_round: int

    @property
    def interval(self) -> tuple[float, float]:
        """The confidence interval [estimate - hw, estimate + hw]."""
        return (self.estimate - self.half_width, self.estimate + self.half_width)

    @property
    def exact(self) -> bool:
        return self.exhausted or self.half_width == 0.0

    @classmethod
    def from_outcome(cls, outcome: GroupOutcome) -> "GroupEstimate":
        return cls(
            label=outcome.name,
            estimate=float(outcome.estimate),
            half_width=float(outcome.half_width),
            samples=int(outcome.samples),
            exhausted=bool(outcome.exhausted),
            finalized_round=int(outcome.finalized_round),
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "estimate": self.estimate,
            "half_width": self.half_width,
            "samples": self.samples,
            "exhausted": self.exhausted,
            "finalized_round": self.finalized_round,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroupEstimate":
        return cls(
            label=data["label"],
            estimate=float(data["estimate"]),
            half_width=float(data["half_width"]),
            samples=int(data["samples"]),
            exhausted=bool(data["exhausted"]),
            finalized_round=int(data["finalized_round"]),
        )


@dataclass
class AggregateResult:
    """One aggregate's answer: labelled estimates plus the raw algorithm run."""

    key: str
    algorithm: str
    labels: list[str]
    groups: list[GroupEstimate]
    raw: OrderingResult
    meta: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_ordering(
        cls, key: str, raw: OrderingResult, meta: dict[str, Any] | None = None
    ) -> "AggregateResult":
        groups = [GroupEstimate.from_outcome(g) for g in raw.groups]
        return cls(
            key=key,
            algorithm=raw.algorithm,
            labels=[g.label for g in groups],
            groups=groups,
            raw=raw,
            meta=dict(meta or {}),
        )

    def estimates(self) -> dict[str, float]:
        """{label: estimate} in input group order."""
        return {g.label: g.estimate for g in self.groups}

    def __getitem__(self, label: str) -> GroupEstimate:
        for g in self.groups:
            if g.label == label:
                return g
        raise KeyError(f"no group labelled {label!r} in {self.key}")

    def __iter__(self) -> Iterator[GroupEstimate]:
        return iter(self.groups)

    @property
    def total_samples(self) -> int:
        return int(self.raw.samples_per_group.sum())

    def order(self, descending: bool = False) -> list[str]:
        """Labels sorted by estimate (the certified display order)."""
        idx = np.argsort(self.raw.estimates, kind="stable")
        if descending:
            idx = idx[::-1]
        return [self.labels[int(i)] for i in idx]

    def finalization_order(self) -> list[str]:
        """Labels in the order the algorithm finalized them (Problem 7)."""
        return [self.labels[int(i)] for i in self.raw.inactive_order]

    def to_dict(self) -> dict:
        """JSON-safe dict form (the server wire format)."""
        from repro.core.types import jsonify_value

        return {
            "key": self.key,
            "algorithm": self.algorithm,
            "labels": list(self.labels),
            "groups": [g.to_dict() for g in self.groups],
            "raw": self.raw.to_dict(),
            "meta": jsonify_value(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateResult":
        return cls(
            key=data["key"],
            algorithm=data["algorithm"],
            labels=list(data["labels"]),
            groups=[GroupEstimate.from_dict(g) for g in data["groups"]],
            raw=OrderingResult.from_dict(data["raw"]),
            meta=dict(data.get("meta", {})),
        )


@dataclass
class Result:
    """The unified answer every Session query returns.

    Attributes:
        spec: the :class:`QuerySpec` that produced this result.
        labels: group labels in input order (shared by all aggregates).
        aggregates: one :class:`AggregateResult` per SELECT aggregate,
            keyed "AVG(delay)"-style.
        guarantee: the promise this result carries (delta, mode, ...).
        caveats: human-readable warnings the display layer should surface
            (e.g. HAVING filtering estimates, truncated runs).
        dropped_by_having: labels removed by the HAVING post-filter.
        engine: the sampling engine that served the query - the first AVG
            aggregate's for multi-aggregate queries (None for hand-built
            results).
        total_samples: tuples actually sampled for the whole query - rows
            shared between sampled aggregates (Problem 8: AVGs and SUMs read
            prefixes of one per-group permutation) count once: the sum over
            groups of the largest per-aggregate count.
    """

    spec: QuerySpec
    labels: list[str]
    aggregates: dict[str, AggregateResult]
    guarantee: GuaranteeSpec
    caveats: list[str] = field(default_factory=list)
    dropped_by_having: list[str] = field(default_factory=list)
    engine: Any = None
    total_samples: int = 0

    def __getitem__(self, key: str) -> AggregateResult:
        return self.aggregates[key]

    def __iter__(self) -> Iterator[AggregateResult]:
        return iter(self.aggregates.values())

    @property
    def first(self) -> AggregateResult:
        """The first (usually only) aggregate's result."""
        return next(iter(self.aggregates.values()))

    def estimates(self, key: str | None = None) -> dict[str, float]:
        """{label: estimate} for one aggregate (default: the first)."""
        agg = self.aggregates[key] if key is not None else self.first
        return agg.estimates()

    @property
    def kept_labels(self) -> list[str]:
        """Labels surviving the HAVING post-filter (input order)."""
        dropped = set(self.dropped_by_having)
        return [lbl for lbl in self.labels if lbl not in dropped]

    @property
    def deadline_exceeded(self) -> bool:
        """True when any aggregate's run stopped at its deadline.

        The estimates are still valid anytime estimates - intervals are just
        wider than the guarantee would have required (see the matching
        ``deadline_exceeded`` caveat).
        """
        return any(
            bool(a.raw.params.get("deadline_exceeded"))
            for a in self.aggregates.values()
        )

    def finalization_order(self, key: str | None = None) -> list[str]:
        agg = self.aggregates[key] if key is not None else self.first
        return agg.finalization_order()

    def summary(self) -> str:
        parts = [
            f"{k}: {a.algorithm}, {a.total_samples:,} samples"
            for k, a in self.aggregates.items()
        ]
        return f"Result({'; '.join(parts)}; {self.guarantee.describe()})"

    def to_dict(self) -> dict:
        """JSON-safe dict form: the ``repro.serve`` wire format.

        Everything a dashboard needs crosses the wire: per-group estimates
        with intervals and accounting, guarantee metadata, caveats
        (``resilience:``/``deadline_exceeded:`` events included), HAVING
        drops, and the full spec.  The live engine object does not (it is
        process-local); ``from_dict`` results carry ``engine=None`` and the
        spec's ``engine`` name identifies the substrate.
        """
        return {
            "spec": self.spec.to_dict(),
            "labels": list(self.labels),
            "aggregates": {k: a.to_dict() for k, a in self.aggregates.items()},
            "guarantee": self.guarantee.to_dict(),
            "caveats": list(self.caveats),
            "dropped_by_having": list(self.dropped_by_having),
            "total_samples": int(self.total_samples),
            "deadline_exceeded": self.deadline_exceeded,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Result":
        return cls(
            spec=QuerySpec.from_dict(data["spec"]),
            labels=list(data["labels"]),
            aggregates={
                k: AggregateResult.from_dict(a)
                for k, a in data["aggregates"].items()
            },
            guarantee=GuaranteeSpec.from_dict(data["guarantee"]),
            caveats=list(data.get("caveats", [])),
            dropped_by_having=list(data.get("dropped_by_having", [])),
            engine=None,
            total_samples=int(data.get("total_samples", 0)),
        )


@dataclass(frozen=True)
class PartialUpdate:
    """One emission of a streaming query: a group just became trustworthy.

    ``live`` distinguishes true incremental emission (the group finalized
    while others are still sampling) from post-hoc replay in finalization
    order (workloads whose executor has no incremental hook).
    """

    aggregate: str
    group: GroupEstimate
    emitted_so_far: int
    total_groups: int
    live: bool = True

    @property
    def done(self) -> bool:
        return self.emitted_so_far == self.total_groups

    def to_dict(self) -> dict:
        return {
            "aggregate": self.aggregate,
            "group": self.group.to_dict(),
            "emitted_so_far": self.emitted_so_far,
            "total_groups": self.total_groups,
            "live": self.live,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PartialUpdate":
        return cls(
            aggregate=data["aggregate"],
            group=GroupEstimate.from_dict(data["group"]),
            emitted_so_far=int(data["emitted_so_far"]),
            total_groups=int(data["total_groups"]),
            live=bool(data.get("live", True)),
        )


class ResultStream:
    """Iterator of :class:`PartialUpdate` with the final :class:`Result`.

    Reading ``.result`` drains any remaining updates first, so it is always
    available - including when the consumer stopped at ``update.done``
    instead of exhausting the iterator.
    """

    def __init__(self, updates: Iterator[PartialUpdate]) -> None:
        self._updates = updates
        self._result: Result | None = None

    def __iter__(self) -> Iterator[PartialUpdate]:
        return self

    def __next__(self) -> PartialUpdate:
        return next(self._updates)

    @property
    def result(self) -> Result:
        """The unified result (drains remaining updates if necessary)."""
        if self._result is None:
            for _ in self:
                pass
        if self._result is None:
            raise RuntimeError(
                "the stream terminated without producing a result "
                "(the underlying run raised before completing)"
            )
        return self._result

    @result.setter
    def result(self, value: Result) -> None:
        self._result = value

    def drain(self) -> Result:
        """Consume all remaining updates and return the final result."""
        return self.result
