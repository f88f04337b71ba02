"""Result and trace types shared by all ordering-guarantee sampling algorithms.

Every algorithm in :mod:`repro.core` (IFOCUS, IREFINE, ROUNDROBIN, SCAN) returns
an :class:`OrderingResult`; experiment harnesses and the visualization layer
consume only this type, so algorithms are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "GroupOutcome",
    "RoundSnapshot",
    "Trace",
    "OrderingResult",
    "jsonify_value",
]


def jsonify_value(value: Any) -> Any:
    """Coerce numpy scalars/arrays (recursively) into JSON-native values.

    Algorithm ``params`` dicts accumulate whatever the runner recorded -
    numpy floats, int64 counters, label arrays - so the wire layer normalizes
    them once here instead of every serializer special-casing numpy.
    """
    if isinstance(value, np.ndarray):
        return [jsonify_value(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): jsonify_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify_value(v) for v in value]
    return value


@dataclass(frozen=True)
class GroupOutcome:
    """Final per-group state when the algorithm terminated.

    Attributes:
        index: position of the group in the input (0-based).
        name: group label (e.g. airline code).
        estimate: the returned estimate nu_i of the group average mu_i.
        samples: m_i, the number of samples drawn from this group.
        half_width: the half-width of the group's confidence interval when it
            was finalized (0.0 if the group was exhausted).
        exhausted: True if every element of the group was read (m_i == n_i),
            in which case ``estimate`` is the exact group average.
        finalized_round: the round m at which the group left the active set.
    """

    index: int
    name: str
    estimate: float
    samples: int
    half_width: float
    exhausted: bool
    finalized_round: int

    def to_dict(self) -> dict:
        return {
            "index": int(self.index),
            "name": self.name,
            "estimate": float(self.estimate),
            "samples": int(self.samples),
            "half_width": float(self.half_width),
            "exhausted": bool(self.exhausted),
            "finalized_round": int(self.finalized_round),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroupOutcome":
        return cls(
            index=int(data["index"]),
            name=data["name"],
            estimate=float(data["estimate"]),
            samples=int(data["samples"]),
            half_width=float(data["half_width"]),
            exhausted=bool(data["exhausted"]),
            finalized_round=int(data["finalized_round"]),
        )


@dataclass(frozen=True)
class RoundSnapshot:
    """State of the algorithm at the end of one round (used for traces).

    Snapshots power the convergence experiments (Fig. 5(c), Fig. 6(a)) and the
    Table 1 execution trace.
    """

    round_index: int
    cumulative_samples: int
    active: tuple[int, ...]
    estimates: np.ndarray
    epsilon: float

    def intervals(self) -> list[tuple[float, float]]:
        """Confidence intervals [nu - eps, nu + eps] for every group."""
        return [(float(v - self.epsilon), float(v + self.epsilon)) for v in self.estimates]


@dataclass
class Trace:
    """A (possibly strided) sequence of per-round snapshots."""

    every: int = 1
    snapshots: list[RoundSnapshot] = field(default_factory=list)

    def append(self, snap: RoundSnapshot) -> None:
        self.snapshots.append(snap)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)

    def samples_series(self) -> np.ndarray:
        """Cumulative sample counts for each recorded snapshot."""
        return np.array([s.cumulative_samples for s in self.snapshots], dtype=np.int64)

    def active_counts(self) -> np.ndarray:
        """Number of active groups at each recorded snapshot."""
        return np.array([len(s.active) for s in self.snapshots], dtype=np.int64)

    def estimate_matrix(self) -> np.ndarray:
        """Stacked estimates, shape (num_snapshots, k)."""
        return np.stack([s.estimates for s in self.snapshots])


@dataclass
class OrderingResult:
    """Output of an ordering-guarantee sampling algorithm.

    Attributes:
        algorithm: canonical algorithm name ("ifocus", "irefine", ...).
        estimates: array of nu_1..nu_k in input group order.
        samples_per_group: array of m_1..m_k.
        rounds: number of rounds executed (the final value of m).
        groups: rich per-group outcomes, in input order.
        inactive_order: group indices in the order they left the active set
            (this is the partial-result emission order of Problem 7).
        trace: optional per-round trace.
        params: algorithm parameters for provenance (delta, c, resolution ...).
        stats: engine accounting for the run (charged samples per group,
            scanned rows); ``None`` only for hand-built results.
    """

    algorithm: str
    estimates: np.ndarray
    samples_per_group: np.ndarray
    rounds: int
    groups: list[GroupOutcome]
    inactive_order: list[int]
    trace: Trace | None = None
    params: dict[str, Any] = field(default_factory=dict)
    stats: Any = None

    @property
    def k(self) -> int:
        """Number of groups."""
        return len(self.estimates)

    @property
    def total_samples(self) -> int:
        """Total sample complexity C = sum_i m_i."""
        return int(self.samples_per_group.sum())

    def order(self) -> np.ndarray:
        """Indices of groups sorted by ascending estimate."""
        return np.argsort(self.estimates, kind="stable")

    def ranking(self) -> np.ndarray:
        """Rank (0 = smallest estimate) of each group in input order."""
        ranks = np.empty(self.k, dtype=np.int64)
        ranks[self.order()] = np.arange(self.k)
        return ranks

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm}: k={self.k} rounds={self.rounds} "
            f"samples={self.total_samples}"
        )

    def to_dict(self) -> dict:
        """JSON-safe dict form (the server wire format).

        Per-round traces are deliberately not serialized (they are debugging
        artifacts, unbounded in size); everything else - estimates, per-group
        outcomes, finalization order, params, engine accounting - round-trips
        through :meth:`from_dict`.
        """
        stats = None
        if self.stats is not None:
            stats = {
                "samples_per_group": [int(v) for v in self.stats.samples_per_group],
                "scanned_rows": int(self.stats.scanned_rows),
            }
        return {
            "algorithm": self.algorithm,
            "estimates": [float(v) for v in self.estimates],
            "samples_per_group": [int(v) for v in self.samples_per_group],
            "rounds": int(self.rounds),
            "groups": [g.to_dict() for g in self.groups],
            "inactive_order": [int(i) for i in self.inactive_order],
            "params": jsonify_value(self.params),
            "stats": stats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OrderingResult":
        stats = None
        if data.get("stats") is not None:
            from repro.engines.base import RunStats

            s = data["stats"]
            stats = RunStats(
                samples_per_group=np.asarray(s["samples_per_group"], dtype=np.int64),
                scanned_rows=int(s["scanned_rows"]),
            )
        return cls(
            algorithm=data["algorithm"],
            estimates=np.asarray(data["estimates"], dtype=np.float64),
            samples_per_group=np.asarray(data["samples_per_group"], dtype=np.int64),
            rounds=int(data["rounds"]),
            groups=[GroupOutcome.from_dict(g) for g in data["groups"]],
            inactive_order=[int(i) for i in data["inactive_order"]],
            trace=None,
            params=dict(data.get("params", {})),
            stats=stats,
        )
