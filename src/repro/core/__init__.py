"""Core ordering-guarantee sampling algorithms (paper Sections 3 and 5.1)."""

from repro.core.confidence import (
    EpsilonSchedule,
    anytime_epsilon,
    chernoff_sample_size,
    hoeffding_epsilon,
    ifocus_epsilon,
    iterated_log,
)
from repro.core.estimator import RunningMean
from repro.core.ifocus import LeaveRule, run_ifocus
from repro.core.irefine import run_irefine
from repro.core.reference import default_policy, run_ifocus_reference
from repro.core.registry import ALGORITHMS, algorithm_names, run_algorithm
from repro.core.roundrobin import run_roundrobin
from repro.core.scan import run_scan
from repro.core.types import GroupOutcome, OrderingResult, RoundSnapshot, Trace

__all__ = [
    "EpsilonSchedule",
    "anytime_epsilon",
    "chernoff_sample_size",
    "hoeffding_epsilon",
    "ifocus_epsilon",
    "iterated_log",
    "RunningMean",
    "run_ifocus",
    "LeaveRule",
    "run_irefine",
    "run_ifocus_reference",
    "default_policy",
    "ALGORITHMS",
    "algorithm_names",
    "run_algorithm",
    "run_roundrobin",
    "run_scan",
    "GroupOutcome",
    "OrderingResult",
    "RoundSnapshot",
    "Trace",
]
