"""Algorithm registry: run any of the paper's six algorithms by name.

The experiment harness and the examples refer to algorithms by the names the
paper uses in its figures: ``ifocus``, ``ifocusr``, ``irefine``, ``irefiner``,
``roundrobin``, ``roundrobinr``, plus the ``scan`` baseline.  The "-r"
variants are the same algorithms with the visual-resolution relaxation
enabled, so they *require* a positive ``resolution`` argument.
"""

from __future__ import annotations

from typing import Callable

from repro.core.ifocus import run_ifocus
from repro.core.irefine import run_irefine
from repro.core.roundrobin import run_roundrobin
from repro.core.scan import run_scan
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine

__all__ = ["ALGORITHMS", "RESOLUTION_VARIANTS", "run_algorithm", "algorithm_names"]

_RunnerFn = Callable[..., OrderingResult]

ALGORITHMS: dict[str, _RunnerFn] = {
    "ifocus": run_ifocus,
    "ifocusr": run_ifocus,
    "irefine": run_irefine,
    "irefiner": run_irefine,
    "roundrobin": run_roundrobin,
    "roundrobinr": run_roundrobin,
    "scan": run_scan,
}

RESOLUTION_VARIANTS = frozenset({"ifocusr", "irefiner", "roundrobinr"})

_NO_RESOLUTION = frozenset({"ifocus", "irefine", "roundrobin", "scan"})


def algorithm_names(include_scan: bool = False) -> list[str]:
    """The six sampling algorithm names in the paper's plotting order."""
    names = ["ifocus", "ifocusr", "irefine", "irefiner", "roundrobin", "roundrobinr"]
    if include_scan:
        names.append("scan")
    return names


def run_algorithm(
    name: str,
    engine: SamplingEngine,
    *,
    resolution: float = 0.0,
    **kwargs,
) -> OrderingResult:
    """Run the algorithm called ``name`` on ``engine``.

    Args:
        name: one of :func:`algorithm_names` plus "scan".
        engine: the sampling engine.
        resolution: minimal resolution r; required > 0 for the "-r"
            variants, and forced to 0 for the plain variants so figure
            sweeps can pass one value for all six algorithms.
        **kwargs: forwarded to the algorithm (delta, seed, trace_every, ...).
    """
    key = name.lower()
    if key not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}")
    if key in RESOLUTION_VARIANTS:
        if resolution <= 0:
            raise ValueError(f"{name} requires resolution > 0")
    else:
        resolution = 0.0
    runner = ALGORITHMS[key]
    if key == "scan":
        return runner(engine, **kwargs)
    return runner(engine, resolution=resolution, **kwargs)
