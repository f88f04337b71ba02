"""Simulated runtimes for the runtime experiments (Fig. 3(b), Fig. 4, Table 3).

The paper's wall-clock numbers come from a physical testbed (64-core Xeon,
Direct I/O).  We replace the hardware with deterministic cost formulas so the
runtime experiments are reproducible anywhere.  The paper quotes three hard
numbers about that testbed:

* sequential scans run at ~800 MB/s (Section 5.2);
* a single thread performs ~10M hash probes+updates per second, making SCAN
  CPU-bound (Section 5.2);
* NEEDLETAIL retrieves a random tuple matching a condition "in constant
  time" through its hierarchical bitmap indexes (Section 4), and Fig. 3(b)
  shows total runtime is proportional to the number of samples drawn.

:class:`NeedletailCostModel` encodes exactly those three facts.  The default
per-sample costs are calibrated so the simulated runtimes land near the
paper's reported values (IFOCUS ~3.9 s at 1e9 rows; SCAN ~89 s): ~1.5 us of
I/O and ~1.0 us of CPU per retrieved sample.

:class:`BlockCacheCostModel` is the ablation: it prices a random sample as a
4 KB page read unless the page was already touched (expected-unique-page
analysis, :class:`PageAccessModel`).  It shows how the constant-per-tuple
claim degrades when every cache miss costs a full random I/O - see
``benchmarks/bench_ablation_costmodel.py``.

Both models are pure functions of a run's totals, so engines only count
(:class:`~repro.engines.base.RunStats`: samples per group, scanned rows) and
:func:`simulated_cost` prices a finished run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.base import RunStats

__all__ = [
    "ROW_BYTES",
    "DiskParams",
    "PageAccessModel",
    "NeedletailCostModel",
    "BlockCacheCostModel",
    "simulated_cost",
]


#: Width of one scanned row: one float64 value, as in the in-memory engines
#: every experiment runs on.
ROW_BYTES = 8


@dataclass(frozen=True)
class DiskParams:
    """Physical parameters of the simulated disk.

    Defaults follow the paper's testbed where quoted: 800 MB/s sequential
    bandwidth (Section 5.1).  ``random_read_seconds`` is the full cost of one
    random page read (seek + transfer).
    """

    sequential_bandwidth: float = 800e6  # bytes / second
    page_bytes: int = 4096  # random-read granularity
    random_read_seconds: float = 1e-4  # one uncached random page read

    def __post_init__(self) -> None:
        if self.sequential_bandwidth <= 0:
            raise ValueError("sequential_bandwidth must be > 0")
        if self.page_bytes <= 0:
            raise ValueError("page_bytes must be > 0")
        if self.random_read_seconds < 0:
            raise ValueError("random_read_seconds must be >= 0")


class PageAccessModel:
    """Expected distinct pages touched by uniform random row reads.

    After s uniform random samples over a table of P pages, the expected
    number of distinct pages read is P*(1-(1-1/P)^s).  Using the expectation
    keeps simulated runtimes deterministic.
    """

    def __init__(self, total_rows: int, row_bytes: int, page_bytes: int) -> None:
        if total_rows <= 0 or row_bytes <= 0 or page_bytes <= 0:
            raise ValueError("total_rows, row_bytes and page_bytes must be > 0")
        rows_per_page = max(page_bytes // row_bytes, 1)
        self.total_pages = max((total_rows + rows_per_page - 1) // rows_per_page, 1)

    def expected_unique(self, samples: int) -> float:
        """E[# distinct pages] after ``samples`` uniform page hits."""
        p = self.total_pages
        if samples <= 0:
            return 0.0
        return p * (1.0 - (1.0 - 1.0 / p) ** samples)


class NeedletailCostModel:
    """Constant cost per retrieved tuple + linear scan costs."""

    def __init__(
        self,
        io_per_sample: float = 1.5e-6,
        cpu_per_sample: float = 1.0e-6,
        cpu_per_scan_row: float = 1.0e-7,  # 10M hash probes / second
        disk: DiskParams | None = None,
    ) -> None:
        if min(io_per_sample, cpu_per_sample, cpu_per_scan_row) < 0:
            raise ValueError("cost rates must be >= 0")
        self.io_per_sample = io_per_sample
        self.cpu_per_sample = cpu_per_sample
        self.cpu_per_scan_row = cpu_per_scan_row
        self.disk = disk or DiskParams()

    def sample_cost(self, count: int) -> tuple[float, float]:
        """(io, cpu) seconds of retrieving ``count`` random tuples."""
        return count * self.io_per_sample, count * self.cpu_per_sample

    def scan_cost(self, rows: int) -> tuple[float, float]:
        """(io, cpu) seconds of a sequential scan over ``rows`` rows."""
        io = rows * ROW_BYTES / self.disk.sequential_bandwidth
        return io, rows * self.cpu_per_scan_row


class BlockCacheCostModel(NeedletailCostModel):
    """Page-cache cost model (the pessimistic ablation).

    Each sample lands on a uniformly random page; the first touch of a page
    costs one random page read, later touches are cache hits costing only
    CPU.  A run's ``count`` samples therefore cost
    ``expected_unique(count)`` random reads - a function of the total alone,
    so pricing a run once equals pricing any split of it.
    """

    def __init__(
        self,
        total_rows: int,
        cpu_per_sample: float = 1.0e-6,
        cpu_per_scan_row: float = 1.0e-7,
        disk: DiskParams | None = None,
    ) -> None:
        super().__init__(
            io_per_sample=0.0,
            cpu_per_sample=cpu_per_sample,
            cpu_per_scan_row=cpu_per_scan_row,
            disk=disk,
        )
        self.pages = PageAccessModel(total_rows, ROW_BYTES, self.disk.page_bytes)

    def sample_cost(self, count: int) -> tuple[float, float]:
        io = self.pages.expected_unique(count) * self.disk.random_read_seconds
        return io, count * self.cpu_per_sample


def simulated_cost(
    stats: RunStats, model: NeedletailCostModel | None = None
) -> tuple[float, float]:
    """Simulated ``(io_seconds, cpu_seconds)`` of a finished run.

    The run's charged samples are priced by ``model.sample_cost`` and its
    scanned rows by ``model.scan_cost``.
    """
    model = model if model is not None else NeedletailCostModel()
    sample_io, sample_cpu = model.sample_cost(stats.total_samples)
    scan_io, scan_cpu = model.scan_cost(stats.scanned_rows)
    return sample_io + scan_io, sample_cpu + scan_cpu
