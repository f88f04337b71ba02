"""The eight workloads, by name (imports ``repro``: call ``add_src_to_path`` first)."""

from bench_e2e.workloads.oneshot import (
    DenseK19,
    ShardedK1000Process,
    SparseK8,
    WideK1000,
)
from bench_e2e.workloads.serve import ServeCold, ServeHit
from bench_e2e.workloads.store import StoreReopen
from bench_e2e.workloads.window import WindowSliding

WORKLOADS = {
    cls.name: cls
    for cls in (
        SparseK8, DenseK19, WideK1000, ShardedK1000Process,
        ServeCold, ServeHit, StoreReopen, WindowSliding,
    )
}
