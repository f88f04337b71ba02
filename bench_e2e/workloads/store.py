"""``store_reopen``: first chart after a restart, from a persisted store."""

from __future__ import annotations

import contextlib
import os
import shutil
import time

import repro
from repro.needletail.engine import NeedletailEngine
from repro.session.planner import execute_spec
from repro.storage import DurableCatalog, verify_segment

from bench_e2e import osutil
from bench_e2e.spec import DELTA
from bench_e2e.trace import Tracer
from bench_e2e.workloads.base import Round, Verdict, closed_loop, timed
from bench_e2e.workloads.oneshot import SparseK8


class StoreReopen(SparseK8):
    """sparse_k8's table behind ``connect(store=)``; op = open, query, close.

    The in-memory session of the parent class stays around as the reference
    the answers must equal and as the RAM side of the layer probes.
    """

    name = "store_reopen"

    def setup(self) -> None:
        super().setup()
        self.store_dir = os.path.join(self.tmp, "store")
        began = time.perf_counter()
        with DurableCatalog(self.store_dir) as catalog:
            catalog.attach(self.table, self.attach_target())
            catalog.prime(self.table, self.group_col, self.value_col)
        self.cold_build_s = time.perf_counter() - began

    def teardown(self) -> None:
        super().teardown()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def reopen_and_query(self, seed: int, tracer: Tracer, i: int):
        with tracer.span("storage.connect", op=i):
            session = repro.connect(delta=DELTA, store=self.store_dir)
        try:
            with tracer.span("session.execute_spec", op=i):
                return execute_spec(self.spec, session.catalog, seed=seed)
        finally:
            with tracer.span("storage.close", op=i):
                session.close()
                session.catalog.close()

    def run_round(self, r: int, tracer: Tracer) -> Round:
        return closed_loop(
            self.n_ops,
            lambda i: self.reopen_and_query(self.op_seed(r, i), tracer, i),
            tracer,
        )

    def verify(self, r: int, answers: list) -> Verdict:
        """Plus: every answer equals the RAM-built engine's for its seed."""
        verdict = super().verify(r, answers)
        if r == 0:
            engine = NeedletailEngine(
                self.session.catalog.table(self.table), self.group_col, self.value_col
            )
            for i in range(self.n_ops):
                seed = self.op_seed(r, i)
                raw = repro.run_algorithm("ifocus", engine, delta=DELTA, seed=seed)
                self.expect_digest(
                    verdict, seed, self.raw_digest(raw), "the in-memory engine's"
                )
        return verdict

    @contextlib.contextmanager
    def op_catalog(self):
        with DurableCatalog(self.store_dir) as catalog:
            yield catalog

    def probe(self, tracer: Tracer, verdict: Verdict) -> dict[str, float]:
        extra = super().probe(tracer, verdict)
        timed(tracer, "storage.open", lambda: DurableCatalog(self.store_dir).close(), reps=10)
        for _ in range(5):
            with self.op_catalog() as catalog:
                with tracer.span("storage.indexed_engine"):
                    self.resolve_engine(catalog)
        with self.op_catalog() as catalog:
            segments_dir = catalog.store.segments_dir
        largest = max(
            (os.path.join(segments_dir, name) for name in os.listdir(segments_dir)),
            key=os.path.getsize,
        )
        timed(tracer, "storage.segment_read", lambda: verify_segment(largest), reps=5)
        data = self.attach_target()
        on_disk = osutil.dir_bytes(self.store_dir)
        extra.update({
            "storage.cold_build_s": self.cold_build_s,
            "storage.segment_read_mb_s": (
                os.path.getsize(largest) / 1e6 / tracer.best("storage.segment_read")
            ),
            "storage.bytes_on_disk": float(on_disk),
            "storage.bytes_per_user_byte": on_disk / sum(a.nbytes for a in data.values()),
        })
        return extra
