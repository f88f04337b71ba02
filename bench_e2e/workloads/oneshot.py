"""The four in-process one-shot workloads: one op = one ``execute_spec``."""

from __future__ import annotations

import contextlib

import numpy as np

import repro
from repro.catalog import Catalog
from repro.core.intervals import first_event_row
from repro.engines import InMemoryEngine, ShardedEngine
from repro.needletail.engine import NeedletailEngine
from repro.query.parser import parse_query
from repro.session.planner import execute_spec

from bench_e2e import oracle, osutil
from bench_e2e.spec import DELTA
from bench_e2e.trace import OFF, Tracer
from bench_e2e.workloads.base import Round, Verdict, Workload, closed_loop, timed

#: Ops of the sequence the traced run decomposes layer by layer, and how
#: often each is replayed (a layer's time is its fastest replay per op).
PROBE_OPS = 2
PROBE_REPS = 2

#: Rows per group drawn by the draw_block probes.
BLOCK = 64


def sparse_table(seed: int, rows: int) -> dict[str, np.ndarray]:
    """8 groups, means linspace(10, 90, 8), sigma 10, clipped to [0, 100]."""
    rng = np.random.default_rng([seed, 8])
    means = np.linspace(10.0, 90.0, 8)
    gid = rng.integers(0, 8, rows)
    labels = np.array([f"g{i}" for i in range(8)])
    return {
        "g": labels[gid],
        "v": (means[gid] + rng.normal(0.0, 10.0, rows)).clip(0.0, 100.0),
    }


def probe_front_door(tracer: Tracer, session, sql: str, result) -> None:
    """The query/session probes every workload with a SQL text shares."""
    timed(tracer, "query.parse", lambda: parse_query(sql), reps=50)
    timed(tracer, "session.lower", lambda: session.sql(sql).spec(), reps=50)
    timed(tracer, "session.result_to_dict", result.to_dict, reps=10)


def block_rows(engine) -> int:
    """BLOCK, or what the smallest group can serve after a one-row warm-up."""
    return int(min(BLOCK, engine.population.sizes().min() - 1))


def probe_draw_block(tracer: Tracer, name: str, engine, seed: int, reps: int = 10) -> None:
    """``run.draw_block(all gids, BLOCK)``, each on a fresh run."""
    gids = np.arange(engine.k)
    count = block_rows(engine)
    for rep in range(reps):
        run = engine.open_run(seed + rep)
        run.draw_block(gids, 1)  # materialize permutations off the clock
        with tracer.span(name):
            run.draw_block(gids, count)


def probe_needletail(tracer: Tracer, table, group_col: str, value_col: str, seed: int):
    """Cold index build, one batched select, one fused block draw."""
    engine = timed(
        tracer, "needletail.index_build",
        lambda: NeedletailEngine(table, group_col, value_col), reps=3,
    )
    bits = engine.index.bitmap_for(engine.index.keys[0]).bits
    ranks = np.random.default_rng(seed).integers(0, bits.count(), 4096)
    timed(tracer, "needletail.select_many", lambda: bits.select_many(ranks), reps=20)
    probe_draw_block(tracer, "needletail.draw_block", engine, seed)
    return engine


def probe_first_event_row(tracer: Tracer, engine, seed: int) -> None:
    """A BLOCK x k block of running means whose intervals never separate,
    so ``first_event_row`` scans every row of it."""
    run = engine.open_run(seed)
    block = run.draw_block(np.arange(engine.k), block_rows(engine))
    means = np.cumsum(block, axis=0) / np.arange(1, len(block) + 1)[:, None]
    eps = np.full(len(block), engine.c)
    timed(tracer, "core.first_event_row", lambda: first_event_row(means, eps), reps=10)


class OneShot(Workload):
    """``execute_spec`` over one attached table, fresh seed per op."""

    table = "t"
    group_col = "g"
    value_col = "v"
    engine = "needletail"
    shards = 1
    executor = "thread"

    def attach_target(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.session = repro.connect(delta=DELTA, engine=self.engine)
        self.session.attach(self.table, self.attach_target())
        self.sql = (
            f"SELECT {self.group_col}, AVG({self.value_col}) "
            f"FROM {self.table} GROUP BY {self.group_col}"
        )
        builder = self.session.sql(self.sql)
        if self.shards > 1:
            builder = builder.sharded(self.shards, executor=self.executor)
        self.spec = builder.spec()

    def teardown(self) -> None:
        self.session.close()

    def execute(self, seed: int, tracer: Tracer, i=None):
        with tracer.span("session.execute_spec", op=i):
            return execute_spec(self.spec, self.session.catalog, seed=seed)

    def run_round(self, r: int, tracer: Tracer) -> Round:
        return closed_loop(
            self.n_ops, lambda i: self.execute(self.op_seed(r, i), tracer, i), tracer
        )

    def truth(self) -> dict[str, float]:
        return oracle.scan_means(
            self.session.catalog, self.table, self.group_col, self.value_col
        )

    # -- traced run ------------------------------------------------------------

    def resolve_engine(self, catalog):
        """The engine ``execute_spec`` resolves, through the catalog's doors."""
        g, v = self.group_col, self.value_col
        if self.engine == "needletail":
            engine = catalog.indexed_engine(
                self.table, g, v, group_spec=[g],
                builder=lambda: NeedletailEngine(catalog.table(self.table), g, v),
            )
        else:
            engine = InMemoryEngine(catalog.population(self.table, g, v))
        if self.shards > 1:
            engine = ShardedEngine(engine, self.shards, executor=self.executor)
        return engine

    def raw_digest(self, raw) -> str:
        """``answer_digest`` of a bare ``run_algorithm`` result, keyed as the
        planner keys the spec's one aggregate."""
        key = self.spec.agg_key(self.spec.aggregates[0])
        return oracle.answer_digest({key: {"raw": raw.to_dict()}})

    @contextlib.contextmanager
    def op_catalog(self):
        """The catalog one op resolves its engine against."""
        yield self.session.catalog

    def decompose(self, tracer: Tracer, verdict: Verdict) -> None:
        """Replay the first ops piece by piece: resolve the engine, run the
        algorithm on it, then a bare ``open_run``.  The replayed answer must
        be the op's own, or the pieces are not the op's work."""
        for i in list(range(min(self.n_ops, PROBE_OPS))) * PROBE_REPS:
            seed = self.op_seed(0, i)
            with self.op_catalog() as catalog:
                with tracer.span("catalog.engine_build", op=i):
                    engine = self.resolve_engine(catalog)
                with tracer.span("core.run_algorithm", op=i):
                    raw = repro.run_algorithm(
                        self.spec.algorithm, engine, delta=DELTA, seed=seed
                    )
                if self.shards > 1:
                    engine.release_pool()  # as the planner does after each query
                with tracer.span("engines.open_run", op=i):
                    run = engine.open_run(seed)
                del run
                if self.shards > 1:
                    engine.release_pool()
            tracer.count("core.rounds_per_op", raw.rounds, op=i)
            self.expect_digest(
                verdict, seed, self.raw_digest(raw), "its run_algorithm replay"
            )

    def probe(self, tracer: Tracer, verdict: Verdict) -> dict[str, float]:
        catalog = self.session.catalog
        g, v = self.group_col, self.value_col
        self.decompose(tracer, verdict)

        def first_build():
            fresh = Catalog().attach(self.table, self.attach_target())
            if self.engine == "needletail":
                return fresh.table(self.table)
            return fresh.population(self.table, g, v)

        timed(tracer, "catalog.table_build", first_build, reps=1)
        result = self.execute(self.op_seed(0, 0), OFF)
        probe_front_door(tracer, self.session, self.sql, result)
        extra = {}
        if self.engine == "needletail":
            engine = probe_needletail(tracer, catalog.table(self.table), g, v, self.seed)
        else:
            engine = InMemoryEngine(catalog.population(self.table, g, v))
            probe_draw_block(tracer, "engines.draw_block", engine, self.seed)
            extra["engines.draw_rows_per_s"] = (
                block_rows(engine) * engine.k / tracer.best("engines.draw_block")
            )
        probe_first_event_row(tracer, engine, self.seed)
        return extra


class SparseK8(OneShot):
    name = "sparse_k8"

    def attach_target(self):
        if not hasattr(self, "_data"):
            self.rows = 2_000_000 // self.scale
            self._data = sparse_table(self.seed, self.rows)
        return self._data

    def truth(self) -> dict[str, float]:
        data = self.attach_target()  # the arrays themselves: no scan needed
        return oracle.exact_means(data[self.group_col], data[self.value_col])


class DenseK19(OneShot):
    name = "dense_k19"
    table = "flights"
    group_col = "carrier"
    value_col = "arrival_delay"

    def attach_target(self):
        self.rows = 200_000 // self.scale
        return repro.SourceSpec("flights", rows=self.rows, seed=0)


class WideK1000(OneShot):
    name = "wide_k1000"
    table = "mixture"
    value_col = "value"
    engine = "memory"

    def attach_target(self):
        self.rows = 2_000_000 // self.scale
        return repro.SourceSpec(
            "synthetic", family="mixture", k=1000, total_size=self.rows,
            seed=0, materialize=True,
        )


class ShardedK1000Process(WideK1000):
    name = "sharded_k1000_process"
    shards = 2
    executor = "process"

    def verify(self, r: int, answers: list) -> Verdict:
        """Plus: every answer equals the unsharded engine's for its seed."""
        verdict = super().verify(r, answers)
        if r == 0:
            plain = self.session.sql(self.sql).spec()
            for i in range(self.n_ops):
                seed = self.op_seed(r, i)
                ref = execute_spec(plain, self.session.catalog, seed=seed)
                self.expect_digest(
                    verdict, seed, oracle.result_view(ref)["digest"], "the unsharded run"
                )
        return verdict

    def probe(self, tracer: Tracer, verdict: Verdict) -> dict[str, float]:
        extra = super().probe(tracer, verdict)
        population = self.session.catalog.population(
            self.table, self.group_col, self.value_col
        )
        with ShardedEngine(InMemoryEngine(population), self.shards) as threads:
            probe_draw_block(
                tracer, "engines.sharded.thread_draw_block", threads, self.seed
            )
        before = osutil.shm_segments()
        workers = ShardedEngine(
            InMemoryEngine(population), self.shards, executor="process"
        )
        try:
            with tracer.span("engines.procpool.spawn"):
                run = workers.open_run(self.seed)
            held = osutil.shm_segments()
            extra["engines.shm.bytes"] = float(
                sum(size for name, size in held.items() if name not in before)
            )
            gids = np.arange(workers.k)
            for _ in range(20):
                with tracer.span("engines.procpool.roundtrip"):
                    run.draw_block(gids, 1)
            del run
            probe_draw_block(
                tracer, "engines.sharded.process_draw_block", workers, self.seed
            )
            extra["engines.procpool.respawns"] = float(len(workers.resilience_events()))
        finally:
            workers.close()
        leaked = set(osutil.shm_segments()) - set(before)
        extra["engines.shm.leaked_segments"] = float(len(leaked))
        if leaked:
            verdict.fail(f"shm segments left after close: {sorted(leaked)}")
        return extra
