"""``window_sliding``: one op = one closed window of a chunked stream."""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.catalog import IteratorSource, Schema
from repro.streaming.runner import WindowResult, WindowRunner

from bench_e2e import oracle
from bench_e2e.spec import DELTA
from bench_e2e.trace import Tracer
from bench_e2e.workloads.base import Round, Verdict, Workload

CHUNK = 5_000
SIZE = 50_000
EVERY = 25_000
MEANS = {"a": 5.0, "b": 15.0, "c": 30.0, "d": 45.0}

#: Windows compared against a one-shot query over exactly their rows.
IDENTITY_SAMPLE = 8


class WindowSliding(Workload):
    """``WindowRunner`` over an ``IteratorSource``, warm start on.

    The chunk generator stamps each chunk as it yields it; a window's latency
    runs from the stamp of the chunk holding its last row to its
    ``WindowResult`` - queue wait included, window length excluded.
    """

    name = "window_sliding"
    rows_per_op = SIZE

    def setup(self) -> None:
        n = self.rows = self.n_ops * EVERY
        rng = np.random.default_rng([self.seed, 4])
        labels, mu = np.array(list(MEANS)), np.array(list(MEANS.values()))
        gid = rng.integers(0, len(labels), n)
        self.data = {
            "g": labels[gid],
            "v": (mu[gid] + rng.normal(0.0, 1.0, n)).clip(0.0, 50.0),
            "ts": np.arange(n, dtype=np.float64),
        }
        self.stamps: list[float] = []
        schema = Schema.from_arrays({k: v[:1] for k, v in self.data.items()})
        self.session = repro.connect(delta=DELTA, engine="memory")
        self.session.attach("events", IteratorSource(self.chunks, schema=schema))
        self.builder = self.session.table("events").group_by("g").agg(repro.avg("v"))
        self.spec = self.builder.window(float(SIZE), every=float(EVERY), on="ts").spec()
        self._truths: dict[int, dict[str, float]] = {}

    def teardown(self) -> None:
        self.session.close()

    def chunks(self):
        self.stamps = stamps = []
        data = self.data
        for start in range(0, self.rows, CHUNK):
            chunk = {k: v[start:start + CHUNK] for k, v in data.items()}
            stamps.append(time.perf_counter())
            yield chunk

    def drain(self, spec, tracer: Tracer, span: str, warm_start: bool = True):
        """One pass over the stream: per-window latencies, results, wall.

        ``span`` names the close-to-close interval spans of a traced pass.
        """
        runner = WindowRunner(
            spec, self.session.catalog, seed=self.op_seed(0, 0),
            warm_start=warm_start, emit_updates=False,
        )
        latencies: dict[int, float] = {}
        results: dict[int, WindowResult] = {}
        start = previous = time.perf_counter()
        for event in runner.run():
            if isinstance(event, WindowResult):
                now = time.perf_counter()
                idx = event.window.index
                last_row = min(int(event.window.end), self.rows) - 1
                latencies[idx] = now - self.stamps[last_row // CHUNK]
                results[idx] = event
                tracer.record(span, previous, now, op=idx)
                previous = now
        wall = time.perf_counter() - start
        return latencies, results, wall, runner.stats()

    def run_round(self, r: int, tracer: Tracer) -> Round:
        latencies, results, wall, _ = self.drain(
            self.spec, tracer, "streaming.window_close"
        )
        missing = RuntimeError("window never closed")
        return Round(
            [latencies.get(i, wall) for i in range(self.n_ops)],
            wall,
            [results.get(i, missing) for i in range(self.n_ops)],
        )

    # -- verification ----------------------------------------------------------

    def window_rows(self, i: int) -> dict[str, np.ndarray]:
        return {k: v[i * EVERY:i * EVERY + SIZE] for k, v in self.data.items()}

    def verify(self, r: int, answers: list) -> Verdict:
        """Each window against the exact means of exactly its rows; a sample
        of windows against a one-shot query over those rows (cold recompute,
        seed = base + window index)."""
        verdict = Verdict()
        for i, event in enumerate(answers):
            if isinstance(event, Exception):
                verdict.fail(f"window {i}: {event}")
                continue
            rows = self.window_rows(i)
            if event.result is None or event.rows != len(rows["ts"]) or event.late_rows:
                verdict.fail(
                    f"window {i}: rows={event.rows} late={event.late_rows} "
                    f"result={'none' if event.result is None else 'ok'}"
                )
                continue
            if i not in self._truths:
                self._truths[i] = oracle.exact_means(rows["g"], rows["v"])
            self.check_view(
                verdict, oracle.result_view(event.result), self._truths[i], event.seed
            )
        if r == 0:
            step = max(1, self.n_ops // IDENTITY_SAMPLE)
            for i in range(0, self.n_ops, step):
                with repro.connect(delta=DELTA, engine="memory") as oneshot:
                    oneshot.attach("events", self.window_rows(i))
                    ref = oneshot.table("events").group_by("g").agg(repro.avg("v")).run(
                        seed=self.op_seed(0, i)
                    )
                self.expect_digest(
                    verdict, self.op_seed(0, i), oracle.result_view(ref)["digest"],
                    "the one-shot query over its rows",
                )
        return verdict

    # -- traced run ------------------------------------------------------------

    def probe(self, tracer: Tracer, verdict: Verdict) -> dict[str, float]:
        _, warm, warm_wall, stats = self.drain(self.spec, tracer, "streaming.warm_pass")
        _, _, cold_wall, _ = self.drain(
            self.spec, tracer, "streaming.cold_window", warm_start=False
        )
        tumbling = self.builder.window(float(SIZE), on="ts").spec()
        self.drain(tumbling, tracer, "streaming.tumbling_window")
        late = stats["late_dropped"] + stats["late_recomputed"]
        if late:
            verdict.fail(f"{late} late rows on an in-order stream")
        return {
            "streaming.rows_per_s": self.rows / warm_wall,
            "streaming.warm_start_share": sum(e.warm_start for e in warm.values()) / len(warm),
            "streaming.warm_vs_cold_x": cold_wall / warm_wall,
            "streaming.late_rows": float(late),
        }
