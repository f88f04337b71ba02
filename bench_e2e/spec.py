"""The benchmark's fixed contract: workloads, metrics, bounds, run length.

``manifest()`` is the exact content of ``BENCHMARK.json``; nothing measured
lives there.  Changing a name, a unit or a bound here changes what every
later PR is judged against, so it is its own change (choosing-metrics, 6.2).
"""

from __future__ import annotations

#: Seconds of timed rounds one run aims for (the driver passes it back as
#: ``--seconds``); a workload's op count scales with it.
RUN_SECONDS = 6

#: Timed rounds per run; op i's latency is the fastest of its ROUNDS timings.
ROUNDS = 5

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Interleaved untraced/traced round pairs in a ``--trace 1`` run.
TRACE_ROUNDS = 3

#: Failure probability every workload's queries ask for; a run is incorrect
#: if more than this share of its ops return a contradicted ordering.
DELTA = 0.05

COMMAND = ["python3", "-m", "bench_e2e", "run"]
PATHS = ["bench_e2e"]

WORKLOADS = [
    ("sparse_k8",
     "2M rows, 8 well-separated groups, needletail: ~0.7% of rows sampled, so "
     "per-query fixed cost (engine/index resolution, open_run, plan, assemble) "
     "is the latency"),
    ("dense_k19",
     "flights 200k rows, 19 close carrier means, needletail: ~94% of rows "
     "sampled, so select_many, row gather and the interval walk dominate; "
     "mirror of sparse_k8"),
    ("wide_k1000",
     "mixture k=1000, 2M rows, memory engine, unsharded: fused draw_block, "
     "first_event_row at large k and 1000-row result assembly; bitmap code "
     "idle; bypass of the sharded run"),
    ("sharded_k1000_process",
     "wide_k1000's table, seeds and query with shards=2 executor=process: "
     "sharded/procpool/shm do the extra work; each answer must equal the "
     "unsharded one bit for bit"),
    ("serve_cold",
     "HTTP POST /query, flights 20k rows, fresh seed per request (always a "
     "cache miss), two keep-alive connections: execution is cheap so the "
     "serve miss path is a visible share"),
    ("serve_hit",
     "same server, 8 pre-warmed dashboards cycled on one connection: pure "
     "service overhead (framing, SQL parse for the key, cache lookup); shows "
     "a miss-path gain that taxes hits"),
    ("store_reopen",
     "sparse_k8's table persisted once; each op is connect(store) -> query "
     "-> close: first chart after a restart; storage open, catalog reload "
     "and the mmap'd index do the work"),
    ("window_sliding",
     "WindowRunner over a chunked stream, window 50k rows sliding by 25k on "
     "ts, warm start on; one op = one window, timed from the chunk holding "
     "its last row to the WindowResult"),
]

#: (name, unit, better, bound).  Every workload reports every one with
#: ``--trace 0``.  The timing bounds are the contract's maximum: on the
#: recording box ten-seed spreads of the timings are 3-7 % in calm minutes
#: and up to 20 % when the VM drifts (README.md, "A/A"), and a spread above
#: its bound refuses the benchmark.  ``peak_rss_mb`` repeats within 1 %
#: except on sharded_k1000_process, where worker start-up timing makes it
#: bimodal (6 % spread).  ``setup_s`` has the largest bound.
END_TO_END = [
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better).  Every workload reports every one with
#: ``--trace 1``; a layer that is not on a workload's path reads 0 there
#: (README.md has the layer -> end-to-end -> workload map).
PER_LAYER = [
    # counts that would be end-to-end but are 0 on a healthy run or vary
    # with the seed, so they cannot carry a relative bound
    ("core.samples_per_op", "count", "lower"),
    ("core.samples_share_of_rows", "share", "lower"),
    ("core.rounds_per_op", "count", "lower"),
    ("core.misordered_share", "share", "lower"),
    ("failed_share", "share", "lower"),
    ("trace_overhead_share", "share", "lower"),
    ("untraced_op_p50_ms", "ms", "lower"),
    ("traced_op_p50_ms", "ms", "lower"),
    # query / session / catalog
    ("query.parse_ms", "ms", "lower"),
    ("session.lower_ms", "ms", "lower"),
    ("session.execute_spec_ms", "ms", "lower"),
    ("session.overhead_ms", "ms", "lower"),
    ("session.result_to_dict_ms", "ms", "lower"),
    ("catalog.table_build_s", "s", "lower"),
    ("catalog.engine_build_ms", "ms", "lower"),
    # needletail / engines / core
    ("needletail.index_build_ms", "ms", "lower"),
    ("needletail.select_many_ms", "ms", "lower"),
    ("needletail.draw_block_ms", "ms", "lower"),
    ("engines.open_run_ms", "ms", "lower"),
    ("engines.draw_block_ms", "ms", "lower"),
    ("engines.draw_rows_per_s", "1/s", "higher"),
    ("engines.sharded.thread_draw_block_ms", "ms", "lower"),
    ("engines.sharded.process_draw_block_ms", "ms", "lower"),
    ("engines.procpool.roundtrip_ms", "ms", "lower"),
    ("engines.procpool.spawn_s", "s", "lower"),
    ("engines.procpool.respawns", "count", "lower"),
    ("engines.shm.bytes", "bytes", "lower"),
    ("engines.shm.leaked_segments", "count", "lower"),
    ("core.run_algorithm_ms", "ms", "lower"),
    ("core.first_event_row_ms", "ms", "lower"),
    # storage
    ("storage.cold_build_s", "s", "lower"),
    ("storage.open_ms", "ms", "lower"),
    ("storage.indexed_engine_ms", "ms", "lower"),
    ("storage.segment_read_mb_s", "MB/s", "higher"),
    ("storage.bytes_on_disk", "bytes", "lower"),
    ("storage.bytes_per_user_byte", "ratio", "lower"),
    # streaming
    ("streaming.window_close_ms", "ms", "lower"),
    ("streaming.rows_per_s", "1/s", "higher"),
    ("streaming.warm_start_share", "share", "higher"),
    ("streaming.cold_window_ms", "ms", "lower"),
    ("streaming.tumbling_window_ms", "ms", "lower"),
    ("streaming.warm_vs_cold_x", "ratio", "higher"),
    ("streaming.late_rows", "count", "lower"),
    # serve
    ("serve.build_request_ms", "ms", "lower"),
    ("serve.handle_hit_ms", "ms", "lower"),
    ("serve.handle_miss_ms", "ms", "lower"),
    ("serve.http_overhead_ms", "ms", "lower"),
    ("serve.healthz_ms", "ms", "lower"),
    ("serve.canonical_json_ms", "ms", "lower"),
    ("serve.response_bytes", "bytes", "lower"),
    ("serve.cache.hit_ratio", "share", "higher"),
    ("serve.cache.shared", "count", "lower"),
    ("serve.admission.queued", "count", "lower"),
    ("serve.admission.shed", "count", "lower"),
    ("serve.sse_first_event_ms", "ms", "lower"),
    ("serve.sse_events_per_query", "count", "lower"),
]

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def manifest() -> dict:
    """The content of ``BENCHMARK.json`` (exactly the contract's keys)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
