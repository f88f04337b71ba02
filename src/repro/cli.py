"""Command-line interface: demos, experiments, catalog inspection, queries.

Usage::

    python -m repro demo
    python -m repro list
    python -m repro experiment fig3a [--scale smoke|paper]
    python -m repro bench-export [--output BENCH_micro.json]
    python -m repro tables [--csv PATH]... [--parquet PATH]... [--flights]
    python -m repro describe TABLE [--csv PATH]... [--parquet PATH]...
    python -m repro query "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier" \
        [--rows 100000] [--algorithm ifocus] [--delta 0.05] [--resolution 0] [--seed 0] \
        [--csv data.csv] [--group-columns carrier] [--value-columns arrival_delay] \
        [--engine needletail|memory|noindex] [--shards 4] [--workers 4] \
        [--executor thread|process] [--deadline-ms 500] [--max-retries 2] [--stream] \
        [--window SIZE [--window-every STRIDE] [--window-on COL] [--late drop] \
         [--allowed-lateness 0] [--max-windows N]]
    python -m repro stream "SELECT ... GROUP BY ..." --window SIZE \
        [--window-every STRIDE] [--window-on COL] [--updates] [--max-windows N] \
        [--store DIR [--resume]]
    python -m repro serve [--host 127.0.0.1] [--port 8765] [--sessions 2] \
        [--csv PATH]... [--flights] [--tenant NAME=MAX[:QUEUE[:DEADLINE_MS]]]... \
        [--drain-timeout 30]
    python -m repro store build STORE [--csv PATH]... [--flights] \
        [--table NAME] [--group-by COL] [--value COL]
    python -m repro store ls|gc STORE
    python -m repro store verify STORE [--repair]

``query`` goes through the Session API.  By default it runs against a freshly
synthesized flights table (the offline stand-in for the paper's dataset); with
``--csv PATH`` the table named in the SQL is bound to your own data instead.
``--group-columns``/``--value-columns`` (comma-separated) pin CSV columns to
string/numeric typing when auto-detection is not enough.

``tables`` and ``describe`` inspect the session catalog without running a
query: source kinds, schemas, row counts, and cached-build status.  Each
``--csv``/``--parquet`` flag attaches one file under its stem name (or
``NAME=PATH`` to pick the name); with no flags the synthetic flights table
is attached so there is always something to show.

``--store DIR`` (on ``tables``/``describe``/``query``/``serve``) opens a
durable store: attached sources and their cached population builds persist, and
later invocations - including a restarted ``serve`` - re-open them warm from
memory-mapped segments.  ``store build`` primes those builds offline,
``store ls`` summarizes what a store holds, ``store verify`` checksums every
segment (exit 1 on corruption), and ``store gc`` sweeps orphaned files.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.experiments import (
    ablation_batching,
    ablation_cost_model,
    ablation_kappa,
    ablation_removal_policy,
    PAPER,
    SMOKE,
    fig3a_percentage_vs_size,
    fig3b_samples_vs_time,
    fig3c_percentage_vs_delta,
    fig4_runtime_vs_size,
    fig5a_heuristic_accuracy,
    fig5b_heuristic_accuracy_hard,
    fig5c_active_groups_convergence,
    fig6a_incorrect_pairs,
    fig6b_percentage_vs_groups,
    fig6c_difficulty_vs_groups,
    fig7a_percentage_vs_skew,
    fig7b_percentage_vs_std,
    fig7c_difficulty_vs_std,
    table1_execution_trace,
    table3_flights_runtimes,
)
from repro.experiments.headline import headline_claims

EXPERIMENTS: dict[str, Callable] = {
    "table1": table1_execution_trace,
    "fig3a": fig3a_percentage_vs_size,
    "fig3b": fig3b_samples_vs_time,
    "fig3c": fig3c_percentage_vs_delta,
    "fig4": fig4_runtime_vs_size,
    "fig5a": fig5a_heuristic_accuracy,
    "fig5b": fig5b_heuristic_accuracy_hard,
    "fig5c": fig5c_active_groups_convergence,
    "fig6a": fig6a_incorrect_pairs,
    "fig6b": fig6b_percentage_vs_groups,
    "fig6c": fig6c_difficulty_vs_groups,
    "fig7a": fig7a_percentage_vs_skew,
    "fig7b": fig7b_percentage_vs_std,
    "fig7c": fig7c_difficulty_vs_std,
    "table3": table3_flights_runtimes,
    "headline": headline_claims,
    "ablation-batching": ablation_batching,
    "ablation-costmodel": ablation_cost_model,
    "ablation-kappa": ablation_kappa,
    "ablation-removal": ablation_removal_policy,
}


def _cmd_demo(_args: argparse.Namespace) -> int:
    import numpy as np

    from repro import avg, connect
    from repro.viz import render_barchart

    airlines = {"AA": 30, "JB": 15, "UA": 85, "DL": 45, "US": 60, "AL": 20, "SW": 23}
    rng = np.random.default_rng(7)
    session = connect(delta=0.05, engine="memory")
    session.register(
        "delays",
        {
            "airline": np.repeat(list(airlines), 200_000),
            "delay": np.concatenate(
                [np.clip(rng.normal(m, 15.0, 200_000), 0, 100) for m in airlines.values()]
            ),
        },
    )
    result = (
        session.table("delays").group_by("airline").agg(avg("delay")).bound(100.0).run(seed=42)
    )
    print(
        render_barchart(
            result.first.raw, title="Average delay by airline (IFOCUS, delta=0.05)"
        )
    )
    total = result.engine.population.total_size
    print(
        f"\nsampled {result.total_samples:,} of {total:,} rows "
        f"({100 * result.total_samples / total:.2f}%); "
        "bar order is correct with probability >= 0.95"
    )
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; try: python -m repro list", file=sys.stderr)
        return 2
    scale = PAPER if args.scale == "paper" else SMOKE
    fig = EXPERIMENTS[args.name](scale)
    print(fig.format())
    return 0


def _cmd_bench_export(args: argparse.Namespace) -> int:
    from repro.bench import export_micro

    path = export_micro(args.output, smoke=args.smoke)
    print(f"wrote {path}")
    return 0


def _query_session(args: argparse.Namespace, table: str):
    """The session `query`/`stream` run against: CLI knobs + bound table."""
    from repro.catalog import SourceSpec
    from repro.session import connect

    session = connect(
        delta=args.delta,
        resolution=args.resolution,
        algorithm=args.algorithm,
        engine=args.engine,
        seed=args.seed,
        shards=args.shards,
        max_workers=args.workers,
        executor=args.executor,
        deadline_ms=args.deadline_ms,
        max_retries=args.max_retries,
        store=args.store,
    )
    if args.csv:
        session.attach(
            table,
            SourceSpec(
                "csv",
                path=args.csv,
                group_columns=_split_columns(args.group_columns),
                value_columns=_split_columns(args.value_columns),
            ),
        )
    elif table not in session.tables:
        # A warm store may already hold the table; otherwise synthesize it.
        session.attach(table, SourceSpec("flights", rows=args.rows, seed=args.seed))
    return session


def _windowed_builder(builder, args: argparse.Namespace):
    return builder.window(
        args.window,
        every=args.window_every,
        on=args.window_on,
        late=args.late,
        allowed_lateness=args.allowed_lateness,
    )


def _print_windows(cq, *, updates: bool) -> int:
    """Consume a ContinuousQuery, printing each window as it closes."""
    from repro.streaming import WindowResult

    windows = 0
    try:
        for event in cq:
            if not isinstance(event, WindowResult):
                if updates:
                    g = event.update.group
                    print(
                        f"  window[{event.window.index}] {event.update.aggregate} "
                        f"{g.label} = {g.estimate:.3f} (+/- {g.half_width:.3f})"
                    )
                continue
            windows += 1
            b = event.window
            tag = f"window[{b.index}] [{b.start:g}, {b.end:g})"
            if event.empty:
                print(f"{tag}: empty (closed by {event.closed_by})")
                continue
            notes = [f"{event.rows:,} rows", f"seed {event.seed}",
                     f"closed by {event.closed_by}"]
            if event.revision:
                notes.append(f"revision {event.revision} (+{event.late_rows} late)")
            if event.warm_start:
                notes.append("warm start")
            print(f"{tag}: {', '.join(notes)}")
            for agg_key, agg in event.result.aggregates.items():
                pairs = sorted(agg.estimates().items(), key=lambda p: -p[1])
                for label, value in pairs:
                    est = agg[label]
                    suffix = "" if est.exact else f"  (+/- {est.half_width:.3f})"
                    print(f"  {agg_key}  {label:>12}  {value:12.3f}{suffix}")
    except KeyboardInterrupt:
        cq.cancel()
        print("\ncancelled")
    print(f"{windows} windows emitted")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.query import parse_query

    query = parse_query(args.sql)
    session = _query_session(args, query.table)
    builder = _windowed_builder(session.sql(query), args)
    checkpoint = None
    if args.store:
        # The checkpoint is named by the query itself (canonical spec +
        # seed), so an interrupted `repro stream --store DIR` continues
        # with `--resume` - no id bookkeeping for the operator.
        import hashlib

        key = f"{builder.spec().canonical_key()}|{args.seed}"
        checkpoint = "stream-" + hashlib.sha256(key.encode()).hexdigest()[:16]
    elif args.resume:
        print("--resume needs --store (the checkpoint lives in the store)",
              file=sys.stderr)
        return 2
    try:
        cq = builder.subscribe(
            seed=args.seed,
            max_windows=args.max_windows,
            emit_updates=args.updates,
            checkpoint=checkpoint,
            resume=args.resume,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    code = _print_windows(cq, updates=args.updates)
    if checkpoint is not None:
        cq.join(5)
        if cq.cancelled:
            print(f"checkpoint retained; rerun with --resume to continue "
                  f"from window cursor {cq.stats().get('emissions', 0)}")
        else:
            session.catalog.delete_checkpoint(checkpoint)
    return code


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.query import parse_query

    query = parse_query(args.sql)
    session = _query_session(args, query.table)

    if args.window is not None:
        # --window makes the query continuous: same printing as `stream`.
        if args.stream:
            print(
                "--stream prints one-shot partials; a windowed query is "
                "already continuous (drop --stream, or use `repro stream`)",
                file=sys.stderr,
            )
            return 2
        builder = _windowed_builder(session.sql(query), args)
        cq = builder.subscribe(
            seed=args.seed, max_windows=args.max_windows, emit_updates=False
        )
        return _print_windows(cq, updates=False)

    run_kwargs = {}
    if args.engine == "noindex" and args.max_samples:
        run_kwargs["max_samples"] = args.max_samples

    builder = session.sql(query)
    if args.stream:
        print("streaming partial results (groups appear as they finalize):")
        stream = builder.stream(seed=args.seed, **run_kwargs)
        for update in stream:
            g = update.group
            print(
                f"  [{update.emitted_so_far}/{update.total_groups}] {update.aggregate} "
                f"{g.label} = {g.estimate:.3f} (+/- {g.half_width:.3f}, "
                f"{g.samples:,} samples)"
            )
        out = stream.result
    else:
        out = builder.run(seed=args.seed, **run_kwargs)

    for agg_key, agg in out.aggregates.items():
        print(
            f"{agg_key} (algorithm={agg.algorithm}, samples={agg.total_samples:,}):"
        )
        pairs = sorted(agg.estimates().items(), key=lambda p: -p[1])
        for label, value in pairs:
            est = agg[label]
            suffix = "" if est.exact else f"  (+/- {est.half_width:.3f})"
            print(f"  {label:>12}  {value:12.3f}{suffix}")
    if out.dropped_by_having:
        print(f"HAVING dropped: {out.dropped_by_having}")
    print(f"guarantee: {out.guarantee.describe()}")
    for caveat in out.caveats:
        print(f"caveat: {caveat}")
    if out.deadline_exceeded:
        # Distinct exit code so scripts can tell "partial anytime answer"
        # (above output is still valid, intervals are just wider) from both
        # success (0) and bad invocations (2).
        return 3
    return 0


def _split_columns(arg: str | None) -> list[str]:
    if not arg:
        return []
    return [part.strip() for part in arg.split(",") if part.strip()]


# -- catalog inspection ------------------------------------------------------


def _name_and_path(arg: str) -> tuple[str, str]:
    """Parse a ``NAME=PATH`` or bare ``PATH`` registration flag."""
    import os

    if "=" in arg:
        name, path = arg.split("=", 1)
        return name.strip(), path
    return os.path.splitext(os.path.basename(arg))[0], arg


def _catalog_session(args: argparse.Namespace):
    """Build a session holding the sources named on the command line.

    With ``--store DIR`` (or the store subcommands' positional STORE) the
    session opens durably: previously attached sources come back from the
    store first, so a bare ``repro serve --store DIR`` boots warm with no
    flags at all.
    """
    from repro.catalog import SourceSpec
    from repro.session import connect

    session = connect(store=getattr(args, "store", None))
    for arg in args.csv or []:
        name, path = _name_and_path(arg)
        session.attach(
            name,
            SourceSpec(
                "csv",
                path=path,
                group_columns=_split_columns(getattr(args, "group_columns", None)),
                value_columns=_split_columns(getattr(args, "value_columns", None)),
            ),
        )
    for arg in args.parquet or []:
        name, path = _name_and_path(arg)
        session.attach(name, SourceSpec("parquet", path=path))
    if args.flights or not session.tables:
        session.attach("flights", SourceSpec("flights", rows=args.rows, seed=0))
    return session


def _format_rows(hint: int | None) -> str:
    return f"{hint:,}" if hint is not None else "?"


def _cmd_tables(args: argparse.Namespace) -> int:
    session = _catalog_session(args)
    infos = [session.describe_table(name) for name in session.tables]
    name_w = max(len("table"), *(len(i.name) for i in infos))
    kind_w = max(len("kind"), *(len(i.kind) for i in infos))
    print(f"{'table':<{name_w}}  {'kind':<{kind_w}}  {'rows':>12}  columns")
    for info in infos:
        cols = ", ".join(
            f"{c.name}:{'num' if c.is_numeric else 'str'}" for c in info.schema
        )
        print(
            f"{info.name:<{name_w}}  {info.kind:<{kind_w}}  "
            f"{_format_rows(info.row_count_hint):>12}  {cols}"
        )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    session = _catalog_session(args)
    if args.table not in session.tables:
        print(
            f"unknown table {args.table!r}; registered: {session.tables}",
            file=sys.stderr,
        )
        return 2
    info = session.describe_table(args.table)
    print(f"table: {info.name}")
    print(f"source: {info.description} (kind: {info.kind})")
    print(f"rows: {_format_rows(info.row_count_hint)}")
    print("columns:")
    for col in info.schema:
        print(f"  {col.name:<24} {col.kind}")
    print(f"materialized table cached: {'yes' if info.table_cached else 'no'}")
    for label, builds in (
        ("populations", info.cached_populations),
        ("engines", info.cached_engines),
    ):
        if not builds:
            print(f"cached {label}: none (first query triggers the build)")
            continue
        print(f"cached {label}:")
        for group, value_col, predicate, bound in builds:
            extras = []
            if predicate is not None:
                extras.append(f"where {predicate!r}")
            if bound is not None:
                extras.append(f"c={bound:g}")
            suffix = f"  ({', '.join(extras)})" if extras else ""
            print(f"  group by {', '.join(group)}, value {value_col}{suffix}")
    if info.cached_fanouts:
        print("cached fan-outs:")
        for fan in info.cached_fanouts:
            print(
                f"  group by {', '.join(fan.group_by)}, value {fan.value_column}"
                f"  ({fan.engine}, {fan.shards} shards, {fan.executor} executor, "
                f"{fan.workers} live workers)"
            )
    else:
        print("cached fan-outs: none (the first sharded query starts one)")
    return 0


# -- store maintenance -------------------------------------------------------


def _cmd_store_build(args: argparse.Namespace) -> int:
    session = _catalog_session(args)
    catalog = session._catalog  # DurableCatalog: _catalog_session saw args.store
    names = [args.table] if args.table else list(session.tables)
    for name in names:
        if name not in session.tables:
            print(f"unknown table {name!r}; attached: {session.tables}", file=sys.stderr)
            return 2
        schema = session._catalog.schema(name)
        group_col = args.group_by or next(
            (c.name for c in schema if not c.is_numeric), None
        )
        value_col = args.value or next((c.name for c in schema if c.is_numeric), None)
        if group_col is None or value_col is None:
            print(
                f"{name}: cannot pick build columns (need one string and one "
                "numeric column; use --group-by/--value)",
                file=sys.stderr,
            )
            return 2
        primed = catalog.prime(name, group_col, value_col, value_bound=args.bound)
        what = ", ".join(primed) if primed else "nothing (already warm)"
        print(f"{name}: group by {group_col}, value {value_col} -> built {what}")
    return 0


def _cmd_store_ls(args: argparse.Namespace) -> int:
    from repro.storage import Store

    with Store(args.store) as store:
        rows = store.ls()
    if not rows:
        print("store is empty (attach sources with --store, or `repro store build`)")
        return 0
    name_w = max(len("table"), *(len(r["name"]) for r in rows))
    kind_w = max(len("kind"), *(len(r["kind"]) for r in rows))
    print(f"{'table':<{name_w}}  {'kind':<{kind_w}}  {'rows':>12}  "
          f"{'builds':>6}  {'segments':>8}  {'bytes':>12}")
    for r in rows:
        print(
            f"{r['name']:<{name_w}}  {r['kind']:<{kind_w}}  "
            f"{_format_rows(r['row_count']):>12}  {r['builds']:>6}  "
            f"{r['segments']:>8}  {r['bytes']:>12,}"
        )
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.errors import StorageError
    from repro.storage import Store

    with Store(args.store) as store:
        if args.repair:
            report = store.repair()
            for name in report["quarantined_files"]:
                print(f"quarantined {name}")
            for name in report["removed_orphans"]:
                print(f"removed orphan {name}")
            print(
                f"repair: checked {report['checked']} segments, quarantined "
                f"{report['quarantined_builds']} corrupt build(s) "
                f"({len(report['quarantined_files'])} file(s)), removed "
                f"{len(report['removed_orphans'])} orphan(s); the next query "
                "rebuilds quarantined builds from source"
            )
            try:
                store.verify()
            except StorageError as exc:  # pragma: no cover - repair failed
                print(f"store is still corrupt after repair: {exc}", file=sys.stderr)
                return 1
            return 0
        try:
            checked = store.verify()
        except StorageError as exc:
            print(str(exc), file=sys.stderr)
            print("hint: `repro store verify --repair` quarantines corrupt "
                  "builds and sweeps orphans", file=sys.stderr)
            return 1
    print(f"verified {checked} segments: all checksums match their catalog rows")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    from repro.storage import Store

    with Store(args.store) as store:
        removed = store.gc()
    for entry in removed:
        print(f"removed {entry}")
    print(f"gc: removed {len(removed)} orphaned files")
    return 0


# -- serve -------------------------------------------------------------------


def _parse_tenant_flag(arg: str):
    """Parse ``NAME=MAX[:QUEUE[:DEADLINE_MS]]`` into (name, TenantConfig)."""
    from repro.serve import TenantConfig

    name, _, rest = arg.partition("=")
    name = name.strip()
    if not name or not rest:
        raise ValueError(f"--tenant needs NAME=MAX[:QUEUE[:DEADLINE_MS]], got {arg!r}")
    parts = rest.split(":")
    if len(parts) > 3:
        raise ValueError(f"--tenant takes at most MAX:QUEUE:DEADLINE_MS, got {arg!r}")
    config = TenantConfig(
        max_concurrent=int(parts[0]),
        queue_limit=int(parts[1]) if len(parts) > 1 else 16,
        deadline_ms=float(parts[2]) if len(parts) > 2 else None,
    )
    return name, config


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import QueryService, TenantConfig, TenantRegistry, run_server

    session = _catalog_session(args)
    tenants = TenantRegistry(
        TenantConfig(
            max_concurrent=args.max_concurrent,
            queue_limit=args.queue_limit,
            deadline_ms=args.deadline_ms,
        )
    )
    for arg in args.tenant or []:
        try:
            name, config = _parse_tenant_flag(arg)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        tenants.configure(name, config)
    service = QueryService(
        session,
        sessions=args.sessions,
        tenants=tenants,
        cache_entries=args.cache_entries,
        default_seed=args.seed,
    )
    run_server(
        service,
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rapid sampling for visualizations with ordering guarantees (VLDB 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="render the Figure-1 bar chart approximately")
    demo.set_defaults(fn=_cmd_demo)

    lst = sub.add_parser("list", help="list reproducible experiments")
    lst.set_defaults(fn=_cmd_list)

    exp = sub.add_parser("experiment", help="run one figure/table reproduction")
    exp.add_argument("name", help="experiment id, e.g. fig3a, table3, headline")
    exp.add_argument("--scale", choices=("smoke", "paper"), default="smoke")
    exp.set_defaults(fn=_cmd_experiment)

    bench = sub.add_parser(
        "bench-export",
        help="run the micro benchmark suite and write the normalized BENCH_micro.json",
    )
    bench.add_argument("--output", default=None,
                       help="output path (default BENCH_micro.json, or "
                       "BENCH_micro.smoke.json with --smoke)")
    bench.add_argument("--smoke", action="store_true",
                       help="light sanity run: fast micro ops only, seconds not minutes")
    bench.set_defaults(fn=_cmd_bench_export)

    def add_catalog_flags(p: argparse.ArgumentParser, *, store_flag: bool = True) -> None:
        if store_flag:
            p.add_argument("--store", default=None, metavar="DIR",
                           help="open (or create) a durable store: attached "
                           "sources and cached builds persist and re-open warm")
        p.add_argument("--csv", action="append", metavar="[NAME=]PATH",
                       help="attach a CSV file (repeatable); name defaults "
                       "to the file stem")
        p.add_argument("--parquet", action="append", metavar="[NAME=]PATH",
                       help="attach a Parquet file (needs the pyarrow extra)")
        p.add_argument("--flights", action="store_true",
                       help="also attach the synthetic flights table")
        p.add_argument("--rows", type=int, default=100_000,
                       help="rows of the synthetic flights table")
        p.add_argument("--group-columns", default=None, metavar="A,B",
                       help="CSV columns to keep as strings (group-by keys)")
        p.add_argument("--value-columns", default=None, metavar="X,Y",
                       help="CSV columns that must parse as numbers")

    tbls = sub.add_parser(
        "tables",
        help="list the catalog: table names, source kinds, row counts, schemas",
    )
    add_catalog_flags(tbls)
    tbls.set_defaults(fn=_cmd_tables)

    desc = sub.add_parser(
        "describe",
        help="show one table's schema, source kind, and cached-build status",
    )
    desc.add_argument("table", help="catalog name of the table to describe")
    add_catalog_flags(desc)
    desc.set_defaults(fn=_cmd_describe)

    def add_query_flags(p: argparse.ArgumentParser, *, window_required: bool) -> None:
        p.add_argument("sql")
        p.add_argument("--rows", type=int, default=100_000,
                       help="rows of the synthetic flights table (ignored with --csv)")
        p.add_argument("--algorithm", default="ifocus")
        p.add_argument("--delta", type=float, default=0.05)
        p.add_argument("--resolution", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--store", default=None, metavar="DIR",
                       help="run against a durable store: the table's cached "
                       "index maps from disk if present, and cold builds persist")
        p.add_argument("--csv", default=None, metavar="PATH",
                       help="bind the table named in the SQL to this CSV file")
        p.add_argument("--group-columns", default=None, metavar="A,B",
                       help="CSV columns to keep as strings (group-by keys)")
        p.add_argument("--value-columns", default=None, metavar="X,Y",
                       help="CSV columns that must parse as numbers")
        p.add_argument("--engine", default="needletail",
                       help="execution substrate: needletail, memory, or noindex")
        p.add_argument("--shards", type=int, default=1,
                       help="partition the engine into N parallel shards "
                       "(1 = unsharded; sharded runs merge deterministically)")
        p.add_argument("--workers", type=int, default=None,
                       help="thread-pool width for the shard fan-out "
                       "(default: one worker per shard)")
        p.add_argument("--executor", choices=("thread", "process"), default="thread",
                       help="shard fan-out executor: 'thread' (in-process) or "
                       "'process' (one worker process per shard over shared "
                       "memory; falls back to threads, with a caveat, when the "
                       "data cannot cross the process boundary)")
        p.add_argument("--max-samples", type=int, default=None,
                       help="cap total tuples for --engine noindex (skewed tables "
                       "with conflicting groups may otherwise sample unboundedly; "
                       "hitting the cap voids the guarantee and prints a caveat)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       help="time budget in milliseconds; on expiry a one-shot "
                       "run finalizes remaining groups at their current "
                       "estimates (wider intervals, exit code 3); per-window "
                       "budget for windowed queries")
        p.add_argument("--max-retries", type=int, default=2,
                       help="retry budget for transient source-scan IO failures "
                       "(exponential backoff; retries are surfaced as caveats)")
        p.add_argument("--window", type=float, default=None, metavar="SIZE",
                       required=window_required,
                       help="make the query continuous: evaluate once per "
                       "window of SIZE rows (or SIZE units of --window-on)")
        p.add_argument("--window-every", type=float, default=None, metavar="STRIDE",
                       help="window stride; omit to tumble, < SIZE to slide")
        p.add_argument("--window-on", default=None, metavar="COL",
                       help="numeric event-time column (default: row-count "
                       "windows in arrival order)")
        p.add_argument("--late", choices=("drop", "recompute", "error"),
                       default="drop",
                       help="policy for rows arriving after their time window "
                       "closed (time windows only)")
        p.add_argument("--allowed-lateness", type=float, default=0.0,
                       help="watermark slack: hold windows open this many time "
                       "units past their end before closing")
        p.add_argument("--max-windows", type=int, default=None,
                       help="stop after this many closed windows (bounds "
                       "subscriptions over unbounded sources)")

    qry = sub.add_parser(
        "query",
        help="run a SQL query over a synthetic flights table or your own CSV",
    )
    add_query_flags(qry, window_required=False)
    qry.add_argument("--stream", action="store_true",
                     help="print partial results as groups finalize")
    qry.set_defaults(fn=_cmd_query)

    stm = sub.add_parser(
        "stream",
        help="run a windowed SQL query continuously, printing each window "
        "as it closes (repro.streaming)",
    )
    add_query_flags(stm, window_required=True)
    stm.add_argument("--updates", action="store_true",
                     help="also print per-group partial updates while each "
                     "window evaluates")
    stm.add_argument("--resume", action="store_true",
                     help="with --store: continue an interrupted stream from "
                     "its durable checkpoint; already-delivered windows are "
                     "skipped and the rest replay bit-identically")
    stm.set_defaults(fn=_cmd_stream)

    sto = sub.add_parser(
        "store",
        help="maintain a durable store: build (prime) caches, ls, verify, gc",
    )
    sto_sub = sto.add_subparsers(dest="store_command", required=True)

    sto_build = sto_sub.add_parser(
        "build",
        help="attach sources and persist their population builds "
        "so later sessions (and `serve --store`) boot warm",
    )
    sto_build.add_argument("store", metavar="STORE", help="store directory")
    add_catalog_flags(sto_build, store_flag=False)
    sto_build.add_argument("--table", default=None,
                           help="build only this table (default: every "
                           "attached table)")
    sto_build.add_argument("--group-by", default=None, metavar="COL",
                           help="build group column (default: the table's "
                           "first string column)")
    sto_build.add_argument("--value", default=None, metavar="COL",
                           help="build value column (default: the table's "
                           "first numeric column)")
    sto_build.add_argument("--bound", type=float, default=None,
                           help="value bound c for the build (default: "
                           "derived from the data)")
    sto_build.set_defaults(fn=_cmd_store_build)

    sto_ls = sto_sub.add_parser(
        "ls", help="summarize the store: tables, builds, segments, bytes"
    )
    sto_ls.add_argument("store", metavar="STORE", help="store directory")
    sto_ls.set_defaults(fn=_cmd_store_ls)

    sto_verify = sto_sub.add_parser(
        "verify",
        help="checksum every segment against its header and catalog row "
        "(exit 1 naming each corrupt file)",
    )
    sto_verify.add_argument("store", metavar="STORE", help="store directory")
    sto_verify.add_argument("--repair", action="store_true",
                            help="quarantine corrupt builds (they rebuild from "
                            "source on next use) and sweep orphaned files, "
                            "instead of exiting 1")
    sto_verify.set_defaults(fn=_cmd_store_verify)

    sto_gc = sto_sub.add_parser(
        "gc", help="remove segment files the catalog doesn't own"
    )
    sto_gc.add_argument("store", metavar="STORE", help="store directory")
    sto_gc.set_defaults(fn=_cmd_store_gc)

    srv = sub.add_parser(
        "serve",
        help="run the always-on multi-tenant HTTP query service (see repro.serve)",
    )
    add_catalog_flags(srv)
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default loopback; put a reverse proxy "
                     "in front for anything else)")
    srv.add_argument("--port", type=int, default=8765,
                     help="listen port (0 picks a free ephemeral port)")
    srv.add_argument("--sessions", type=int, default=2,
                     help="session pool size; all sessions share one catalog")
    srv.add_argument("--max-concurrent", type=int, default=4,
                     help="default per-tenant concurrent-execution quota")
    srv.add_argument("--queue-limit", type=int, default=16,
                     help="default per-tenant admission-queue depth; beyond "
                     "this, requests are shed with a structured 429")
    srv.add_argument("--deadline-ms", type=float, default=None,
                     help="default per-tenant query deadline (anytime stop)")
    srv.add_argument("--cache-entries", type=int, default=256,
                     help="result-cache capacity (LRU; 0 disables caching)")
    srv.add_argument("--seed", type=int, default=0,
                     help="default seed for requests that omit one (a fixed "
                     "default keeps identical requests cache-identical)")
    srv.add_argument("--tenant", action="append",
                     metavar="NAME=MAX[:QUEUE[:DEADLINE_MS]]",
                     help="provision one tenant explicitly (repeatable), e.g. "
                     "--tenant dashboards=8:32:2000")
    srv.add_argument("--drain-timeout", type=float, default=30.0,
                     help="seconds SIGTERM lets in-flight queries finish "
                     "before cooperative cancellation (SIGINT stops "
                     "immediately; /readyz turns 503 while draining)")
    srv.set_defaults(fn=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
