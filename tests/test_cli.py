"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_demo_parses(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "fig3a"])
        assert args.name == "fig3a" and args.scale == "smoke"

    def test_query_options(self):
        args = build_parser().parse_args(
            ["query", "SELECT x, AVG(y) FROM t GROUP BY x", "--rows", "500",
             "--algorithm", "roundrobin", "--delta", "0.1"]
        )
        assert args.rows == 500 and args.algorithm == "roundrobin"

    def test_query_shards_options(self):
        args = build_parser().parse_args(
            ["query", "SELECT x, AVG(y) FROM t GROUP BY x",
             "--shards", "4", "--workers", "2"]
        )
        assert args.shards == 4 and args.workers == 2
        defaults = build_parser().parse_args(["query", "SELECT x, AVG(y) FROM t GROUP BY x"])
        assert defaults.shards == 1 and defaults.workers is None

    def test_query_resilience_options(self):
        args = build_parser().parse_args(
            ["query", "SELECT x, AVG(y) FROM t GROUP BY x",
             "--deadline-ms", "250", "--max-retries", "5"]
        )
        assert args.deadline_ms == 250.0 and args.max_retries == 5
        defaults = build_parser().parse_args(["query", "SELECT x, AVG(y) FROM t GROUP BY x"])
        assert defaults.deadline_ms is None and defaults.max_retries == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3a", "table3", "headline"):
            assert name in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "bogus"]) == 2

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "round" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "sampled" in out and "AA" in out

    def test_query(self, capsys):
        code = main(
            ["query",
             "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier",
             "--rows", "20000", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AVG(arrival_delay)" in out and "samples=" in out
        assert "guarantee:" in out

    def test_query_sharded_matches_unsharded(self, capsys):
        sql = "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
        base = ["query", sql, "--rows", "20000", "--seed", "3", "--engine", "memory"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--shards", "4", "--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        # Materialized table: the sharded merge is bit-identical, so the
        # printed estimates and sample counts must match exactly.
        assert sharded == plain

    def test_query_csv(self, capsys, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(
            "city,delay\nNYC,10\nNYC,12\nLA,30\nLA,28\nSF,55\nSF,54\n"
        )
        code = main(
            ["query", "SELECT city, AVG(delay) FROM trips GROUP BY city",
             "--csv", str(path), "--group-columns", "city",
             "--value-columns", "delay", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AVG(delay)" in out and "NYC" in out and "SF" in out

    def test_query_having_prints_caveat(self, capsys):
        code = main(
            ["query",
             "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier "
             "HAVING AVG(arrival_delay) > 8",
             "--rows", "20000", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "caveat:" in out and "HAVING" in out

    def test_query_deadline_exit_code_3_with_partial_result(self, capsys):
        """An expired deadline is anytime, not an error: the partial result
        still prints (with its caveat), but scripts get exit code 3 to
        distinguish it from a fully-guaranteed answer (0)."""
        code = main(
            ["query",
             "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier",
             "--rows", "20000", "--seed", "3", "--deadline-ms", "0.001"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "AVG(arrival_delay)" in out  # the partial answer is printed
        assert "deadline_exceeded" in out

    def test_query_stream(self, capsys):
        code = main(
            ["query",
             "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier",
             "--rows", "20000", "--seed", "3", "--stream"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming partial results" in out and "[1/" in out

    def test_tables_default_flights(self, capsys):
        assert main(["tables", "--rows", "5000"]) == 0
        out = capsys.readouterr().out
        assert "flights" in out and "memory" in out
        assert "carrier:str" in out and "arrival_delay:num" in out

    def test_tables_with_csv(self, capsys, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("city,delay\nNYC,10\nLA,30\n")
        assert main(["tables", "--csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trips" in out and "csv" in out and "city:str" in out
        # row counts come from the schema pass, not a materialization
        assert "2" in out

    def test_tables_named_registration(self, capsys, tmp_path):
        path = tmp_path / "whatever.csv"
        path.write_text("a,b\nx,1\n")
        assert main(["tables", "--csv", f"mytable={path}"]) == 0
        assert "mytable" in capsys.readouterr().out

    def test_describe_table(self, capsys):
        assert main(["describe", "flights", "--rows", "5000"]) == 0
        out = capsys.readouterr().out
        assert "kind: memory" in out
        assert "carrier" in out and "string" in out and "numeric" in out
        assert "cached populations: none" in out

    def test_describe_lists_resident_engine_builds(self, capsys, monkeypatch):
        import numpy as np

        from repro.session import avg, connect

        data = {"g": np.array(["a", "b"] * 50), "h": np.array(["x"] * 100), "y": np.arange(100.0)}
        session = connect().attach("t", data)
        monkeypatch.setattr("repro.cli._catalog_session", lambda args: session)
        assert main(["describe", "t"]) == 0
        out = capsys.readouterr().out
        assert "cached engines: none" in out and "cached fan-outs: none" in out
        session.table("t").group_by("g", "h").agg(avg("y")).where("y >= 10").bound(200).run(seed=0)
        session.table("t").group_by("g").agg(avg("y")).sharded(2).run(seed=0)
        assert main(["describe", "t"]) == 0
        out = capsys.readouterr().out
        assert "cached engines:\n  group by g, h, value y  (where " in out
        assert "c=200" in out
        assert "cached fan-outs:\n  group by g, value y  (needletail, 2 shards, thread" in out
        session.close()

    def test_describe_unknown_table(self, capsys):
        assert main(["describe", "nope", "--rows", "5000"]) == 2
        assert "unknown table" in capsys.readouterr().err

    def test_describe_csv(self, capsys, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("city,delay\nNYC,10\nLA,30\n")
        assert main(["describe", "trips", "--csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind: csv" in out and "delay" in out

    def test_experiments_registry_complete(self):
        # Every figure/table of the paper has a CLI entry.
        for expected in (
            "table1", "fig3a", "fig3b", "fig3c", "fig4", "fig5a", "fig5b",
            "fig5c", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "fig7c",
            "table3", "headline",
        ):
            assert expected in EXPERIMENTS


class TestStoreCLI:
    """`repro store build|ls|verify|gc` and the --store session flags."""

    @staticmethod
    def _write_csv(path):
        lines = ["g,v"]
        for i in range(400):
            lines.append(f"{'ab'[i % 2]},{(i % 2) * 40 + (i % 7)}.0")
        path.write_text("\n".join(lines) + "\n")

    def test_parser_store_subcommands(self):
        args = build_parser().parse_args(
            ["store", "build", "st", "--csv", "t.csv", "--table", "t",
             "--group-by", "g", "--value", "v"]
        )
        assert args.command == "store" and args.store_command == "build"
        assert args.store == "st" and args.table == "t"
        for sub in ("ls", "verify", "gc"):
            args = build_parser().parse_args(["store", sub, "st"])
            assert args.store_command == sub and args.store == "st"

    def test_parser_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_parser_query_store_flag(self):
        args = build_parser().parse_args(
            ["query", "SELECT g, AVG(v) FROM t GROUP BY g", "--store", "st"]
        )
        assert args.store == "st"
        default = build_parser().parse_args(
            ["query", "SELECT g, AVG(v) FROM t GROUP BY g"]
        )
        assert default.store is None

    def test_build_ls_verify_gc_roundtrip(self, capsys, tmp_path):
        csv, store = tmp_path / "t.csv", tmp_path / "store"
        self._write_csv(csv)

        assert main(["store", "build", str(store), "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "t: group by g, value v" in out and "needletail" in out

        assert main(["store", "ls", str(store)]) == 0
        out = capsys.readouterr().out
        assert "t" in out and "csv" in out

        assert main(["store", "verify", str(store)]) == 0
        assert "all checksums match" in capsys.readouterr().out

        (store / "segments" / "stray.seg.tmp").write_bytes(b"junk")
        assert main(["store", "gc", str(store)]) == 0
        out = capsys.readouterr().out
        assert "stray.seg.tmp" in out and "removed 1 orphaned" in out

    def test_verify_reports_corruption(self, capsys, tmp_path):
        import os

        csv, store = tmp_path / "t.csv", tmp_path / "store"
        self._write_csv(csv)
        assert main(["store", "build", str(store), "--csv", str(csv)]) == 0
        capsys.readouterr()

        segments = store / "segments"
        victim = segments / sorted(os.listdir(segments))[0]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(blob)
        assert main(["store", "verify", str(store)]) == 1
        err = capsys.readouterr().err
        assert "checksum" in err and "--repair" in err

    def test_verify_repair_quarantines_and_store_stays_usable(self, capsys, tmp_path):
        import os

        csv, store = tmp_path / "t.csv", tmp_path / "store"
        self._write_csv(csv)
        assert main(["store", "build", str(store), "--csv", str(csv)]) == 0
        capsys.readouterr()

        segments = store / "segments"
        victim = segments / sorted(os.listdir(segments))[0]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(blob)
        (segments / "stray.seg.tmp").write_bytes(b"junk")

        assert main(["store", "verify", str(store), "--repair"]) == 0
        out = capsys.readouterr().out
        assert f"quarantined {victim.name}" in out
        assert "removed orphan stray.seg.tmp" in out

        # The repaired store verifies clean and still answers queries
        # (the quarantined build rebuilds from its persisted source).
        assert main(["store", "verify", str(store)]) == 0
        capsys.readouterr()
        code = main(["query", "SELECT g, AVG(v) FROM t GROUP BY g",
                     "--store", str(store), "--seed", "3"])
        assert code == 0
        assert "AVG(v)" in capsys.readouterr().out

    def test_build_unknown_table(self, capsys, tmp_path):
        csv, store = tmp_path / "t.csv", tmp_path / "store"
        self._write_csv(csv)
        code = main(["store", "build", str(store), "--csv", str(csv),
                     "--table", "nope"])
        assert code == 2
        assert "unknown table" in capsys.readouterr().err

    def test_query_store_boots_warm(self, capsys, tmp_path):
        csv, store = tmp_path / "t.csv", tmp_path / "store"
        self._write_csv(csv)
        assert main(["store", "build", str(store), "--csv", str(csv)]) == 0
        capsys.readouterr()

        # no --csv: the table comes back from the store, not the filesystem
        code = main(["query", "SELECT g, AVG(v) FROM t GROUP BY g",
                     "--store", str(store), "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AVG(v)" in out and "guarantee:" in out
