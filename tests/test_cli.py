"""CLI tests (python -m repro)."""

from __future__ import annotations

import argparse
import json
import xml.etree.ElementTree as ET

import pytest

from repro.__main__ import build_parser, main


SQL = ("SELECT d.d_year, count(*) AS n FROM date_dim d "
       "GROUP BY d.d_year ORDER BY d.d_year")
ARGS = ["--scale", "0.05", "--segments", "4"]

_DATABASE = ("--scale", "--seed")
_CONFIG = (
    "--segments", "--disable", "--plan-cache", "--feedback",
    "--deadline-ms", "--job-limit", "--memory-quota-mb", "--engine",
    "--parallelism",
)
_TRACE = ("--trace", "--trace-json")

#: Every subcommand's flags, frozen like the door keywords in
#: test_api_surface.py: a flag is accepted only where it is read, so a
#: flag comes to a subcommand by editing this snapshot in the change
#: that reads it there.
EXPECTED_FLAGS = {
    "explain": ("--analyze", *_DATABASE, *_CONFIG, *_TRACE, "--planner",
                "--plan-cache-stats", "--no-fallback", "--slow-query-ms"),
    "memo": (*_DATABASE, *_CONFIG, *_TRACE, "--plan-cache-stats"),
    "run": ("--max-rows", *_DATABASE, *_CONFIG, *_TRACE, "--planner",
            "--plan-cache-stats", "--no-fallback", "--slow-query-ms"),
    "stats": ("--queries", "--top", "--execute", "--q-error",
              "--prometheus-out", "--json-out", *_DATABASE, *_CONFIG,
              "--no-fallback", "--slow-query-ms"),
    "serve": ("--workers", "--policy", "--queries", "--passes", "--execute",
              "--chaos-rate", "--chaos-seed", "--kill-every", "--wedge-site",
              "--request-timeout", "--report", "--flight-dir", *_DATABASE,
              *_CONFIG, "--no-fallback", "--slow-query-ms"),
    "trace": ("--out", "--fleet", "--execute", *_DATABASE, *_CONFIG,
              "--no-fallback"),
    "dump-metadata": _DATABASE,
    "capture": (*_DATABASE, *_CONFIG, *_TRACE),
    "replay": (),
    "support": (),
}


def _subcommands() -> dict:
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices


class TestFlagSnapshot:
    @pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
    def test_subcommand_flags_match_snapshot(self, command):
        flags = tuple(
            flag
            for action in _subcommands()[command]._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        )
        assert flags == EXPECTED_FLAGS[command]

    def test_every_subcommand_is_snapshotted(self):
        assert set(_subcommands()) == set(EXPECTED_FLAGS)

    @pytest.mark.parametrize("argv", [
        ["memo", SQL, "--planner"],
        ["stats", "--planner"],
        ["stats", "--trace"],
        ["serve", "--trace-json", "t.json"],
        ["trace", SQL, "--planner"],
        ["capture", "d.dxl", SQL, "--no-fallback"],
        ["dump-metadata", "m.dxl", "--segments", "4"],
    ], ids=lambda argv: argv[0] + "".join(
        a for a in argv if a.startswith("--")
    ))
    def test_a_flag_the_subcommand_ignores_is_refused(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # nothing lands in the checkout
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCLI:
    def test_explain(self, capsys):
        assert main(["explain", SQL] + ARGS) == 0
        out = capsys.readouterr().out
        assert "HashAgg" in out or "StreamAgg" in out
        assert "rows=" in out

    def test_explain_planner(self, capsys):
        assert main(["explain", SQL, "--planner"] + ARGS) == 0
        assert "->" in capsys.readouterr().out

    def test_run_prints_rows(self, capsys):
        assert main(["run", SQL] + ARGS) == 0
        out = capsys.readouterr().out
        assert "d_year | n" in out
        assert "1998 | 365" in out
        assert "simulated seconds" in out

    def test_run_max_rows_truncates(self, capsys):
        assert main([
            "run", "SELECT d.d_date_sk FROM date_dim d ORDER BY d.d_date_sk",
            "--max-rows", "3",
        ] + ARGS) == 0
        out = capsys.readouterr().out
        assert "..." in out

    def test_run_engine_fused(self, capsys):
        assert main(["run", SQL, "--engine", "fused"] + ARGS) == 0
        out = capsys.readouterr().out
        assert "1998 | 365" in out

    def test_engine_choices_agree(self, capsys):
        outs = []
        for engine in ("row", "fused"):
            assert main(["run", SQL, "--engine", engine] + ARGS) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_explain_analyze_runs_the_chosen_engine(self, tmp_path, capsys):
        """``explain --analyze`` executes on ``--engine`` and records into
        ``--trace``: the row engine compiles one operator per chain, the
        fused engine wider chains, and the EXPLAIN ANALYZE text is the
        same under both."""
        sql = ("SELECT i.i_category, count(*) AS n FROM store_sales ss, "
               "item i WHERE ss.ss_item_sk = i.i_item_sk "
               "GROUP BY i.i_category ORDER BY i.i_category")
        texts, widths = [], []
        for engine in ("row", "fused"):
            trace = tmp_path / f"{engine}.json"
            assert main([
                "explain", sql, "--analyze", "--engine", engine,
                "--trace-json", str(trace),
            ] + ARGS) == 0
            texts.append(capsys.readouterr().out.split("\n\n")[0])
            events = json.loads(trace.read_text())["events"]
            widths.append({
                e["data"]["ops"] for e in events
                if e["kind"] == "chain_compiled"
            })
        assert "actual rows=" in texts[0]
        assert texts[0] == texts[1]
        assert widths[0] == {1}
        assert max(widths[1]) > 1

    @pytest.mark.parametrize("command", [["run"], ["explain", "--analyze"]])
    def test_slow_log_record_times_the_execution(self, command, capsys):
        """``run`` and ``explain --analyze`` execute through the session,
        so the slow-log record covers the execution, not only the
        optimization."""
        argv = [command[0], SQL, *command[1:], "--slow-query-ms", "0"]
        assert main(argv + ARGS) == 0
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["reason"] == "threshold"
        assert record["exec_ms"] > 0
        assert record["duration_ms"] >= record["opt_ms"]

    def test_engine_batch_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", SQL, "--engine", "batch"] + ARGS)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'batch'" in err
        assert "'row', 'fused'" in err

    def test_memo_dump(self, capsys):
        assert main(["memo", SQL] + ARGS) == 0
        out = capsys.readouterr().out
        assert "GROUP" in out and "groups" in out

    def test_disable_feature_flag(self, capsys):
        sql = ("SELECT i.i_item_id FROM item i WHERE i.i_current_price > "
               "(SELECT avg(i2.i_current_price) FROM item i2 "
               "WHERE i2.i_category = i.i_category)")
        assert main(["explain", sql, "--disable", "decorrelation"] + ARGS) == 0
        assert "Correlated" in capsys.readouterr().out

    def test_disable_rule_by_name(self, capsys):
        assert main([
            "explain",
            "SELECT ss.ss_item_sk FROM store_sales ss, item i "
            "WHERE ss.ss_item_sk = i.i_item_sk",
            "--disable", "InnerJoin2HashJoin",
        ] + ARGS) == 0
        out = capsys.readouterr().out
        assert "HashJoin" not in out
        assert "NLJoin" in out or "MergeJoin" in out

    def test_support_counts(self, capsys):
        assert main(["support"]) == 0
        out = capsys.readouterr().out
        assert "111" in out and "31" in out and "12" in out and "19" in out

    def test_dump_metadata(self, tmp_path, capsys):
        path = tmp_path / "meta.dxl"
        assert main(["dump-metadata", str(path), "--scale", "0.05"]) == 0
        assert path.exists()
        assert "Relation" in path.read_text(encoding="utf-8")

    def test_capture_and_replay(self, tmp_path, capsys):
        dump = tmp_path / "dump.dxl"
        assert main(["capture", str(dump), SQL] + ARGS) == 0
        assert dump.exists()
        assert main(["replay", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "plan matches the dump's expected plan: True" in out

    def test_replay_of_a_non_xml_file_is_a_dxl_error(self, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_text("SELECT 1; -- not a dump\n", encoding="utf-8")
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [DXL]: ") and err.count("\n") == 1

    def test_replay_of_a_relation_without_columns_is_a_dxl_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "dump.dxl"
        assert main(["capture", str(path), SQL] + ARGS) == 0
        root = ET.parse(path).getroot()
        relation = root.find("Thread/Metadata/Relation")
        relation.remove(relation.find("Columns"))
        ET.ElementTree(root).write(path, encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error [DXL]: <Relation> has no <Columns> element\n"

    def test_replay_of_an_empty_predicate_is_a_dxl_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "dump.dxl"
        sql = "SELECT d_year FROM date_dim WHERE d_year > 1999"
        assert main(["capture", str(path), sql] + ARGS) == 0
        root = ET.parse(path).getroot()
        predicate = root.find(".//Predicate")
        for child in list(predicate):
            predicate.remove(child)
        ET.ElementTree(root).write(path, encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error [DXL]: <Predicate> has no child element\n"

    def test_sql_error_is_reported(self, capsys):
        # Parse/bind errors map to the dedicated ParseError exit code.
        rc = main(["explain", "SELEKT nothing"] + ARGS)
        assert rc == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sql", [
        "SELECT sum(*) FROM item",
        "SELECT i_category FROM item GROUP BY i_category HAVING avg(*) > 1",
        "SELECT i_category, count(DISTINCT i_brand) OVER () FROM item",
    ])
    def test_refused_call_is_a_bind_error(self, sql, capsys):
        assert main(["explain", sql] + ARGS) == 3
        assert "error [BIND]" in capsys.readouterr().err


class TestGovernedCLI:
    """Governance flags and the distinct exit codes they map to."""

    def test_no_fallback_job_limit_exits_5(self, capsys):
        rc = main(
            ["explain", SQL, "--job-limit", "3", "--no-fallback"] + ARGS
        )
        assert rc == 5
        assert "SEARCH_TIMEOUT" in capsys.readouterr().err

    def test_no_fallback_memory_quota_exits_6(self, capsys):
        rc = main(
            ["explain", SQL, "--memory-quota-mb", "0.01", "--no-fallback"]
            + ARGS
        )
        assert rc == 6
        assert "MEM_QUOTA" in capsys.readouterr().err

    def test_fallback_banner_on_explain(self, capsys):
        rc = main(["explain", SQL, "--job-limit", "3"] + ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- plan source: planner_fallback (after SEARCH_TIMEOUT)" in out

    def test_fallback_run_still_prints_rows(self, capsys):
        rc = main(["run", SQL, "--job-limit", "3"] + ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "1998 | 365" in out
        assert "planner_fallback" in out

    def test_generous_deadline_is_invisible(self, capsys):
        rc = main(["explain", SQL, "--deadline-ms", "60000"] + ARGS)
        assert rc == 0
        assert "plan source" not in capsys.readouterr().out


class TestServeCLI:
    def test_serve_with_kills_stays_available_and_drains_clean(
        self, tmp_path, capsys
    ):
        """Two workers, so two closed-loop clients; a worker is killed
        after the 3rd and the 6th of 8 requests while the other client
        keeps going."""
        import json
        import re

        report_path = tmp_path / "serve.json"
        rc = main([
            "serve", "--workers", "2", "--queries", "4", "--passes", "2",
            "--plan-cache", "--kill-every", "3",
            "--report", str(report_path),
        ] + ARGS)
        out = capsys.readouterr().out
        assert rc == 0, out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["availability"] == 1.0
        assert report["drain_clean"] is True
        assert (report["served"], report["errors"]) == (8, 0)
        assert report["restarts"] == 2
        assert len(re.findall(r"^pass \d/2: .* stmts_per_s=[\d.]+", out, re.M)) == 2
        # ``queries`` counts the live process only: a worker killed late
        # may not have been routed to again, the fleet as a whole has.
        queries = dict(re.findall(r"^worker (\d): pid=\d+ queries=(\d+)", out, re.M))
        assert set(queries) == {"0", "1"}
        assert sum(map(int, queries.values())) > 0

    def test_serve_no_fallback_surfaces_the_workers_errors(self, capsys):
        """``--no-fallback`` reaches the workers' sessions: every search
        over the job limit is an error, not a Planner plan, so the pass
        is not fully served and serve exits 1."""
        rc = main([
            "serve", "--workers", "2", "--queries", "2", "--passes", "1",
            "--job-limit", "3", "--no-fallback",
        ] + ARGS)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("error [SEARCH_TIMEOUT]") == 2
        assert "pass 1/1: 0 served, 2 errors" in captured.out

    def test_trace_fleet_no_fallback_exits_with_the_timeout_code(
        self, tmp_path, capsys
    ):
        rc = main([
            "trace", SQL, "--fleet", "1", "--job-limit", "3",
            "--no-fallback", "--out", str(tmp_path / "t.json"),
        ] + ARGS)
        assert rc == 5
        assert capsys.readouterr().err.startswith("error [SEARCH_TIMEOUT]")

    def test_serve_refuses_parallelism_with_the_typed_error_code(self, capsys):
        from repro.__main__ import exit_code_for
        from repro.errors import OptimizerError

        rc = main([
            "serve", "--workers", "2", "--queries", "2", "--passes", "1",
            "--parallelism", "2",
        ] + ARGS)
        captured = capsys.readouterr()
        assert rc == exit_code_for(OptimizerError("x")) == 2
        assert captured.err.startswith("error [OPTIMIZER]: a fleet cannot run")
        assert "Traceback" not in captured.err
        assert "pass 1/1" not in captured.out
