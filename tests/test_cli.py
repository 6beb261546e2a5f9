"""CLI tests (python -m repro)."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


SQL = ("SELECT d.d_year, count(*) AS n FROM date_dim d "
       "GROUP BY d.d_year ORDER BY d.d_year")
ARGS = ["--scale", "0.05", "--segments", "4"]


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
        ``--trace``: only the fused engine segments pipelines, and the
        EXPLAIN ANALYZE text is the same under both."""
        sql = ("SELECT i.i_category, count(*) AS n FROM store_sales ss, "
               "item i WHERE ss.ss_item_sk = i.i_item_sk "
               "GROUP BY i.i_category ORDER BY i.i_category")
        texts, segmented = [], []
        for engine in ("row", "fused"):
            trace = tmp_path / f"{engine}.json"
            assert main([
                "explain", sql, "--analyze", "--engine", engine,
                "--trace-json", str(trace),
            ] + ARGS) == 0
            texts.append(capsys.readouterr().out.split("\n\n")[0])
            events = json.loads(trace.read_text())["events"]
            segmented.append(
                sum(e["kind"] == "pipeline_segmented" for e in events)
            )
        assert "actual rows=" in texts[0]
        assert texts[0] == texts[1]
        assert segmented == [0, 1]

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
        assert main(["dump-metadata", str(path)] + ARGS) == 0
        assert path.exists()
        assert "Relation" in path.read_text(encoding="utf-8")

    def test_capture_and_replay(self, tmp_path, capsys):
        dump = tmp_path / "dump.dxl"
        assert main(["capture", str(dump), SQL] + ARGS) == 0
        assert dump.exists()
        assert main(["replay", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "plan matches the dump's expected plan: True" in out

    def test_sql_error_is_reported(self, capsys):
        # Parse/bind errors map to the dedicated ParseError exit code.
        rc = main(["explain", "SELEKT nothing"] + ARGS)
        assert rc == 3
        assert "error" in capsys.readouterr().err


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
