"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "e2", "a1"])
        assert args.experiments == ["e2", "a1"]


class TestMain:
    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "a3" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_list_marks_parallel_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = {
            line.split()[0]: line
            for line in out.splitlines()
            if line.strip() and line.split()[0] in {"e3", "e4", "a1"}
        }
        assert "*" in lines["e3"] and "*" in lines["e4"]
        assert "*" not in lines["a1"]
        assert "accepts --workers" in out

    def test_run_e2(self, capsys):
        assert main(["run", "e2"]) == 0
        out = capsys.readouterr().out
        assert "16.200" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_mixed_known_unknown(self, capsys):
        assert main(["run", "nope", "e2"]) == 2
        captured = capsys.readouterr()
        assert "16.200" in captured.out


class TestFailurePaths:
    def test_bad_fault_spec_is_usage_error(self, capsys):
        assert main(["run", "e2", "--inject-faults", "gremlin@1"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_absorbed_solver_fault_identical_output(self, capsys):
        assert main(["run", "e2"]) == 0
        clean = capsys.readouterr().out
        assert main(["run", "e2", "--inject-faults", "solver@1"]) == 0
        assert capsys.readouterr().out == clean

    def test_fatal_solver_fault_exits_one(self, capsys):
        assert main(["run", "e2", "--inject-faults", "solver-fatal@1"]) == 1
        captured = capsys.readouterr()
        assert "e2:" in captured.err
        assert "attempts" in captured.err

    def test_partial_failure_reported_exit_zero(self, capsys):
        code = main(
            ["run", "e4", "--flows", "2", "--inject-faults", "worker@1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FAILURES: 1 item(s)" in out
        assert "hop-count" in out

    def test_strict_escalates_partial_failure(self, capsys):
        code = main(
            [
                "run",
                "e4",
                "--flows",
                "2",
                "--inject-faults",
                "worker@1",
                "--strict",
            ]
        )
        assert code == 1
        assert "FAILURES" in capsys.readouterr().out

    def test_failures_embedded_in_trace_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "run",
                "e4",
                "--flows",
                "2",
                "--inject-faults",
                "worker@1",
                "--trace-json",
                str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        import json

        report = json.loads(trace.read_text())
        assert len(report["failures"]) == 1
        failure = report["failures"][0]
        assert failure["experiment_id"] == "e4"
        assert failure["item_key"] == "hop-count"
        assert failure["error_type"] == "InjectedWorkerCrash"
        assert report["counters"]["failures.items"] == 1

    def test_clean_trace_json_has_empty_failures(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["run", "e2", "--trace-json", str(trace)]) == 0
        capsys.readouterr()
        import json

        assert json.loads(trace.read_text())["failures"] == []


class TestCheckpointCli:
    def test_resume_is_byte_identical(self, tmp_path, capsys):
        run = ["run", "e4", "--flows", "2"]
        assert main(run) == 0
        clean = capsys.readouterr().out

        ckpt = str(tmp_path / "runs")
        # Interrupted run: one item crashes, the others are checkpointed.
        assert (
            main(
                run
                + ["--checkpoint-dir", ckpt, "--inject-faults", "worker@2"]
            )
            == 0
        )
        assert "FAILURES" in capsys.readouterr().out
        # Resume without faults: only the missing item re-runs, and the
        # tables match an uninterrupted run byte for byte.
        assert main(run + ["--checkpoint-dir", ckpt, "--resume"]) == 0
        assert capsys.readouterr().out == clean

    def test_without_resume_clears_previous_items(self, tmp_path, capsys):
        from repro.experiments.checkpoint import CheckpointStore

        ckpt = str(tmp_path / "runs")
        run = ["run", "e4", "--flows", "2", "--checkpoint-dir", ckpt]
        assert main(run) == 0
        capsys.readouterr()
        store = CheckpointStore(f"{ckpt}/e4", "e4")
        assert len(store.keys()) == 3
        store.store("stale-item", "junk")
        assert main(run) == 0
        capsys.readouterr()
        assert "stale-item" not in store.keys()

    def test_mismatched_checkpoint_dir_is_usage_error(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "runs"
        (ckpt / "e2").mkdir(parents=True)
        (ckpt / "e2" / "MANIFEST.json").write_text(
            '{"schema_version": 1, "experiment_id": "e9"}\n'
        )
        code = main(["run", "e2", "--checkpoint-dir", str(ckpt)])
        assert code == 2
        assert "belongs to" in capsys.readouterr().err


class TestExplainVerdict:
    """``repro explain --demand`` admits exactly what ``repro serve`` admits.

    On ``n0 -> n1 -> n8`` of the paper's seed-8 topology 3.0 Mbps is
    available; both front ends admit within the 1e-6 Mbps tolerance of
    :meth:`~repro.core.bandwidth.PathBandwidthResult.supports`.
    """

    @pytest.mark.parametrize(
        "demand, verdict", [("3.0000004", "admit"), ("3.01", "reject")]
    )
    def test_explain_agrees_with_serve(self, tmp_path, capsys, demand, verdict):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            json.dumps(
                {"id": "q1", "path": ["n0", "n1", "n8"],
                 "demand_mbps": float(demand)}
            )
            + "\n"
        )
        assert main(
            ["serve", "--queries", str(queries), "--paper-seed", "8",
             "--no-history"]
        ) == 0
        served = capsys.readouterr().out.splitlines()[1].split()
        assert served[:2] == ["q1", verdict]
        assert main(
            ["explain", "--path", "n0,n1,n8", "--demand", demand,
             "--paper-seed", "8", "--no-map"]
        ) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith(f"query: {verdict} ")
        assert "(3.000000 Mbps available)" in first


_SINK_QUERIES = (
    '{"id": "q1", "path": ["n0", "n1", "n8"], "demand_mbps": 2.0}\n'
    '{"id": "q2", "path": ["n1", "n8"], "demand_mbps": 4.0}\n'
    '{"id": "q3", "path": ["n0", "n1", "n8"], "demand_mbps": 2.0}\n'
)


class TestTelemetrySinks:
    """Every sink a command's flags allow, asserted per entry point.

    ``repro run``, ``repro serve`` and ``repro serve --online`` each
    write the trace text, the run report, the OpenMetrics file, the
    metrics JSONL stream and a run-history record (``run`` also the
    trace-event timeline).  Two identical runs must record the same
    label, experiments and args fingerprint.
    """

    @pytest.mark.parametrize(
        "argv, label, experiment, counter, explain",
        [
            pytest.param(
                ["run", "e2"], "run", "e2", ("experiment.runs", 1), False,
                id="run",
            ),
            pytest.param(
                ["serve", "--queries", "{queries}", "--paper-seed", "8"],
                "serve", "serve", ("serve.queries", 3), False,
                id="serve",
            ),
            pytest.param(
                ["serve", "--queries", "{queries}", "--paper-seed", "8",
                 "--explain"],
                "serve", "serve", ("serve.queries", 3), True,
                id="serve-explain",
            ),
            pytest.param(
                ["serve", "--online", "--events", "60"],
                "serve-online", "serve-online", ("online.events", 60),
                False, id="serve-online",
            ),
            pytest.param(
                ["serve", "--online", "--events", "60", "--explain"],
                "serve-online", "serve-online", ("online.events", 60),
                True, id="serve-online-explain",
            ),
        ],
    )
    def test_every_sink(
        self, tmp_path, capsys, argv, label, experiment, counter, explain
    ):
        from repro.obs import HistoryStore, read_metrics_jsonl
        from repro.obs import validate_openmetrics

        queries = tmp_path / "queries.jsonl"
        queries.write_text(_SINK_QUERIES)
        argv = [arg.format(queries=queries) for arg in argv]
        history = str(tmp_path / "history")
        reports = []
        for attempt in range(2):
            out = tmp_path / f"attempt{attempt}"
            out.mkdir()
            sinks = [
                "--trace",
                "--trace-json", str(out / "trace.json"),
                "--metrics-out", str(out / "metrics.prom"),
                "--metrics-jsonl", str(out / "metrics.jsonl"),
                "--history-dir", history,
            ]
            if argv[0] == "run":
                sinks += ["--trace-events", str(out / "events.json")]
            assert main(argv + sinks) == 0
            captured = capsys.readouterr()
            assert "trace:" in captured.out
            assert "recorded" in captured.err

            report = json.loads((out / "trace.json").read_text())
            assert report["experiments"] == [experiment]
            assert report["failures"] == []
            assert report["counters"][counter[0]] == counter[1]
            if argv[0] == "serve":
                slow = report["slow_queries"]
                assert slow["records_seen"] > 0
            else:
                assert "slow_queries" not in report
                events = json.loads((out / "events.json").read_text())
                assert events["otherData"]["generator"] == "repro.obs"

            prom = (out / "metrics.prom").read_text()
            assert validate_openmetrics(prom)["families"] > 0
            newest = read_metrics_jsonl(str(out / "metrics.jsonl"))[-1]
            assert newest["counters"] == report["counters"]
            reports.append(report)

        records = HistoryStore(history).runs()
        assert len(records) == 2
        for record in records:
            assert record["label"] == label
            assert record["experiments"] == [experiment]
            assert record["failures"] == 0
            assert ("bottleneck" in record) == explain
        assert records[0]["args_fingerprint"] is not None
        assert (
            records[0]["args_fingerprint"] == records[1]["args_fingerprint"]
        )

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["run", "e2"], id="run"),
            pytest.param(
                ["serve", "--queries", "{queries}", "--paper-seed", "8"],
                id="serve",
            ),
            pytest.param(
                ["serve", "--online", "--events", "60"], id="serve-online"
            ),
        ],
    )
    def test_untraced_exports_record_no_history(self, tmp_path, capsys, argv):
        from repro.obs import HistoryStore, read_metrics_jsonl

        queries = tmp_path / "queries.jsonl"
        queries.write_text(_SINK_QUERIES)
        argv = [arg.format(queries=queries) for arg in argv]
        history = str(tmp_path / "history")
        jsonl = str(tmp_path / "metrics.jsonl")
        code = main(
            argv + ["--metrics-jsonl", jsonl, "--history-dir", history]
        )
        assert code == 0
        assert "trace:" not in capsys.readouterr().out
        assert read_metrics_jsonl(jsonl)
        assert HistoryStore(history).runs() == []

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["serve", "--queries", "{queries}", "--paper-seed", "8"],
                id="serve",
            ),
            pytest.param(
                ["serve", "--online", "--events", "60"], id="serve-online"
            ),
        ],
    )
    def test_stdout_json_comes_last(self, tmp_path, capsys, argv):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(_SINK_QUERIES)
        argv = [arg.format(queries=queries) for arg in argv]
        code = main(
            argv + ["--trace", "--no-history", "--json", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        brace = out.index("\n{") + 1
        assert "trace:" in out[:brace]
        document = json.loads(out[brace:])
        assert document["decisions"]
        assert "summary" in document


def _cli_surface(parser, prefix=""):
    """``{command: sorted option strings}`` over every (sub)parser."""
    import argparse

    table = {}
    options = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_cli_surface(sub, f"{prefix} {name}".strip()))
        elif action.option_strings:
            options.extend(action.option_strings)
        else:
            options.append(f"<{action.dest}>")
    table[prefix] = sorted(options)
    return table


class TestCliSurface:
    """The exact flag set of every subcommand; adding or dropping a
    flag must be a deliberate edit of this table."""

    def test_surface_is_pinned(self):
        assert _cli_surface(build_parser()) == _CLI_SURFACE


#: Every subcommand's flags; adding or dropping one edits this table.
_CLI_SURFACE = {
    "": ["--help", "-h"],
    "explain": [
        "--background", "--demand", "--help", "--json", "--max-sets",
        "--model", "--no-map", "--paper-seed", "--path", "--topology",
        "-h", "<query_id>",
    ],
    "list": ["--help", "-h"],
    "obs": ["--help", "-h"],
    "obs diff": [
        "--help", "--history-dir", "--span-threshold", "--strict",
        "--threshold", "-h", "<runs>",
    ],
    "obs history": [
        "--help", "--history-dir", "--keep", "--limit", "--max-age", "-h",
        "<run_id>",
    ],
    "obs last": ["--help", "--history-dir", "-h"],
    "obs tail": ["--follow", "--help", "--interval", "-f", "-h", "<path>"],
    "run": [
        "--checkpoint-dir", "--flow-seed", "--flows", "--help",
        "--history-dir", "--inject-faults", "--metrics-interval",
        "--metrics-jsonl", "--metrics-out", "--no-history", "--resume",
        "--strict", "--tile-size", "--topology-seed", "--trace",
        "--trace-events", "--trace-json", "--workers", "-h",
        "<experiments>",
    ],
    "serve": [
        "--background", "--cache-capacity", "--decisions-out", "--events",
        "--explain", "--help", "--history-dir", "--json", "--max-sets",
        "--metrics-interval", "--metrics-jsonl", "--metrics-out", "--model",
        "--no-history", "--online", "--paper-seed", "--queries",
        "--slow-log", "--stream-seed", "--strict", "--topology", "--trace",
        "--trace-json", "--workers", "-h",
    ],
    "verify": [
        "--help", "--instances", "--json", "--profile", "--seed", "-h",
    ],
}


def _live_flushers():
    import threading

    return {
        thread
        for thread in threading.enumerate()
        if thread.name == "repro-metrics-flusher" and thread.is_alive()
    }


class TestFlusherLifecycle:
    """No command leaves its metrics flusher thread running."""

    def test_bad_fault_spec_leaves_no_flusher(self, tmp_path, capsys):
        before = _live_flushers()
        code = main(
            [
                "run", "e2", "--inject-faults", "bogus@1",
                "--metrics-out", str(tmp_path / "m.prom"),
            ]
        )
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err
        assert _live_flushers() <= before

    def test_crashing_experiment_stops_the_flusher(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli

        def crash(experiment_id, args):
            def run():
                raise RuntimeError("experiment blew up")

            return run

        monkeypatch.setattr(cli, "_configured_runner", crash)
        prom = tmp_path / "m.prom"
        before = _live_flushers()
        with pytest.raises(RuntimeError, match="blew up"):
            main(["run", "e2", "--metrics-out", str(prom)])
        assert _live_flushers() <= before
        # The final flush still ran on the way out.
        assert prom.read_text().endswith("# EOF\n")
