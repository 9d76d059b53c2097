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
