"""The counter regression gate (tools/bench_compare.py)."""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_compare():
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        import bench_compare
    finally:
        sys.path.pop(0)
    return bench_compare


BASELINE_COUNTERS = {
    "enum.dfs_nodes": 100,
    "enum.sets_found": 30,
    "enum.maximal_sets_emitted": 60,
    "cg.iterations": 10,
    "cg.columns_added": 5,
    "lp.solves": 20,
}


def make_baseline(counters=None, hops=4, label="seed"):
    """A minimal BENCH_<date>.json document with one counter-bearing run."""
    counters = BASELINE_COUNTERS if counters is None else counters
    return {
        "runs": [
            {
                "label": label,
                "solver_scaling": [
                    {"hops": hops, "counters": {"end_to_end": dict(counters)}}
                ],
            }
        ]
    }


def write(path, document):
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


class TestCompare:
    def test_equal_counters_pass(self, bench_compare):
        lines, regressions = bench_compare.compare(
            dict(BASELINE_COUNTERS), dict(BASELINE_COUNTERS)
        )
        assert regressions == []
        assert all("ok" in line for line in lines)

    def test_growth_is_a_regression(self, bench_compare):
        grown = dict(BASELINE_COUNTERS, **{"lp.solves": 21})
        lines, regressions = bench_compare.compare(grown, BASELINE_COUNTERS)
        assert regressions == ["lp.solves: 21 > baseline 20"]
        assert any("REGRESSION" in line for line in lines)

    def test_drop_is_an_improvement_not_a_failure(self, bench_compare):
        shrunk = dict(BASELINE_COUNTERS, **{"enum.dfs_nodes": 50})
        lines, regressions = bench_compare.compare(shrunk, BASELINE_COUNTERS)
        assert regressions == []
        assert any("improved" in line for line in lines)

    def test_tolerance_absorbs_growth(self, bench_compare):
        grown = dict(BASELINE_COUNTERS, **{"lp.solves": 21})
        _, regressions = bench_compare.compare(
            grown, BASELINE_COUNTERS, tolerance=0.10
        )
        assert regressions == []

    def test_missing_counter_fails(self, bench_compare):
        partial = dict(BASELINE_COUNTERS)
        del partial["cg.iterations"]
        _, regressions = bench_compare.compare(partial, BASELINE_COUNTERS)
        assert regressions == ["cg.iterations: missing from smoke trace"]


class TestBaselineCounters:
    def test_sums_segments(self, bench_compare):
        document = {
            "runs": [
                {
                    "label": "two-segment",
                    "solver_scaling": [
                        {
                            "hops": 4,
                            "counters": {
                                "enumeration": {"enum.dfs_nodes": 60},
                                "end_to_end": {
                                    "enum.dfs_nodes": 40,
                                    "lp.solves": 20,
                                },
                            },
                        }
                    ],
                }
            ]
        }
        label, totals = bench_compare.baseline_counters(document)
        assert label == "two-segment"
        assert totals == {"enum.dfs_nodes": 100, "lp.solves": 20}

    def test_counterless_baseline_raises(self, bench_compare):
        document = {
            "runs": [{"label": "old", "solver_scaling": [{"hops": 4}]}]
        }
        with pytest.raises(LookupError):
            bench_compare.baseline_counters(document)


class TestMainExitCodes:
    def test_clean_run_exits_zero(self, bench_compare, tmp_path, capsys):
        trace = write(
            tmp_path / "trace.json", {"counters": dict(BASELINE_COUNTERS)}
        )
        baseline = write(tmp_path / "BENCH_2026-01-01.json", make_baseline())
        assert bench_compare.main([trace, "--baseline", baseline]) == 0
        assert "no counter regressions" in capsys.readouterr().out

    def test_regression_exits_one(self, bench_compare, tmp_path, capsys):
        grown = dict(BASELINE_COUNTERS, **{"enum.dfs_nodes": 101})
        trace = write(tmp_path / "trace.json", {"counters": grown})
        baseline = write(tmp_path / "BENCH_2026-01-01.json", make_baseline())
        assert bench_compare.main([trace, "--baseline", baseline]) == 1
        assert "regressions detected" in capsys.readouterr().err

    def test_missing_trace_exits_two(self, bench_compare, tmp_path, capsys):
        baseline = write(tmp_path / "BENCH_2026-01-01.json", make_baseline())
        missing = str(tmp_path / "nope.json")
        assert bench_compare.main([missing, "--baseline", baseline]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, bench_compare, tmp_path, capsys):
        trace = write(
            tmp_path / "trace.json", {"counters": dict(BASELINE_COUNTERS)}
        )
        missing = str(tmp_path / "nope.json")
        assert bench_compare.main([trace, "--baseline", missing]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_trace_exits_two(self, bench_compare, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text('{"counters": {truncated', encoding="utf-8")
        baseline = write(tmp_path / "BENCH_2026-01-01.json", make_baseline())
        code = bench_compare.main([str(trace), "--baseline", baseline])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_malformed_baseline_exits_two(
        self, bench_compare, tmp_path, capsys
    ):
        trace = write(
            tmp_path / "trace.json", {"counters": dict(BASELINE_COUNTERS)}
        )
        baseline = tmp_path / "BENCH_2026-01-01.json"
        baseline.write_text("not json at all", encoding="utf-8")
        code = bench_compare.main([trace, "--baseline", str(baseline)])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_non_object_trace_exits_two(self, bench_compare, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text("[1, 2, 3]", encoding="utf-8")
        baseline = write(tmp_path / "BENCH_2026-01-01.json", make_baseline())
        code = bench_compare.main([str(trace), "--baseline", baseline])
        assert code == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_counterless_baseline_exits_two(
        self, bench_compare, tmp_path, capsys
    ):
        trace = write(
            tmp_path / "trace.json", {"counters": dict(BASELINE_COUNTERS)}
        )
        baseline = write(
            tmp_path / "BENCH_2026-01-01.json",
            {"runs": [{"label": "old", "solver_scaling": [{"hops": 4}]}]},
        )
        assert bench_compare.main([trace, "--baseline", baseline]) == 2
        assert "no run with per-segment counters" in capsys.readouterr().err


class TestHistoryMode:
    """The history-store baseline source (``--history DIR``)."""

    def _seed(self, tmp_path, counters_list):
        from repro.obs import HistoryStore, Recorder, build_run_record

        store = HistoryStore(str(tmp_path / "h"))
        for counters in counters_list:
            recorder = Recorder()
            for name, value in counters.items():
                recorder.count(name, value)
            store.append(
                build_run_record(
                    recorder, experiments=["bench"], label="bench-smoke"
                )
            )
        return str(tmp_path / "h")

    def test_identical_runs_exit_zero(self, bench_compare, tmp_path, capsys):
        root = self._seed(
            tmp_path, [dict(BASELINE_COUNTERS), dict(BASELINE_COUNTERS)]
        )
        assert bench_compare.main(["--history", root]) == 0
        assert "no counter regressions" in capsys.readouterr().out

    def test_counter_growth_exits_one(self, bench_compare, tmp_path, capsys):
        grown = dict(BASELINE_COUNTERS, **{"lp.solves": 21})
        root = self._seed(tmp_path, [dict(BASELINE_COUNTERS), grown])
        assert bench_compare.main(["--history", root]) == 1
        assert "regressions detected" in capsys.readouterr().err

    def test_single_run_exits_zero(self, bench_compare, tmp_path, capsys):
        root = self._seed(tmp_path, [dict(BASELINE_COUNTERS)])
        assert bench_compare.main(["--history", root]) == 0
        assert "nothing to gate against" in capsys.readouterr().out

    def test_empty_store_exits_two(self, bench_compare, tmp_path, capsys):
        root = str(tmp_path / "empty")
        assert bench_compare.main(["--history", root]) == 2
        assert "no counter-bearing runs" in capsys.readouterr().err

    def test_history_and_trace_together_is_usage_error(
        self, bench_compare, tmp_path, capsys
    ):
        trace = write(
            tmp_path / "trace.json", {"counters": dict(BASELINE_COUNTERS)}
        )
        code = bench_compare.main([trace, "--history", str(tmp_path / "h")])
        assert code == 2

    def test_no_inputs_is_usage_error(self, bench_compare, capsys):
        assert bench_compare.main([]) == 2
        assert "required" in capsys.readouterr().err


class TestSloGate:
    """``--slo``: the SLO check rides on top of the counter gate."""

    def _slo(self, tmp_path, hit_min="0.3"):
        path = tmp_path / "slo.toml"
        path.write_text(
            "[[objective]]\n"
            'name = "hit-rate"\nkind = "ratio"\n'
            'numerator = "serve.cache.result.hits"\n'
            'denominator = ["serve.cache.result.hits", '
            '"serve.cache.result.misses"]\n'
            f"min = {hit_min}\n"
        )
        return str(path)

    def _history(self, tmp_path, runs):
        from repro.obs import HistoryStore, Recorder, build_run_record

        store = HistoryStore(str(tmp_path / "h"))
        for counters in runs:
            recorder = Recorder()
            for name, value in {**BASELINE_COUNTERS, **counters}.items():
                recorder.count(name, value)
            store.append(
                build_run_record(
                    recorder, experiments=["bench"], label="bench-smoke"
                )
            )
        return str(tmp_path / "h")

    HEALTHY = {
        "serve.cache.result.hits": 8,
        "serve.cache.result.misses": 2,
    }
    # Hit-rate collapses (0/2 < 0.3) while no gated counter *grows*:
    # hits dropping reads as an improvement to the counter gate, so only
    # the SLO check can catch this regression.
    STARVED = {
        "serve.cache.result.hits": 0,
        "serve.cache.result.misses": 2,
    }

    def test_burn_fails_even_without_counter_regression(
        self, bench_compare, tmp_path, capsys
    ):
        root = self._history(tmp_path, [self.HEALTHY, self.STARVED])
        code = bench_compare.main(
            ["--history", root, "--slo", self._slo(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "no counter regressions" in out and "FAIL" in out

    def test_healthy_candidate_passes(self, bench_compare, tmp_path, capsys):
        root = self._history(tmp_path, [self.HEALTHY, self.HEALTHY])
        code = bench_compare.main(
            ["--history", root, "--slo", self._slo(tmp_path)]
        )
        assert code == 0
        assert "1 passed" in capsys.readouterr().out

    def test_single_run_store_still_slo_gated(
        self, bench_compare, tmp_path, capsys
    ):
        root = self._history(tmp_path, [self.STARVED])
        code = bench_compare.main(
            ["--history", root, "--slo", self._slo(tmp_path)]
        )
        assert code == 1

    def test_trace_mode_applies_slo_too(
        self, bench_compare, tmp_path, capsys
    ):
        baseline = write(tmp_path / "baseline.json", make_baseline())
        trace = write(
            tmp_path / "trace.json",
            {"counters": {**BASELINE_COUNTERS, **self.STARVED}},
        )
        code = bench_compare.main(
            [
                trace,
                "--baseline",
                baseline,
                "--slo",
                self._slo(tmp_path),
            ]
        )
        assert code == 1

    def test_unreadable_slo_file_exits_two(
        self, bench_compare, tmp_path, capsys
    ):
        root = self._history(tmp_path, [self.HEALTHY, self.HEALTHY])
        code = bench_compare.main(
            ["--history", root, "--slo", str(tmp_path / "missing.toml")]
        )
        assert code == 2


class TestSmokeGate:
    """The smoke measurements against the committed baseline file."""

    @pytest.fixture(scope="class")
    def bench_runner(self):
        sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
        try:
            import bench_runner
        finally:
            sys.path.pop(0)
        return bench_runner

    def test_smoke_counters_pass_committed_baseline(
        self, bench_compare, bench_runner, tmp_path, capsys
    ):
        from repro.obs import Recorder, use_recorder, write_run_report

        recorder = Recorder()
        with use_recorder(recorder):
            bench_runner.measure_solver_scaling(lengths=(4,), repeats=1)
            before = dict(recorder.counters)
            bench_runner.measure_scale(repeats=1, n_nodes=96)
        leaked = {
            name
            for name, value in recorder.counters.items()
            if value != before.get(name) and not name.startswith("scale.")
        }
        assert leaked == set()
        trace = str(tmp_path / "trace.json")
        write_run_report(recorder, trace)
        assert bench_compare.main([trace]) == 0
        assert "no counter regressions" in capsys.readouterr().out


class TestRunnerSinks:
    """``tools/bench_runner.py``'s sinks, with the measurements stubbed.

    The stubs record a few counters on the ambient recorder; what is
    pinned is where they land: run report, trace-event timeline,
    OpenMetrics file, metrics JSONL stream and run-history record.
    """

    @pytest.fixture
    def stubbed_runner(self, monkeypatch):
        import collections

        sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
        try:
            import bench_runner
        finally:
            sys.path.pop(0)
        from repro.obs import get_recorder

        def row():
            return collections.defaultdict(lambda: 1.0)

        def scaling(lengths=(4,), repeats=1):
            recorder = get_recorder()
            with recorder.span("bench.stub"):
                recorder.count("lp.solves", 3)
            return [row() for _ in lengths]

        def segment(*args, **kwargs):
            get_recorder().count("serve.queries")
            return row()

        outcome = {"returncode": 0}
        monkeypatch.setattr(bench_runner, "measure_solver_scaling", scaling)
        for name in (
            "measure_serve_throughput", "measure_online_churn",
            "measure_scale",
        ):
            monkeypatch.setattr(bench_runner, name, segment)
        monkeypatch.setattr(
            bench_runner,
            "run_pytest_benchmarks",
            lambda smoke=False: {**outcome, "summary": "stub"},
        )
        return bench_runner, outcome

    def _sinks(self, tmp_path):
        return [
            "--trace-json", str(tmp_path / "trace.json"),
            "--trace-events", str(tmp_path / "events.json"),
            "--history-dir", str(tmp_path / "history"),
            "--metrics-out", str(tmp_path / "metrics.prom"),
            "--metrics-jsonl", str(tmp_path / "metrics.jsonl"),
        ]

    def test_smoke_writes_every_sink(self, stubbed_runner, tmp_path, capsys):
        from repro.obs import (
            HistoryStore,
            args_fingerprint,
            read_metrics_jsonl,
            validate_openmetrics,
        )

        bench_runner, _ = stubbed_runner
        for _ in range(2):
            assert bench_runner.main(["--smoke", *self._sinks(tmp_path)]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "trace.json").read_text())
        assert report["experiments"] == ["bench"]
        assert report["counters"]["lp.solves"] == 3
        assert report["counters"]["serve.queries"] == 3
        events = json.loads((tmp_path / "events.json").read_text())
        assert any(e["name"] == "bench.stub" for e in events["traceEvents"])
        prom = (tmp_path / "metrics.prom").read_text()
        assert validate_openmetrics(prom)["families"] > 0
        newest = read_metrics_jsonl(str(tmp_path / "metrics.jsonl"))[-1]
        assert newest["counters"] == report["counters"]
        records = HistoryStore(str(tmp_path / "history")).runs()
        assert [r["label"] for r in records] == ["bench-smoke"] * 2
        for record in records:
            assert record["experiments"] == ["bench"]
            assert record["args_fingerprint"] == args_fingerprint(
                {"lengths": [4], "repeats": 1}
            )

    def test_smoke_without_history_dir_records_nothing(
        self, stubbed_runner, tmp_path, capsys
    ):
        from repro.obs import HistoryStore, history

        bench_runner, _ = stubbed_runner
        assert bench_runner.main(["--smoke"]) == 0
        capsys.readouterr()
        assert HistoryStore(history.DEFAULT_HISTORY_DIR).runs() == []

    @pytest.mark.parametrize("returncode, recorded", [(0, 1), (1, 0)])
    def test_full_run_records_only_when_pytest_passed(
        self, stubbed_runner, tmp_path, capsys, returncode, recorded
    ):
        from repro.obs import HistoryStore, args_fingerprint

        bench_runner, outcome = stubbed_runner
        outcome["returncode"] = returncode
        code = bench_runner.main(
            [
                "--label", "pinned",
                "--output", str(tmp_path / "bench.json"),
                *self._sinks(tmp_path),
            ]
        )
        assert code == (0 if returncode == 0 else 1)
        capsys.readouterr()
        records = HistoryStore(str(tmp_path / "history")).runs()
        assert len(records) == recorded
        for record in records:
            assert record["label"] == "pinned"
            assert record["args_fingerprint"] == args_fingerprint(
                {
                    "lengths": list(bench_runner.LENGTHS),
                    "repeats": bench_runner.REPEATS,
                }
            )
        # The report and metrics are written whether or not pytest passed.
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "metrics.prom").exists()
