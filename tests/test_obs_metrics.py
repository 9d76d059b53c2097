"""Streaming telemetry: histograms, exporters, the flusher, and SLOs.

The load-bearing property is *mergeability*: bucket arrays add, so any
merge order — sequential, threaded workers, snapshot round trips —
yields identical buckets, and the quantile estimates derived from them
stay within one bucket (a factor of ``HISTOGRAM_FACTOR``) of the exact
sorted-sample statistic.  The exporter tests pin the OpenMetrics
invariants CI's real ``prometheus_client`` parser would enforce, and the
SLO tests pin the gate semantics ``tools/slo_check.py`` relies on.
"""

import json
import math
import os
import sys
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import (
    HISTOGRAM_BUCKETS,
    HISTOGRAM_FACTOR,
    HISTOGRAM_LOWEST,
    Histogram,
    MetricsFlusher,
    NULL_RECORDER,
    Recorder,
    append_metrics_jsonl,
    evaluate_slos,
    format_metrics_table,
    format_slo_results,
    load_slo_file,
    metrics_snapshot,
    read_metrics_jsonl,
    to_openmetrics,
    use_recorder,
    validate_openmetrics,
    write_openmetrics,
)
from repro.obs import recorder as recorder_module

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Sample values comfortably inside the finite bucket range (the last
#: finite edge is ~67; beyond it everything collapses into the overflow
#: bucket and the one-bucket quantile bound intentionally degrades to
#: "clamped to max").
values = st.floats(min_value=1e-4, max_value=50.0)


def _histogram(samples):
    histogram = Histogram()
    for value in samples:
        histogram.observe(value)
    return histogram


def _square(x):
    """Module-level so ProcessPoolExecutor workers can pickle it."""
    return x * x


class TestHistogram:
    def test_exact_moments(self):
        histogram = _histogram([0.5, 1.5, 2.0])
        assert histogram.count == 3
        assert histogram.sum == 4.0
        assert histogram.min == 0.5
        assert histogram.max == 2.0

    def test_bucket_edges_are_inclusive_upper(self):
        edge = HISTOGRAM_LOWEST * HISTOGRAM_FACTOR**8
        on_edge = _histogram([edge])
        above = _histogram([edge * 1.0001])
        [on_index] = on_edge.buckets()
        [above_index] = above.buckets()
        assert above_index == on_index + 1
        assert Histogram.bucket_upper_edge(on_index) >= edge

    def test_overflow_bucket_catches_huge_values(self):
        histogram = _histogram([1e9])
        [index] = histogram.buckets()
        assert index >= HISTOGRAM_BUCKETS
        assert Histogram.bucket_upper_edge(index) == math.inf
        # Quantiles clamp into [min, max]: never infinite.
        assert histogram.quantile(0.99) == 1e9

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_extremes_are_exact(self):
        histogram = _histogram([0.001, 0.5, 3.0])
        assert histogram.quantile(1.0) == 3.0
        assert histogram.quantile(0.0) >= 0.001

    def test_to_dict_round_trips(self):
        histogram = _histogram([0.01, 0.02, 5.0])
        clone = Histogram.from_dict(
            json.loads(json.dumps(histogram.to_dict()))
        )
        assert clone.to_dict() == histogram.to_dict()
        assert clone.quantile(0.5) == histogram.quantile(0.5)

    def test_merge_rejects_foreign_bucket_layout(self):
        data = _histogram([1.0]).to_dict()
        data["scheme"] = {"lowest": 1e-9, "factor": 2.0, "buckets": 64}
        with pytest.raises(ValueError, match="layouts differ"):
            Histogram().merge_dict(data)

    @given(samples=st.lists(values, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_quantile_within_one_bucket_of_sorted_sample(self, samples):
        """Nearest-rank estimate ∈ [exact, exact * FACTOR]."""
        histogram = _histogram(samples)
        ordered = sorted(samples)
        for q in (0.5, 0.9, 0.99):
            rank = min(len(samples), max(1, math.ceil(q * len(samples))))
            exact = ordered[rank - 1]
            estimate = histogram.quantile(q)
            assert exact <= estimate <= exact * HISTOGRAM_FACTOR * (1 + 1e-9)


class TestMergeProperties:
    """Merging is associative and commutative on the bucket state."""

    @staticmethod
    def _key(histogram):
        return (
            histogram.buckets(),
            histogram.count,
            histogram.min,
            histogram.max,
        )

    @given(
        xs=st.lists(values, max_size=50), ys=st.lists(values, max_size=50)
    )
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, xs, ys):
        ab = _histogram(xs)
        ab.merge(_histogram(ys))
        ba = _histogram(ys)
        ba.merge(_histogram(xs))
        assert self._key(ab) == self._key(ba)
        assert ab.sum == pytest.approx(ba.sum)

    @given(
        xs=st.lists(values, max_size=30),
        ys=st.lists(values, max_size=30),
        zs=st.lists(values, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_associative(self, xs, ys, zs):
        left = _histogram(xs)
        left.merge(_histogram(ys))
        left.merge(_histogram(zs))
        inner = _histogram(ys)
        inner.merge(_histogram(zs))
        right = _histogram(xs)
        right.merge(inner)
        assert self._key(left) == self._key(right)
        assert left.sum == pytest.approx(right.sum)

    @given(
        xs=st.lists(values, max_size=50), ys=st.lists(values, max_size=50)
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_observing_the_union(self, xs, ys):
        merged = _histogram(xs)
        merged.merge(_histogram(ys))
        union = _histogram(xs + ys)
        assert self._key(merged) == self._key(union)
        assert merged.sum == pytest.approx(union.sum)


class TestRecorderHistograms:
    def test_recorder_records_and_snapshots(self):
        recorder = Recorder()
        recorder.histogram("lat", 0.25)
        recorder.histogram("lat", 0.75)
        snapshot = recorder.snapshot()
        data = snapshot["histograms"]["lat"]
        assert data["count"] == 2
        assert data["min"] == 0.25 and data["max"] == 0.75

    def test_null_recorder_histogram_is_a_no_op(self):
        NULL_RECORDER.histogram("lat", 1.0)
        assert "lat" not in NULL_RECORDER.snapshot()["histograms"]

    def test_worker_snapshots_merge_by_bucket_addition(self):
        workers = []
        for chunk in ([0.1, 0.2], [0.3], [0.4, 0.5, 0.6]):
            recorder = Recorder()
            for value in chunk:
                recorder.histogram("lat", value)
            workers.append(recorder.snapshot())
        forward = Recorder()
        for snapshot in workers:
            forward.merge(snapshot)
        backward = Recorder()
        for snapshot in reversed(workers):
            backward.merge(snapshot)
        assert (
            forward.snapshot()["histograms"]["lat"]["counts"]
            == backward.snapshot()["histograms"]["lat"]["counts"]
        )
        assert forward.snapshot()["histograms"]["lat"]["count"] == 6

    def test_parallel_map_observes_item_seconds(self):
        from repro.experiments.parallel import fault_tolerant_map

        for workers in (None, 2):
            recorder = Recorder()
            with use_recorder(recorder):
                results = fault_tolerant_map(
                    _square, [1, 2, 3, 4], workers=workers
                )
            assert results == [1, 4, 9, 16]
            data = recorder.snapshot()["histograms"]["parallel.item_seconds"]
            assert data["count"] == 4, f"workers={workers}"

    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["a", "b", "c"]),
                    st.one_of(st.floats(), st.integers(-3, 3)),
                ),
                st.sampled_from(["snapshot", "histograms", "merge"]),
            ),
            max_size=80,
        ),
        fold_at=st.integers(1, 9),
    )
    # A NaN first in a later fold, then a smaller value: min and max
    # must compare in arrival order from the folded state.
    @example(
        steps=[("a", 1.0), "snapshot", ("a", math.nan), ("a", 0.5), ("a", 2.0)],
        fold_at=9,
    )
    @settings(max_examples=300, deadline=None)
    def test_deferred_folds_equal_observe_per_value(self, steps, fold_at):
        """Values folded at caps, at reads and before merges leave the
        state one ``Histogram.observe`` per value leaves, byte for byte,
        with the histograms in the same order."""
        worker = Recorder()
        for value in (0.1, 0.7, 3e-17):
            worker.histogram("b", value)
            worker.histogram("d", value)
        shipped = worker.snapshot()
        expected = {}
        recorder = Recorder()
        with mock.patch.object(recorder_module, "_FOLD_AT", fold_at):
            for step in steps:
                if step == "snapshot":
                    recorder.snapshot()
                elif step == "histograms":
                    recorder.histograms
                elif step == "merge":
                    recorder.merge(shipped)
                    for name, data in shipped["histograms"].items():
                        expected.setdefault(name, Histogram()).merge_dict(data)
                else:
                    name, value = step
                    recorder.histogram(name, value)
                    expected.setdefault(name, Histogram()).observe(value)
            held = recorder.histograms
        assert list(held) == list(expected)
        for name in held:
            assert held[name].buckets() == expected[name].buckets()
        assert json.dumps(
            {name: held[name].to_dict() for name in held}
        ) == json.dumps({name: expected[name].to_dict() for name in expected})

    def test_concurrent_records_and_folds_lose_no_value(self):
        """Recording threads racing each other and a reading thread
        (folds at reads and at a tiny cap) keep every value."""
        recorder = Recorder()
        writers, per_writer = 4, 3000
        done = threading.Event()

        def write(seed):
            for index in range(per_writer):
                recorder.histogram("h", 0.001 * (1 + (seed + index) % 7))

        def read():
            while not done.is_set():
                recorder.snapshot()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(recorder_module, "_FOLD_AT", 3):
                reader = threading.Thread(target=read, daemon=True)
                threads = [
                    threading.Thread(target=write, args=(seed,), daemon=True)
                    for seed in range(writers)
                ]
                reader.start()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                done.set()
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        data = recorder.snapshot()["histograms"]["h"]
        assert data["count"] == writers * per_writer
        assert sum(data["counts"].values()) == writers * per_writer

    def test_metrics_snapshot_accepts_recorder_and_dict(self):
        recorder = Recorder()
        recorder.count("c", 2)
        recorder.histogram("h", 1.0)
        from_recorder = metrics_snapshot(recorder)
        from_dict = metrics_snapshot(recorder.snapshot())
        assert from_recorder == from_dict
        assert set(from_recorder) == {"counters", "gauges", "histograms"}


class TestOpenMetrics:
    def _recorder(self):
        recorder = Recorder()
        recorder.count("serve.queries", 7)
        recorder.gauge("serve.cache.result.size", 3)
        for value in (0.001, 0.002, 0.004, 5.0):
            recorder.histogram("serve.latency_seconds", value)
        return recorder

    def test_document_validates_and_names_families(self):
        text = to_openmetrics(self._recorder())
        stats = validate_openmetrics(text)
        assert stats["families"] == 3
        assert "repro_serve_queries_total 7" in text
        assert "# TYPE repro_serve_latency_seconds histogram" in text
        assert text.endswith("# EOF\n")

    def test_bucket_series_is_cumulative_with_inf_terminal(self):
        text = to_openmetrics(self._recorder())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_latency_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # the +Inf bucket equals _count

    def test_write_to_file_and_stdout(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        write_openmetrics(self._recorder(), str(path))
        validate_openmetrics(path.read_text())
        write_openmetrics(self._recorder(), "-")
        assert "# EOF" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("repro_x_total 1\n", "does not end"),
            ("repro_x_total 1\n# EOF", "no # TYPE"),
            (
                "# TYPE repro_x counter\nrepro_x 1\n# EOF",
                "lacks _total",
            ),
            (
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 5\n'
                'repro_h_bucket{le="2"} 3\n'
                'repro_h_bucket{le="+Inf"} 5\n'
                "repro_h_sum 1\nrepro_h_count 5\n# EOF",
                "not cumulative",
            ),
            (
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="+Inf"} 4\n'
                "repro_h_sum 1\nrepro_h_count 5\n# EOF",
                "!= _count",
            ),
            (
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 4\n'
                "repro_h_sum 1\nrepro_h_count 4\n# EOF",
                "missing [+]Inf",
            ),
        ],
    )
    def test_validator_rejects_structural_damage(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            validate_openmetrics(text)


class TestJsonlStream:
    def test_append_then_read_back(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        recorder = Recorder()
        recorder.count("c", 1)
        append_metrics_jsonl(recorder, path)
        recorder.count("c", 1)
        append_metrics_jsonl(recorder, path)
        records = read_metrics_jsonl(path)
        assert [r["counters"]["c"] for r in records] == [1, 2]
        assert all("ts" in r for r in records)

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        append_metrics_jsonl(Recorder(), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ts": 1, "counters": {"tru')
        assert len(read_metrics_jsonl(path)) == 1

    def test_format_metrics_table(self):
        recorder = Recorder()
        recorder.count("serve.queries", 9)
        recorder.histogram("serve.latency_seconds", 0.5)
        text = format_metrics_table(recorder.snapshot())
        assert "serve.queries" in text and "9" in text
        assert "serve.latency_seconds" in text and "p99" in text
        assert "no metrics recorded" in format_metrics_table({})


class TestMetricsFlusher:
    def test_flush_writes_both_outputs(self, tmp_path):
        recorder = Recorder()
        recorder.count("c", 3)
        flusher = MetricsFlusher(
            recorder,
            openmetrics_path=str(tmp_path / "m.prom"),
            jsonl_path=str(tmp_path / "m.jsonl"),
        )
        assert flusher.flush()
        validate_openmetrics((tmp_path / "m.prom").read_text())
        assert read_metrics_jsonl(str(tmp_path / "m.jsonl"))

    def test_context_manager_leaves_a_final_flush(self, tmp_path):
        recorder = Recorder()
        path = tmp_path / "m.jsonl"
        with MetricsFlusher(
            recorder, jsonl_path=str(path), interval=30.0
        ) as flusher:
            recorder.count("c", 1)
        assert flusher.flushes >= 1
        assert read_metrics_jsonl(str(path))[-1]["counters"] == {"c": 1}
        assert flusher._thread is None  # joined

    def test_periodic_flushing_under_concurrent_writes(self, tmp_path):
        recorder = Recorder()
        path = tmp_path / "m.jsonl"
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                recorder.histogram("h", 0.001)

        writer = threading.Thread(target=hammer, daemon=True)
        writer.start()
        try:
            with MetricsFlusher(recorder, jsonl_path=str(path), interval=0.1):
                threading.Event().wait(0.45)
        finally:
            stop.set()
            writer.join()
        records = read_metrics_jsonl(str(path))
        assert records  # periodic ticks plus the final flush landed
        counts = [r["histograms"]["h"]["count"] for r in records]
        assert counts == sorted(counts)  # monotone snapshots


class TestObsTailCli:
    def test_tail_renders_newest_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "m.jsonl")
        recorder = Recorder()
        recorder.count("serve.queries", 4)
        recorder.histogram("serve.latency_seconds", 0.02)
        append_metrics_jsonl(recorder, path)
        assert main(["obs", "tail", path]) == 0
        out = capsys.readouterr().out
        assert "serve.queries" in out and "serve.latency_seconds" in out

    def test_tail_missing_or_empty_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "tail", str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "tail", str(empty)]) == 2


SLO_TOML = """
[[objective]]
name = "p99"
kind = "quantile"
histogram = "lat"
quantile = 0.99
max = {p99_max}

[[objective]]
name = "budget"
kind = "budget"
histogram = "lat"
threshold = {threshold}
max_fraction = {max_fraction}

[[objective]]
name = "hit-rate"
kind = "ratio"
numerator = "hits"
denominator = ["hits", "misses"]
min = {hit_min}

[[objective]]
name = "dropped"
kind = "value"
metric = "dropped"
max = 0
optional = {optional}
"""


def _slo_file(tmp_path, **overrides):
    params = {
        "p99_max": 1.0,
        "threshold": 1.0,
        "max_fraction": 0.5,
        "hit_min": 0.1,
        "optional": "true",
    }
    params.update(overrides)
    path = tmp_path / "slo.toml"
    path.write_text(SLO_TOML.format(**params))
    return str(path)


def _slo_recorder(latencies=(0.01, 0.02), hits=8, misses=2):
    recorder = Recorder()
    recorder.count("hits", hits)
    recorder.count("misses", misses)
    for value in latencies:
        recorder.histogram("lat", value)
    return recorder


class TestSloFile:
    def test_load_valid(self, tmp_path):
        config = load_slo_file(_slo_file(tmp_path))
        assert len(config["objective"]) == 4

    def test_committed_slo_file_is_valid(self):
        config = load_slo_file(os.path.join(REPO_ROOT, ".repro-slo.toml"))
        names = [o["name"] for o in config["objective"]]
        assert "p99-decision-latency" in names

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("answer = 42\n", "no \\[\\[objective\\]\\]"),
            ('[[objective]]\nkind = "value"\nmetric = "x"\n', "no name"),
            ('[[objective]]\nname = "x"\nkind = "mean"\n', "unknown kind"),
            (
                '[[objective]]\nname = "x"\nkind = "quantile"\n'
                'histogram = "h"\nmax = 1\n',
                "missing 'quantile'",
            ),
            (
                '[[objective]]\nname = "x"\nkind = "value"\nmetric = "m"\n',
                "no bound",
            ),
        ],
    )
    def test_load_rejects_invalid(self, tmp_path, body, fragment):
        path = tmp_path / "bad.toml"
        path.write_text(body)
        with pytest.raises(ValueError, match=fragment):
            load_slo_file(str(path))


class TestSloEvaluation:
    def _statuses(self, config, source):
        return {r["name"]: r["status"] for r in evaluate_slos(config, source)}

    def test_all_pass_on_healthy_metrics(self, tmp_path):
        config = load_slo_file(_slo_file(tmp_path))
        statuses = self._statuses(config, _slo_recorder())
        assert statuses == {
            "p99": "pass",
            "budget": "pass",
            "hit-rate": "pass",
            "dropped": "skipped",  # optional, never recorded
        }

    def test_quantile_ceiling_pierced(self, tmp_path):
        config = load_slo_file(_slo_file(tmp_path, p99_max=0.001))
        statuses = self._statuses(config, _slo_recorder())
        assert statuses["p99"] == "fail"

    def test_budget_charges_straddling_bucket(self, tmp_path):
        # One of four observations lands above the threshold: 25% burn
        # against a 10% budget fails even though p99 clamps to max.
        config = load_slo_file(
            _slo_file(tmp_path, threshold=0.5, max_fraction=0.1, p99_max=10)
        )
        recorder = _slo_recorder(latencies=(0.01, 0.01, 0.01, 2.0))
        statuses = self._statuses(config, recorder)
        assert statuses["budget"] == "fail"

    def test_ratio_floor_and_zero_denominator(self, tmp_path):
        config = load_slo_file(_slo_file(tmp_path, hit_min=0.95))
        assert self._statuses(config, _slo_recorder())["hit-rate"] == "fail"
        empty = _slo_recorder(hits=0, misses=0)
        assert self._statuses(config, empty)["hit-rate"] == "skipped"

    def test_missing_metric_fails_unless_optional(self, tmp_path):
        config = load_slo_file(_slo_file(tmp_path, optional="false"))
        statuses = self._statuses(config, _slo_recorder())
        assert statuses["dropped"] == "fail"

    def test_value_bound_on_recorded_counter(self, tmp_path):
        config = load_slo_file(_slo_file(tmp_path, optional="false"))
        recorder = _slo_recorder()
        recorder.count("dropped", 0)
        assert self._statuses(config, recorder)["dropped"] == "pass"
        recorder.count("dropped", 3)
        assert self._statuses(config, recorder)["dropped"] == "fail"

    def test_format_marks_failures(self, tmp_path):
        config = load_slo_file(_slo_file(tmp_path, p99_max=0.001))
        text = format_slo_results(evaluate_slos(config, _slo_recorder()))
        assert "FAIL" in text and "ok" in text and "1 failed" in text

    def test_evaluates_history_records_and_jsonl_lines(self, tmp_path):
        # The same objectives gate every metrics-bearing document shape.
        config = load_slo_file(_slo_file(tmp_path))
        recorder = _slo_recorder()
        path = str(tmp_path / "m.jsonl")
        append_metrics_jsonl(recorder, path)
        [line] = read_metrics_jsonl(path)
        assert self._statuses(config, line)["p99"] == "pass"


class TestSloCheckTool:
    @pytest.fixture(scope="class")
    def slo_check(self):
        sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
        try:
            import slo_check
        finally:
            sys.path.pop(0)
        return slo_check

    def _metrics_file(self, tmp_path, recorder=None):
        path = str(tmp_path / "m.jsonl")
        append_metrics_jsonl(recorder or _slo_recorder(), path)
        return path

    def test_pass_exits_zero(self, slo_check, tmp_path, capsys):
        code = slo_check.main(
            [self._metrics_file(tmp_path), "--slo", _slo_file(tmp_path)]
        )
        assert code == 0
        assert "passed" in capsys.readouterr().out

    def test_burn_exits_one(self, slo_check, tmp_path, capsys):
        code = slo_check.main(
            [
                self._metrics_file(tmp_path),
                "--slo",
                _slo_file(tmp_path, p99_max=0.0001),
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unusable_inputs_exit_two(self, slo_check, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert (
            slo_check.main([missing, "--slo", _slo_file(tmp_path)]) == 2
        )
        capsys.readouterr()
        bad_slo = tmp_path / "bad.toml"
        bad_slo.write_text("answer = 42\n")
        code = slo_check.main(
            [self._metrics_file(tmp_path), "--slo", str(bad_slo)]
        )
        assert code == 2

    def test_reads_json_run_reports_too(self, slo_check, tmp_path):
        report = tmp_path / "trace.json"
        report.write_text(json.dumps(metrics_snapshot(_slo_recorder())))
        assert (
            slo_check.main([str(report), "--slo", _slo_file(tmp_path)]) == 0
        )
