"""The telemetry session: recorder lifecycle and sink order."""

import json

import pytest

from repro.obs import (
    NULL_RECORDER,
    HistoryStore,
    TelemetrySession,
    get_recorder,
    read_metrics_jsonl,
)


class TestTelemetrySession:
    def test_no_sink_means_no_recorder(self, capsys):
        session = TelemetrySession("run")
        assert session.recorder is None
        with session:
            assert get_recorder() is NULL_RECORDER
        session.finish(["e2"], wall_seconds=1.0)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "sinks, events",
        [
            ({"trace": True}, False),
            ({"trace_json": "-"}, False),
            ({"metrics_jsonl": "m.jsonl"}, False),
            ({"history": True}, False),
            ({"trace_events": "-"}, True),
        ],
    )
    def test_any_sink_asks_for_a_recorder(self, sinks, events):
        recorder = TelemetrySession("run", **sinks).recorder
        assert recorder is not None
        assert ("events" in recorder.snapshot()) == events

    def test_recorder_installed_only_inside_the_block(self):
        session = TelemetrySession("run", trace=True)
        with session:
            assert get_recorder() is session.recorder
        assert get_recorder() is NULL_RECORDER

    def test_error_stops_flusher_and_restores_recorder(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        session = TelemetrySession("run", metrics_jsonl=path)
        with pytest.raises(RuntimeError):
            with session:
                get_recorder().count("work.done", 2)
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER
        assert read_metrics_jsonl(path)[-1]["counters"] == {"work.done": 2}

    def test_finish_writes_sinks_in_order(self, tmp_path, capsys):
        history = str(tmp_path / "h")
        session = TelemetrySession(
            "demo",
            trace=True,
            trace_json="-",
            trace_events="-",
            history=True,
            history_dir=history,
        )
        with session:
            with get_recorder().span("demo.step"):
                get_recorder().count("demo.items", 3)
        session.finish(
            ["demo"],
            wall_seconds=0.5,
            fingerprint="f" * 16,
            failures=[{"item": "x"}],
            extra={"note": 1},
        )
        captured = capsys.readouterr()
        trace, _, documents = captured.out.partition("\n{")
        assert "demo.step" in trace and "demo.items" in trace
        report_text, _, timeline_text = ("{" + documents).partition("}\n{")
        report = json.loads(report_text + "}")
        timeline = json.loads("{" + timeline_text)
        assert report["experiments"] == ["demo"]
        assert report["failures"] == [{"item": "x"}]
        assert report["note"] == 1
        assert "traceEvents" in timeline
        (record,) = HistoryStore(history).runs()
        assert record["label"] == "demo"
        assert record["failures"] == 1
        assert record["args_fingerprint"] == "f" * 16
        assert "(demo)" in captured.err

    def test_record_history_false_skips_the_record(self, tmp_path):
        history = str(tmp_path / "h")
        session = TelemetrySession("run", history=True, history_dir=history)
        with session:
            pass
        session.finish([], wall_seconds=0.0, record_history=False)
        assert HistoryStore(history).runs() == []

    def test_unwritable_store_never_fails_the_run(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        session = TelemetrySession(
            "run", history=True, history_dir=str(blocker / "h")
        )
        with session:
            pass
        session.finish(["e2"], wall_seconds=0.0)
        assert "history store unavailable" in capsys.readouterr().err
