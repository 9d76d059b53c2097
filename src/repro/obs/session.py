"""One telemetry session per run: the recorder lifecycle and its sinks.

``repro run``, ``repro serve [--online]`` and ``tools/bench_runner.py``
record a run the same way::

    session = TelemetrySession("run", trace=True, trace_json="t.json")
    with session:                     # recorder installed, flusher live
        ...
    session.finish(["e2"], wall_seconds=wall)

A recorder exists only when a sink asks for one (event mode only for a
trace-event timeline).  The metrics flusher streams OpenMetrics / JSONL
snapshots while the block runs and stops however it ends.
:meth:`~TelemetrySession.finish` writes the span-tree text, the history
record, the run report and the timeline, in that order; a run that
fails returns before it, leaving only the final metrics flush.
"""

from __future__ import annotations

import sys
from contextlib import ExitStack
from typing import Any, Dict, Optional, Sequence

from repro.obs import history as _history
from repro.obs.export import write_trace_events
from repro.obs.metrics import MetricsFlusher
from repro.obs.recorder import Recorder, use_recorder
from repro.obs.report import format_trace, write_run_report

__all__ = ["TelemetrySession", "history_store"]


def history_store(history_dir: Optional[str] = None) -> _history.HistoryStore:
    """The run-history store in ``history_dir`` (``None``: the default).

    The default directory is looked up at call time.
    """
    return _history.HistoryStore(
        _history.DEFAULT_HISTORY_DIR if history_dir is None else history_dir
    )


class TelemetrySession:
    """A run's recorder, live metrics flusher and end-of-run sinks.

    ``trace_json`` and ``trace_events`` take ``-`` for stdout.
    ``metrics_out`` and ``metrics_jsonl`` are flushed every
    ``metrics_interval`` seconds and once at the end.  ``history`` says
    whether a history record applies at all; it goes to ``history_dir``
    under ``label``.
    """

    def __init__(
        self,
        label: str,
        *,
        trace: bool = False,
        trace_json: Optional[str] = None,
        trace_events: Optional[str] = None,
        metrics_out: Optional[str] = None,
        metrics_jsonl: Optional[str] = None,
        metrics_interval: float = 5.0,
        history: bool = False,
        history_dir: Optional[str] = None,
    ):
        self.label = label
        self.trace = trace
        self.trace_json = trace_json
        self.trace_events = trace_events
        self.history = history
        self.history_dir = history_dir
        exporting = metrics_out is not None or metrics_jsonl is not None
        wanted = (
            trace
            or history
            or exporting
            or trace_json is not None
            or trace_events is not None
        )
        self.recorder = (
            Recorder(events=trace_events is not None) if wanted else None
        )
        self._flusher = (
            MetricsFlusher(
                self.recorder, metrics_out, metrics_jsonl, metrics_interval
            )
            if exporting
            else None
        )
        self._scope = ExitStack()

    def __enter__(self) -> "TelemetrySession":
        with ExitStack() as stack:
            stack.enter_context(use_recorder(self.recorder))
            if self._flusher is not None:
                stack.enter_context(self._flusher)
            self._scope = stack.pop_all()
        return self

    def __exit__(self, *exc_info) -> None:
        self._scope.__exit__(*exc_info)

    def finish(
        self,
        experiments: Sequence[str],
        *,
        wall_seconds: float,
        fingerprint: Optional[str] = None,
        failures: Sequence[Any] = (),
        bottleneck: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
        record_history: bool = True,
    ) -> None:
        """Write the enabled sinks of a completed run.

        ``failures`` are listed in the report and counted in the history
        record, ``bottleneck`` goes to the record and ``extra`` keys to
        the report.  ``record_history=False`` skips the record.  An
        unwritable history store is reported and never fails the run.
        """
        recorder = self.recorder
        if recorder is None:
            return
        if self.trace:
            print()
            print(format_trace(recorder))
        if self.history and record_history:
            try:
                store = history_store(self.history_dir)
                record = store.append(
                    _history.build_run_record(
                        recorder,
                        experiments=experiments,
                        label=self.label,
                        wall_seconds=wall_seconds,
                        fingerprint=fingerprint,
                        failures=len(failures),
                        bottleneck=bottleneck,
                    )
                )
                print(
                    f"recorded run {record['run_id']} ({self.label}) -> "
                    f"{store.path}",
                    file=sys.stderr,
                )
            except OSError as error:
                print(f"history store unavailable: {error}", file=sys.stderr)
        if self.trace_json is not None:
            write_run_report(
                recorder, self.trace_json, experiments, failures, extra
            )
        if self.trace_events is not None:
            write_trace_events(recorder, self.trace_events)
