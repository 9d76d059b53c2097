"""Chrome trace-event export: event-mode timelines for Perfetto.

:func:`to_trace_events` turns an event-mode recorder (or its snapshot)
into the Chrome trace-event JSON object format — ``{"traceEvents":
[...]}`` — that https://ui.perfetto.dev and ``chrome://tracing`` load
directly.  Each timeline becomes one *track* (a ``tid``): track 0 is the
recording process itself, and every worker snapshot merged under
``parallel.worker[<i>]`` gets its own track named after that label, in
merge (= submission) order, so the export is deterministic for a given
run shape.

Timestamps are rebased per track to that track's own recorder origin
(``perf_counter`` readings never compare across processes), emitted in
microseconds as complete-duration ``"X"`` events.  Begin events whose
end fell past the bounded buffer are closed at the track's last seen
timestamp; orphaned end events are dropped.  ``otherData.dropped_events``
totals what the ring buffers refused, so a truncated export is
detectable.

CLI: ``repro run e3 --workers 4 --trace-events out.json`` (``-`` writes
to stdout for pipelines).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.report import write_json_document

__all__ = ["to_trace_events", "write_trace_events"]

#: Version of the exported document's ``otherData`` envelope.
TRACE_EVENTS_SCHEMA_VERSION = 1


def _complete_events(
    records: Sequence[Sequence[Any]], origin: float
) -> List[Tuple[str, float, float, int]]:
    """Pair B/E records into ``(name, start, duration, depth)`` tuples.

    ``start`` is rebased to ``origin`` (seconds).  The pairing walks a
    stack, so properly nested input yields properly nested intervals;
    events orphaned by buffer truncation are handled as documented in
    the module docstring.
    """
    stack: List[Tuple[str, float]] = []
    completes: List[Tuple[str, float, float, int]] = []
    last_seen = origin
    for phase, name, timestamp in records:
        last_seen = max(last_seen, timestamp)
        if phase == "B":
            stack.append((name, timestamp))
        elif phase == "E" and stack and stack[-1][0] == name:
            _, begin = stack.pop()
            completes.append(
                (name, begin - origin, timestamp - begin, len(stack))
            )
    while stack:  # still open at truncation: close at the last timestamp
        name, begin = stack.pop()
        completes.append(
            (name, begin - origin, max(0.0, last_seen - begin), len(stack))
        )
    # Chronological, outermost first at equal start times.
    completes.sort(key=lambda item: (item[1], -item[2], item[3]))
    return completes


def _micros(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_trace_events(source) -> Dict[str, Any]:
    """The Chrome trace-event document for ``source``.

    ``source`` is an event-mode :class:`~repro.obs.Recorder` or a
    snapshot dict carrying an ``events`` key.  Raises ``ValueError`` for
    an aggregate-mode source — there is no timeline to export.
    """
    snapshot = source if isinstance(source, dict) else source.snapshot()
    own = snapshot.get("events")
    if own is None:
        raise ValueError(
            "trace-event export needs an event-mode recorder "
            "(Recorder(events=True)); this snapshot has no event timeline"
        )
    tracks = [
        {
            "label": "main",
            "pid": own.get("pid"),
            "origin": own.get("origin", 0.0),
            "records": own.get("records", []),
            "dropped": own.get("dropped", 0),
        }
    ]
    tracks.extend(snapshot.get("tracks", []))

    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro"},
        }
    ]
    dropped_total = 0
    for tid, track in enumerate(tracks):
        dropped_total += int(track.get("dropped", 0))
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {
                    "name": track.get("label", f"track[{tid}]"),
                    "source_pid": track.get("pid"),
                    "dropped": int(track.get("dropped", 0)),
                },
            }
        )
        for name, start, duration, depth in _complete_events(
            track.get("records", []), track.get("origin", 0.0)
        ):
            events.append(
                {
                    "name": name,
                    "cat": "span",
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": _micros(start),
                    "dur": _micros(duration),
                    "args": {"depth": depth},
                }
            )
    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "schema_version": TRACE_EVENTS_SCHEMA_VERSION,
            "tracks": len(tracks),
            "dropped_events": dropped_total,
        },
        "traceEvents": events,
    }


def write_trace_events(source, path: str) -> Dict[str, Any]:
    """Write :func:`to_trace_events` to ``path`` (``-`` = stdout)."""
    return write_json_document(to_trace_events(source), path)
