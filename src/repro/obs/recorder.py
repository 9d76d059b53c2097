"""The recorder: nested span timers plus counter/gauge registries.

One :class:`Recorder` holds everything a run produces:

* **spans** — wall-clock timers opened with ``recorder.span("name")`` as a
  context manager.  Spans nest; siblings with the same name under the same
  parent aggregate into one tree node (call count + total seconds), so a
  column-generation loop with 200 iterations stays one line in the tree,
  not 200.
* **counters** — monotonically increasing integers (``recorder.count``),
  e.g. cache hits, DFS nodes visited, columns generated.
* **gauges** — last-written values (``recorder.gauge``), e.g. the row /
  column / nonzero dimensions of the most recent LP.
* **histograms** — streaming log-bucketed distributions
  (``recorder.histogram``), e.g. per-decision serve latency.  Buckets
  merge by addition, so worker snapshots combine to identical state in
  any merge order (see :mod:`repro.obs.metrics`).  Recording a value
  only appends it to the name's list of pending values; the pending
  values are folded into the buckets, in arrival order, whenever the
  histograms are read (``histograms``, ``snapshot``, ``merge`` and so
  every export) and whenever one list reaches :data:`_FOLD_AT` values,
  so memory stays bounded and every read sees exactly the state one
  ``Histogram.observe`` per value would give.

Instrumentation sites never hold a recorder; they fetch the *current* one
through :func:`get_recorder`.  The default is :data:`NULL_RECORDER`, whose
methods are no-ops and whose ``span`` returns one shared, reusable null
context manager — disabled instrumentation costs one global lookup and one
no-op call, nothing is allocated.  Recording changes no computation:
results are bit-identical with tracing on or off (pinned by
``tests/test_obs_instrumentation.py``).

Worker processes cannot share the parent's recorder; they record into a
fresh one and ship back :meth:`Recorder.snapshot`, which the parent grafts
with :meth:`Recorder.merge` (counters add, gauges last-win, span trees
attach under the current span).  Merging in submission order keeps traces
deterministic.

Beyond the aggregate tree, ``Recorder(events=True)`` opts into **event
mode**: every span begin/end additionally lands in a bounded
:class:`~repro.obs.events.EventBuffer` (individual events, monotonic
timestamps), and snapshots merged from workers are kept as separate
*tracks* so :mod:`repro.obs.export` can emit one timeline per worker.
Aggregate mode and the null recorder never allocate for events.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.events import DEFAULT_MAX_EVENTS, EventBuffer
from repro.obs.metrics import Histogram

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "SCHEMA_VERSION",
    "get_recorder",
    "set_recorder",
    "use_recorder",
]

#: Version of the snapshot / ``--trace-json`` document layout.  Bump when
#: a key is renamed or removed; additions are backward compatible.
SCHEMA_VERSION = 1

#: Pending values one histogram name holds before they are folded into
#: its buckets.  A fold per value costs about a third of an
#: ``observe``; the cap only bounds memory.
_FOLD_AT = 1024


class SpanNode:
    """One node of the aggregated span tree."""

    __slots__ = ("name", "calls", "seconds", "max_seconds", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        #: Longest single activation — exposes skew the total hides.
        self.max_seconds = 0.0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "seconds": self.seconds,
            "max_seconds": self.max_seconds,
            "children": [c.to_dict() for c in self.children.values()],
        }


class _SpanHandle:
    """Context manager for one span activation; reports its own duration."""

    __slots__ = ("_recorder", "_node", "_start", "seconds")

    def __init__(self, recorder: "Recorder", node: SpanNode):
        self._recorder = recorder
        self._node = node
        self._start = 0.0
        #: Duration of this activation, set on exit (0.0 while open).
        self.seconds = 0.0

    def __enter__(self) -> "_SpanHandle":
        recorder = self._recorder
        recorder._stack.append(self._node)
        self._start = time.perf_counter()
        events = recorder._events
        if events is not None:
            events.append("B", self._node.name, self._start)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        elapsed = end - self._start
        self.seconds = elapsed
        node = self._node
        node.calls += 1
        node.seconds += elapsed
        if elapsed > node.max_seconds:
            node.max_seconds = elapsed
        recorder = self._recorder
        recorder._stack.pop()
        events = recorder._events
        if events is not None:
            events.append("E", node.name, end)
        return False


class _NullSpan:
    """Shared no-op span; reused so disabled spans allocate nothing."""

    __slots__ = ()
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder with every operation disabled (the default)."""

    __slots__ = ()
    enabled = False
    events_enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def histogram(self, name: str, value: float) -> None:
        pass

    def merge(
        self,
        snapshot: Dict[str, Any],
        under: Optional[str] = None,
        seconds: Optional[float] = None,
    ) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": [],
        }


#: The process-wide disabled recorder.
NULL_RECORDER = NullRecorder()


class Recorder:
    """An enabled recorder: span tree, counters and gauges.

    ``events=True`` additionally captures an individual begin/end event
    per span activation (bounded by ``max_events``) and keeps worker
    snapshots merged with :meth:`merge` as separate event *tracks* — the
    raw material for the Chrome trace-event export.  The default
    aggregate mode allocates nothing for events.
    """

    enabled = True

    def __init__(
        self, events: bool = False, max_events: int = DEFAULT_MAX_EVENTS
    ):
        self._root = SpanNode("<root>")
        self._stack: List[SpanNode] = [self._root]
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Values recorded but not yet folded, per histogram name.
        self._pending: Dict[str, List[float]] = {}
        #: Serialises folds (a metrics flusher reads from its own thread).
        self._fold_lock = threading.Lock()
        self._events: Optional[EventBuffer] = (
            EventBuffer(max_events) if events else None
        )
        #: Zero point of this recorder's event clock.
        self._origin = time.perf_counter() if events else 0.0
        #: Event tracks adopted from merged worker snapshots.
        self._tracks: List[Dict[str, Any]] = []

    # -- recording -------------------------------------------------------------

    def span(self, name: str) -> _SpanHandle:
        """A context manager timing one activation of span ``name``.

        The span becomes (or extends) the child of the currently open span,
        so nesting reflects the call structure.  The handle's ``seconds``
        attribute holds this activation's duration after exit.
        """
        return _SpanHandle(self, self._stack[-1].child(name))

    def count(self, name: str, value: int = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def histogram(self, name: str, value: float) -> None:
        """Record ``value`` into the streaming histogram ``name``.

        The value is appended to the name's pending list and reaches the
        buckets at the next fold (see the module docstring).
        """
        pending = self._pending.get(name)
        if pending is None:
            self._histograms.setdefault(name, Histogram())
            pending = self._pending.setdefault(name, [])
        pending.append(float(value))
        if len(pending) >= _FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        """Fold every pending value into its histogram, in arrival order.

        A value appended by another thread while a fold runs lands
        after the slice the fold takes and waits for the next fold.
        """
        with self._fold_lock:
            for name, pending in list(self._pending.items()):
                taken = len(pending)
                if taken:
                    self._histograms[name].observe_all(pending[:taken])
                    del pending[:taken]

    # -- reading ---------------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Counter values by name (a copy)."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        """Gauge values by name (a copy)."""
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """The :class:`~repro.obs.metrics.Histogram` objects by name,
        every value recorded so far folded in (a later value reaches
        them at the next fold)."""
        self._fold()
        return dict(self._histograms)

    @property
    def root(self) -> SpanNode:
        """Root of the span tree (its children are the top-level spans)."""
        return self._root

    @property
    def events_enabled(self) -> bool:
        """Whether this recorder captures per-event timelines."""
        return self._events is not None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state: schema version, counters, gauges, span tree.

        In event mode the snapshot additionally carries this recorder's
        own event timeline under ``events`` and any adopted worker
        timelines under ``tracks``; aggregate-mode snapshots are
        unchanged (no extra keys), so trace documents stay byte-stable
        when event mode is off.
        """
        self._fold()
        counters = dict(self._counters)
        if self._events is not None:
            # Truncated timelines must be visible, not silent: the events
            # this recorder's own buffer refused surface as a counter
            # (worker buffers bring theirs through the counter merge).
            counters["obs.events.dropped"] = (
                counters.get("obs.events.dropped", 0) + self._events.dropped
            )
        snap = {
            "schema_version": SCHEMA_VERSION,
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].to_dict()
                for k in sorted(self._histograms)
            },
            "spans": [c.to_dict() for c in self._root.children.values()],
        }
        if self._events is not None:
            snap["events"] = self._events.to_dict(os.getpid(), self._origin)
            if self._tracks:
                snap["tracks"] = [dict(track) for track in self._tracks]
        return snap

    # -- merging ---------------------------------------------------------------

    def merge(
        self,
        snapshot: Dict[str, Any],
        under: Optional[str] = None,
        seconds: Optional[float] = None,
    ) -> None:
        """Graft a :meth:`snapshot` (e.g. from a worker process).

        Counters add, gauges last-win, histogram buckets add (order
        never matters — bucket addition commutes), and the snapshot's
        span trees attach
        beneath the currently open span — inside a synthetic child named
        ``under`` when given (e.g. ``"parallel.worker[3]"``).  The
        synthetic span's duration is ``seconds`` when given (the worker's
        measured wall time), else the sum of the snapshot's top-level
        spans.  Call in submission order to keep merged traces
        deterministic.

        When both sides run in event mode, the snapshot's event timeline
        is adopted as a separate *track* labelled ``under`` (timestamps
        from another process never splice into this recorder's own
        timeline — they share no clock).
        """
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            self._gauges[name] = value
        self._fold()
        with self._fold_lock:  # no fold may run into a half-merged histogram
            for name, data in snapshot.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = Histogram()
                    self._histograms[name] = histogram
                histogram.merge_dict(data)
        spans = snapshot.get("spans", [])
        parent = self._stack[-1]
        if under is not None:
            synthetic = parent.child(under)
            synthetic.calls += 1
            if seconds is None:
                seconds = sum(s.get("seconds", 0.0) for s in spans)
            synthetic.seconds += seconds
            if seconds > synthetic.max_seconds:
                synthetic.max_seconds = seconds
            parent = synthetic
        for span in spans:
            _graft(parent, span)
        if self._events is not None:
            worker_events = snapshot.get("events")
            if worker_events is not None and worker_events.get("records"):
                self._tracks.append(
                    {
                        "label": under
                        if under is not None
                        else f"track[{len(self._tracks)}]",
                        "pid": worker_events.get("pid"),
                        "origin": worker_events.get("origin", 0.0),
                        "records": [
                            list(record)
                            for record in worker_events["records"]
                        ],
                        "dropped": worker_events.get("dropped", 0),
                    }
                )
            for track in snapshot.get("tracks", []):
                self._tracks.append(dict(track))


def _graft(parent: SpanNode, span: Dict[str, Any]) -> None:
    node = parent.child(span["name"])
    node.calls += span.get("calls", 0)
    node.seconds += span.get("seconds", 0.0)
    node.max_seconds = max(node.max_seconds, span.get("max_seconds", 0.0))
    for child in span.get("children", []):
        _graft(node, child)


#: The current recorder; instrumentation sites read it via get_recorder().
_current: "NullRecorder | Recorder" = NULL_RECORDER


def get_recorder():
    """The recorder instrumentation should write to (never ``None``)."""
    return _current


def set_recorder(recorder) -> None:
    """Install ``recorder`` as current; ``None`` restores the null one."""
    global _current
    _current = NULL_RECORDER if recorder is None else recorder


@contextmanager
def use_recorder(recorder) -> Iterator["NullRecorder | Recorder"]:
    """Install ``recorder`` for the duration of the ``with`` block."""
    global _current
    previous = _current
    _current = NULL_RECORDER if recorder is None else recorder
    try:
        yield _current
    finally:
        _current = previous
