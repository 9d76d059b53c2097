"""Admission-query serving layer: caches, warm starts, batching.

The stateless solver core answers one Eq. 6 question per call; this
package turns it into a query engine.  :class:`AdmissionService` binds a
topology, interference model and background mix, then answers candidate
(path, demand) queries out of fingerprint-keyed LRU caches
(:class:`SolveCache`) — enumeration artifacts, warm-startable master
LPs, memoised results — and :class:`BatchSession` amortizes a whole
query batch so enumeration runs once per distinct link union.
:class:`OnlineAdmissionController` closes the loop for *streaming*
workloads: it consumes churn events (arrivals, departures, node
down/up), keeps the carried-flow set itself, and re-solves each arrival
incrementally against warm per-union master LPs while staying
byte-identical to a cold Eq. 6 solve.  The CLI front ends are
``repro serve --queries queries.jsonl`` and ``repro serve --online``.

Both engines take ``explain=True`` (CLI ``--explain``) to attach a
:class:`~repro.obs.explain.Explanation` — dual certificate, binding
cliques, crowd-out attribution — to every decision; the flight
recorder's slow log names each query's top binding link either way.

Both engines answer through one :class:`MasterSession`, and its cached
answers are exactly the cold solver's answers: every cache is keyed on
the same link universe the cold path enumerates over, and the warm path
edits the cached program into the identical one (see
:mod:`repro.serve.session`).
"""

from repro.serve.cache import SolveCache
from repro.serve.flight import (
    DEFAULT_SLOW_LOG_SIZE,
    FlightRecorder,
    format_slow_log,
)
from repro.serve.io import (
    decision_to_dict,
    load_background,
    load_queries,
    online_decision_from_dict,
    online_decision_to_dict,
    path_from_nodes,
    summarize_decisions,
    summarize_online_decisions,
)
from repro.serve.online import (
    OnlineAdmissionController,
    OnlineDecision,
    run_online_session,
)
from repro.serve.service import (
    AdmissionDecision,
    AdmissionQuery,
    AdmissionService,
    BatchSession,
)
from repro.serve.session import MasterSession

__all__ = [
    "AdmissionDecision",
    "AdmissionQuery",
    "AdmissionService",
    "BatchSession",
    "MasterSession",
    "OnlineAdmissionController",
    "OnlineDecision",
    "run_online_session",
    "SolveCache",
    "FlightRecorder",
    "DEFAULT_SLOW_LOG_SIZE",
    "format_slow_log",
    "decision_to_dict",
    "load_background",
    "load_queries",
    "online_decision_from_dict",
    "online_decision_to_dict",
    "path_from_nodes",
    "summarize_decisions",
    "summarize_online_decisions",
]
