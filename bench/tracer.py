"""Outside-in stage timing: wrap each pipeline stage's entry points.

Nothing under ``src/`` knows about this module.  For one traced run the
:class:`Tracer` replaces every public entry point listed in
:data:`TARGETS` -- found by identity in every loaded ``repro`` module,
so a ``from x import f`` copy is wrapped along with the original -- by a
wrapper that records one span per call and charges the call its *self
time*: its duration minus the time its child spans cover.  The spans of
one bench operation share an op id.  Aggregates are kept per bench phase
(``setup``, ``loop``, ``exact``); each phase is itself a span, and the
part of it no stage span covers is the bench's own ``unattributed``
time.

The tracer fails loudly: an entry point that no longer exists under its
listed name raises :class:`TracerError` at install time, so a rename
cannot quietly report zero time for a stage.  :meth:`Tracer.installed`
restores every original on exit, including copies that modules imported
while the wrappers were live.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = [
    "LAYERS",
    "TARGETS",
    "Tracer",
    "TracerError",
    "leftover_wrappers",
]

#: ``(layer, defining module, qualified name)`` for every wrapped entry
#: point.  The layer names are the stage names of the in-program stage
#: ledger planned in ROADMAP.md, so that ledger can later be checked
#: against this outside-in split.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("frontend", "repro.serve.service", "AdmissionService.submit"),
    ("frontend", "repro.serve.online", "OnlineAdmissionController.handle"),
    ("frontend", "repro.scale.tiles", "tiled_path_bandwidth"),
    ("frontend", "repro.core.bandwidth", "available_path_bandwidth"),
    ("route", "repro.routing.shortest_path", "route"),
    ("union", "repro.core.bandwidth", "_collect_links"),
    ("fingerprint", "repro.fingerprint", "fingerprint"),
    ("cache", "repro.serve.cache", "SolveCache.get"),
    ("cache", "repro.serve.cache", "SolveCache.put"),
    ("cache", "repro.serve.cache", "SolveCache.get_or_compute"),
    (
        "enumerate",
        "repro.core.independent_sets",
        "enumerate_maximal_independent_sets",
    ),
    ("prune", "repro.core.independent_sets", "prune_dominated"),
    ("assemble", "repro.core.bandwidth", "build_path_bandwidth_lp"),
    ("edit", "repro.core.lp", "LinearProgram.set_column"),
    ("edit", "repro.core.lp", "LinearProgram.set_rhs"),
    ("edit", "repro.core.lp", "LinearProgram.retire_column"),
    ("solve.overhead", "repro.core.lp", "LinearProgram.solve"),
    ("solve.highs", "scipy.optimize._linprog_highs", "_highs_wrapper"),
    ("extract", "repro.core.bandwidth", "path_bandwidth_from_solution"),
    ("explain", "repro.obs.explain", "top_binding_link"),
    ("explain", "repro.obs.explain", "explain_solution"),
    ("explain", "repro.core.lp", "LinearProgram.certificate"),
    ("decompose", "repro.scale.tiles", "decompose_path"),
)

#: Layer names in pipeline order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: Work counters the hooks below fill, per phase.
COUNTERS = ("enumerate.sets_out", "prune.sets_in", "prune.kept", "solve.iterations")

#: Marker attribute set on every wrapper (its value is the layer name).
_MARKER = "__bench_layer__"

#: Spans kept for the trace file; self times and call counts are
#: aggregated over every span regardless.
MAX_SPANS = 200_000


class TracerError(RuntimeError):
    """A listed entry point is missing, or wrappers outlived their run."""


def _count_sets_out(counts: Dict[str, float], args: tuple, result: Any) -> None:
    counts["enumerate.sets_out"] += len(result)


def _count_pruned(counts: Dict[str, float], args: tuple, result: Any) -> None:
    counts["prune.sets_in"] += len(args[0])
    counts["prune.kept"] += len(result)


def _count_iterations(counts: Dict[str, float], args: tuple, result: Any) -> None:
    # The same count ``LinearProgram.solve`` stores in
    # ``LpSolution.iterations``, taken once per real HiGHS call so that
    # cached re-solves are not counted twice.
    iterations = result.get("simplex_nit", 0) or result.get("ipm_nit", 0)
    counts["solve.iterations"] += iterations or 0


_HOOKS: Dict[str, Callable[[Dict[str, float], tuple, Any], None]] = {
    "enumerate_maximal_independent_sets": _count_sets_out,
    "prune_dominated": _count_pruned,
    "_highs_wrapper": _count_iterations,
}


def _scanned_modules(defining: str = "") -> List[types.ModuleType]:
    """Every loaded ``repro`` module, plus ``defining`` when given."""
    modules = []
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        if name == defining or name == "repro" or name.startswith("repro."):
            modules.append(module)
    return modules


def leftover_wrappers() -> List[str]:
    """``module.attribute`` names still bound to a tracer wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith(("repro.", "scipy.optimize"))
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if hasattr(value, _MARKER):
                found.append(f"{name}.{attribute}")
            elif isinstance(value, type):
                for method, member in list(vars(value).items()):
                    if hasattr(member, _MARKER):
                        found.append(f"{name}.{attribute}.{method}")
    return found


class Tracer:
    """Span recorder and self-time ledger for one traced run."""

    def __init__(self):
        #: Span name by index: the layers, then the bench phases.
        self.names: List[str] = list(LAYERS)
        #: Kept spans: ``(name index, start, end, span id, parent id, op)``.
        self.spans: List[Tuple[int, float, float, int, int, int]] = []
        #: Op id stamped on spans; the bench loop sets it per operation.
        self.op = -1
        #: phase -> layer -> ``[calls, self seconds]``.
        self.stats: Dict[str, Dict[str, List[float]]] = {}
        #: phase -> counter -> value.
        self.counts: Dict[str, Dict[str, float]] = {}
        #: phase -> ``[wall seconds, unattributed seconds]``.
        self.walls: Dict[str, List[float]] = {}
        self._stack: List[List[float]] = []
        self._next_id = 0
        self._stat: Dict[str, List[float]] = {}
        self._count: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, function: Callable, layer: str) -> Callable:
        tracer = self
        stack = self._stack
        spans = self.spans
        name_index = LAYERS.index(layer)
        hook = _HOOKS.get(function.__name__)
        perf = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [perf(), 0.0, span_id]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                parent = stack[-1]
                parent[1] += duration
                stat = tracer._stat[layer]
                stat[0] += 1
                stat[1] += duration - frame[1]
                if len(spans) < MAX_SPANS:
                    spans.append(
                        (name_index, frame[0], end, span_id, parent[2], tracer.op)
                    )
            if hook is not None:
                hook(tracer._count, args, result)
            return result

        setattr(wrapper, _MARKER, layer)
        return wrapper

    def install(self) -> None:
        """Wrap every target; raise :class:`TracerError` if one is missing."""
        if self._patches:
            raise TracerError("tracer is already installed")
        try:
            for layer, module_name, qualname in TARGETS:
                self._install_one(layer, module_name, qualname)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, layer: str, module_name: str, qualname: str) -> None:
        where = f"{module_name}.{qualname} (layer {layer!r})"
        try:
            module = importlib.import_module(module_name)
        except ImportError as error:
            raise TracerError(f"cannot import {where}: {error}") from error
        owner: Any = module
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if not isinstance(owner, type):
                raise TracerError(f"entry point {where} not found")
        original = vars(owner).get(attribute)
        if not callable(original):
            raise TracerError(f"entry point {where} not found")
        if hasattr(original, _MARKER):
            raise TracerError(f"entry point {where} is already wrapped")
        wrapper = self._wrap(original, layer)
        if isinstance(owner, type):
            if not isinstance(original, types.FunctionType):
                raise TracerError(f"entry point {where} is not a plain method")
            setattr(owner, attribute, wrapper)
            self._patches.append((owner, attribute, original))
            return
        patched = 0
        for scanned in _scanned_modules(module_name):
            for name, value in list(vars(scanned).items()):
                if value is original:
                    setattr(scanned, name, wrapper)
                    self._patches.append((scanned, name, original))
                    patched += 1
        if not patched:  # pragma: no cover - the defining module always holds it
            raise TracerError(f"entry point {where} was not patched anywhere")

    def restore(self) -> None:
        """Put every original back; raise if any wrapper survives."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        # Modules first imported while the wrappers were live copied a
        # wrapper instead of the original: unwrap those too.
        for module in _scanned_modules():
            for name, value in list(vars(module).items()):
                if hasattr(value, _MARKER):
                    setattr(module, name, value.__wrapped__)
        left = leftover_wrappers()
        if left:
            raise TracerError(f"wrappers left behind: {', '.join(left)}")

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the targets for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- phases -----------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Record the block as one bench phase (phases do not nest)."""
        if self._stack:
            raise TracerError(f"phase {name!r} opened inside another phase")
        self._stat = self.stats.setdefault(
            name, {layer: [0, 0.0] for layer in LAYERS}
        )
        self._count = self.counts.setdefault(name, dict.fromkeys(COUNTERS, 0))
        wall = self.walls.setdefault(name, [0.0, 0.0])
        full_name = f"bench.{name}"
        if full_name not in self.names:
            self.names.append(full_name)
        span_id = self._next_id
        self._next_id += 1
        frame = [time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            wall[0] += end - frame[0]
            wall[1] += end - frame[0] - frame[1]
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (self.names.index(full_name), frame[0], end, span_id, -1, -1)
                )

    # -- reports ----------------------------------------------------------------

    def self_seconds(self, phase: str) -> Dict[str, float]:
        """Self time per layer in ``phase``, plus ``unattributed``."""
        stats = self.stats.get(phase, {})
        table = {layer: stats.get(layer, [0, 0.0])[1] for layer in LAYERS}
        table["unattributed"] = self.walls.get(phase, [0.0, 0.0])[1]
        return table

    def calls(self, phase: str) -> Dict[str, int]:
        stats = self.stats.get(phase, {})
        return {layer: int(stats.get(layer, [0, 0.0])[0]) for layer in LAYERS}

    def wall(self, phase: str) -> float:
        return self.walls.get(phase, [0.0, 0.0])[0]

    def counter(self, phase: str, name: str) -> float:
        return self.counts.get(phase, {}).get(name, 0)

    def write_trace_events(self, path: str) -> None:
        """Write the kept spans as a Chrome/Perfetto trace-event file."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [
            {
                "name": self.names[index],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": op},
            }
            for index, start, end, span_id, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
