"""Deterministic process-pool fan-out for experiment sweeps.

Kept separate from :mod:`repro.experiments.runner` so experiment modules
can import it without touching the experiment registry (which imports the
experiment modules — a cycle otherwise).

:func:`fault_tolerant_map` maps a function over items, in-process or
across a process pool, with results in input order either way.  With no
failure collector active it is fail-fast: the first exception aborts
the sweep.  Under a collector a worker exception (or a crashed worker
process) records a structured
:class:`~repro.experiments.failures.ItemFailure` and leaves a ``None``
hole in the result list instead of killing the sweep; items stranded by
a broken process pool are re-executed in-process (MapReduce-style
re-execution), so one dead worker costs one item, not the run.  When a
checkpoint store is active (``repro run --checkpoint-dir``), completed
items are persisted and previously stored items are loaded instead of
re-executed — a resumed sweep is byte-identical to an uninterrupted one.

When a recorder is active (``repro run --trace``), each worker process
records into a fresh :class:`~repro.obs.Recorder` and ships its snapshot
back with the result; the parent grafts them in submission order under
``parallel.worker[<i>]`` spans, so a parallel trace carries per-worker
wall time and the workers' solver counters.  Tracing never changes the
results — the same items run through the same ``fn`` either way.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.experiments.checkpoint import get_checkpoint_store
from repro.experiments.failures import ItemFailure, record_failure
from repro.obs import Recorder, get_recorder, use_recorder

__all__ = ["fault_tolerant_map", "set_worker_fault_hook"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Test-only hook (see :mod:`repro.testing.faults`): called once per
#: dispatched item of a fault-tolerant sweep with the item's key; a truthy
#: return crashes that item's worker (parallel) or fails the item
#: (sequential).  ``None`` (the default) is free.
_worker_fault_hook: Optional[Callable[[str], bool]] = None


def set_worker_fault_hook(hook: Optional[Callable[[str], bool]]) -> None:
    """Install (or with ``None`` remove) the worker fault-injection hook."""
    global _worker_fault_hook
    _worker_fault_hook = hook


def _isolated_call(
    payload: Tuple[Callable[[Any], Any], Any, bool, bool, bool],
) -> Tuple[Any, float, Optional[Dict[str, Any]]]:
    """Worker-side wrapper for fault-tolerant sweeps.

    ``crash`` is the parent's fault-injection decision: the worker process
    exits hard (``os._exit``), exactly like a segfaulting or OOM-killed
    worker, which surfaces in the parent as ``BrokenProcessPool``.
    """
    fn, item, crash, traced, events = payload
    if crash:
        os._exit(77)
    if not traced:
        return fn(item), 0.0, None
    recorder = Recorder(events=events)
    started = time.perf_counter()
    with use_recorder(recorder):
        result = fn(item)
    seconds = time.perf_counter() - started
    recorder.histogram("parallel.item_seconds", seconds)
    return result, seconds, recorder.snapshot()


def _injected_crash_failure(key: str, seed: Optional[int]) -> ItemFailure:
    return ItemFailure(
        item_key=key,
        error_type="InjectedWorkerCrash",
        message="worker process crashed (injected fault)",
        seed=seed,
    )


def fault_tolerant_map(
    fn: Callable[[_ItemT], _ResultT],
    items: Sequence[_ItemT],
    workers: Optional[int] = None,
    item_keys: Optional[Sequence[str]] = None,
    item_seeds: Optional[Sequence[Optional[int]]] = None,
) -> List[Optional[_ResultT]]:
    """Map ``fn`` over ``items`` with per-item fault isolation.

    With ``workers`` ``None``/``<= 1`` (or fewer than two pending items)
    the items run in-process; otherwise they are dispatched to a
    :class:`~concurrent.futures.ProcessPoolExecutor`, so ``fn`` and every
    item must be picklable.  Results come back in input order either way
    — parallelism never changes the output.  On top of that:

    * a failed item records an
      :class:`~repro.experiments.failures.ItemFailure` with the active
      collector (:func:`~repro.experiments.failures.collect_failures`)
      and yields ``None`` at its position — the sweep continues.  With no
      collector active the original exception propagates (fail-fast);
    * a crashed worker *process* breaks the pool, but not the sweep: the
      items stranded by the break are re-executed in-process, in input
      order, so only items that fail deterministically are lost;
    * when a checkpoint store is active
      (:func:`~repro.experiments.checkpoint.use_checkpoint_store`),
      previously completed items are loaded instead of executed and new
      completions are persisted under ``item_keys`` — the resume path.

    ``item_keys`` names each item stably across runs (required for
    checkpointing to resume correctly); it defaults to ``item[<i>]``.
    ``item_seeds`` optionally attaches a reproduction seed per item to its
    failure record.
    """
    items = list(items)
    keys = (
        [str(key) for key in item_keys]
        if item_keys is not None
        else [f"item[{index}]" for index in range(len(items))]
    )
    if len(keys) != len(items):
        raise ValueError("item_keys must match items in length")
    seeds: List[Optional[int]] = (
        list(item_seeds) if item_seeds is not None else [None] * len(items)
    )
    if len(seeds) != len(items):
        raise ValueError("item_seeds must match items in length")

    recorder = get_recorder()
    store = get_checkpoint_store()
    results: List[Optional[_ResultT]] = [None] * len(items)
    pending: List[int] = []
    for index in range(len(items)):
        if store is not None:
            found, value = store.load(keys[index])
            if found:
                results[index] = value
                continue
        pending.append(index)
    if not pending:
        return results

    hook = _worker_fault_hook
    crashes = {
        index: bool(hook(keys[index])) if hook is not None else False
        for index in pending
    }

    def _run_inline(index: int) -> None:
        """Execute one item in-process with isolation bookkeeping."""
        if crashes[index]:
            failure = _injected_crash_failure(keys[index], seeds[index])
            record_failure(
                failure,
                error=RuntimeError(failure.message),
            )
            return
        try:
            if recorder.enabled:
                started = time.perf_counter()
                with recorder.span(f"parallel.worker[{index}]"):
                    result = fn(items[index])
                recorder.histogram(
                    "parallel.item_seconds", time.perf_counter() - started
                )
            else:
                result = fn(items[index])
        except (Exception, SystemExit) as error:
            record_failure(
                ItemFailure.from_exception(
                    keys[index], error, seed=seeds[index]
                ),
                error=error,
            )
            return
        results[index] = result
        if store is not None:
            store.store(keys[index], result)

    if workers is None or workers <= 1 or len(pending) <= 1:
        for index in pending:
            _run_inline(index)
        return results

    traced = recorder.enabled
    events = getattr(recorder, "events_enabled", False)
    stranded: List[int] = []
    broke = False
    with ProcessPoolExecutor(
        max_workers=min(workers, len(pending))
    ) as pool:
        futures = {
            index: pool.submit(
                _isolated_call,
                (fn, items[index], crashes[index], traced, events),
            )
            for index in pending
        }
        for index in pending:
            try:
                result, seconds, snapshot = futures[index].result()
            except BrokenProcessPool:
                broke = True
                stranded.append(index)
                continue
            except (Exception, SystemExit) as error:
                record_failure(
                    ItemFailure.from_exception(
                        keys[index], error, seed=seeds[index]
                    ),
                    error=error,
                )
                continue
            if snapshot is not None:
                recorder.merge(
                    snapshot,
                    under=f"parallel.worker[{index}]",
                    seconds=seconds,
                )
            results[index] = result
            if store is not None:
                store.store(keys[index], result)
    if broke:
        recorder.count("parallel.broken_pool")
    for index in stranded:
        if not crashes[index]:
            recorder.count("parallel.retried_items")
        _run_inline(index)
    return results
