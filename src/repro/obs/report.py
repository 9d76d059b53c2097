"""Rendering and serialisation of a recorder's contents.

Two consumers: ``repro run --trace`` prints :func:`format_trace` after the
normal experiment report, and ``--trace-json`` (plus the benchmark
harness) writes :func:`run_report` — a schema-versioned JSON document that
downstream tooling can parse without scraping text.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.recorder import SCHEMA_VERSION, Recorder

__all__ = [
    "format_trace",
    "run_report",
    "write_run_report",
    "write_json_document",
    "environment_info",
]

#: Cached (resolved, value) for the git SHA lookup: one subprocess per
#: process, not one per report.
_git_sha_cache: Optional[List[Optional[str]]] = None


def _git_sha() -> Optional[str]:
    """The source tree's commit SHA, or ``None`` outside a git checkout."""
    global _git_sha_cache
    if _git_sha_cache is None:
        sha: Optional[str] = None
        try:
            completed = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=5,
            )
            if completed.returncode == 0:
                sha = completed.stdout.strip() or None
        except Exception:
            sha = None
        _git_sha_cache = [sha]
    return _git_sha_cache[0]


def environment_info() -> Dict[str, Any]:
    """Attribution block shared by run reports and history records.

    ``git_sha`` is ``None`` when the package runs outside a git checkout
    (an installed wheel, say); everything else is always present.
    """
    from repro import __version__

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "package_version": __version__,
        "git_sha": _git_sha(),
    }


def _self_seconds(span: Dict[str, Any]) -> float:
    children = sum(
        c.get("seconds", 0.0) for c in span.get("children", [])
    )
    return max(0.0, span.get("seconds", 0.0) - children)


def _span_lines(
    span: Dict[str, Any], depth: int, lines: List[str], name_width: int
) -> None:
    label = "  " * depth + span["name"]
    lines.append(
        f"  {label:<{name_width}}  {span['calls']:>7}x  "
        f"{span['seconds'] * 1e3:>10.3f} ms  "
        f"{_self_seconds(span) * 1e3:>10.3f} ms  "
        f"{span.get('max_seconds', 0.0) * 1e3:>10.3f} ms"
    )
    for child in span.get("children", []):
        _span_lines(child, depth + 1, lines, name_width)


def _max_label_width(span: Dict[str, Any], depth: int) -> int:
    width = 2 * depth + len(span["name"])
    for child in span.get("children", []):
        width = max(width, _max_label_width(child, depth + 1))
    return width


def format_trace(recorder: Recorder) -> str:
    """Indented span tree plus counter and gauge tables, as plain text."""
    snapshot = recorder.snapshot()
    parts: List[str] = ["trace:"]
    spans = snapshot["spans"]
    if spans:
        width = max(_max_label_width(span, 0) for span in spans)
        lines: List[str] = []
        for span in spans:
            _span_lines(span, 0, lines, width)
        parts.append("spans (calls, total, self, max-call):")
        parts.extend(lines)
    else:
        parts.append("spans: (none recorded)")
    counters = snapshot["counters"]
    if counters:
        name_width = max(len(name) for name in counters)
        parts.append("counters:")
        parts.extend(
            f"  {name:<{name_width}}  {value}"
            for name, value in counters.items()
        )
    else:
        parts.append("counters: (none recorded)")
    gauges = snapshot["gauges"]
    if gauges:
        name_width = max(len(name) for name in gauges)
        parts.append("gauges:")
        parts.extend(
            f"  {name:<{name_width}}  {value:g}"
            for name, value in gauges.items()
        )
    return "\n".join(parts)


def run_report(
    recorder: Recorder,
    experiments: Optional[Sequence[str]] = None,
    failures: Optional[Sequence[Any]] = None,
) -> Dict[str, Any]:
    """The machine-readable run report (the ``--trace-json`` document).

    The layout is versioned by ``schema_version`` (see
    :data:`~repro.obs.recorder.SCHEMA_VERSION`); consumers should reject
    documents whose major version they do not know.  ``failures`` is a
    sequence of :class:`~repro.experiments.failures.ItemFailure` records
    (or plain dicts) from fault-isolated sweeps; the report always carries
    a ``failures`` key so consumers can distinguish "clean run" from
    "older document without failure tracking".
    """
    snapshot = recorder.snapshot()
    failure_dicts = [
        failure.to_dict() if hasattr(failure, "to_dict") else dict(failure)
        for failure in (failures or [])
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": "repro.obs",
        "python": platform.python_version(),
        "environment": environment_info(),
        "experiments": list(experiments) if experiments is not None else [],
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot.get("histograms", {}),
        "spans": snapshot["spans"],
        "failures": failure_dicts,
    }


def write_run_report(
    recorder: Recorder,
    path: str,
    experiments: Optional[Sequence[str]] = None,
    failures: Optional[Sequence[Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write :func:`run_report` to ``path`` as JSON; returns the document.

    ``path`` ``"-"`` writes to stdout (for pipelines); the CLI prints the
    experiment tables first, so the JSON is always the last thing on the
    stream.  ``extra`` keys are merged into the document top level —
    the serve CLI embeds its slow-query log this way.
    """
    document = run_report(
        recorder, experiments=experiments, failures=failures
    )
    if extra:
        document.update(extra)
    return write_json_document(document, path)


def write_json_document(document: Any, path: str) -> Any:
    """Write ``document`` as indented JSON plus a newline; returns it.

    ``path`` ``"-"`` writes to stdout — every JSON document the CLI
    emits (run reports, timelines, ``--json`` decisions) goes through
    here, after the human-readable output.
    """
    rendered = json.dumps(document, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(rendered)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    return document
