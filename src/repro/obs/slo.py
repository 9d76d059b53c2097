"""Service-level objectives over metrics snapshots.

An SLO file (default ``.repro-slo.toml``) declares bounds on the
metrics a run emits — tail-latency ceilings on histograms, hit-rate
floors on counter pairs, error budgets on the fraction of observations
past a threshold — and :func:`evaluate_slos` checks one metrics
snapshot against them.  ``tools/slo_check.py`` wraps this as a CLI with
a pass/fail exit code; CI runs it on the smoke lanes' metrics exports,
so it fails on budget burn rather than only on counter regressions.

Objective kinds (``[[objective]]`` tables in the TOML file):

``quantile``
    ``quantile`` of histogram ``histogram`` must be ``<= max`` (and/or
    ``>= min``).  The estimate is the streaming nearest-rank value, so
    the bound should allow one bucket (~19%) of slack.
``budget``
    The fraction of observations in ``histogram`` above ``threshold``
    must be ``<= max_fraction``.  A bucket straddling the threshold is
    charged entirely against the budget — burn is never understated.
``ratio``
    ``numerator`` counter divided by the sum of the ``denominator``
    counters must be ``>= min`` (and/or ``<= max``); hit-rate floors.
    A zero denominator skips the objective (no traffic, no verdict).
``value``
    The counter or gauge ``metric`` itself bounded by ``min``/``max``.

Any objective may set ``optional = true``: a metric that was never
recorded then yields status ``skipped`` instead of ``fail`` — used for
instrumentation that only exists in some modes (event buffers, say).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Histogram, metrics_snapshot

__all__ = [
    "DEFAULT_SLO_FILE",
    "load_slo_file",
    "evaluate_slos",
    "format_slo_results",
]

#: Where objectives live unless ``--slo`` says otherwise.
DEFAULT_SLO_FILE = ".repro-slo.toml"

_KINDS = ("quantile", "budget", "ratio", "value")


def load_slo_file(path: str = DEFAULT_SLO_FILE) -> Dict[str, Any]:
    """Parse and validate an SLO TOML file.

    Returns the parsed document (``{"objective": [...]}``); raises
    ``ValueError`` on a structurally invalid file — an objective without
    a name, an unknown kind, or a kind missing its required keys.  CI
    must never silently gate on zero objectives, so an empty objective
    list is also an error.
    """
    import tomllib

    with open(path, "rb") as handle:
        config = tomllib.load(handle)
    objectives = config.get("objective")
    if not objectives or not isinstance(objectives, list):
        raise ValueError(f"{path}: no [[objective]] tables")
    for index, objective in enumerate(objectives):
        label = f"{path}: objective[{index}]"
        if not objective.get("name"):
            raise ValueError(f"{label} has no name")
        kind = objective.get("kind")
        if kind not in _KINDS:
            raise ValueError(
                f"{label} ({objective['name']}): unknown kind {kind!r}, "
                f"expected one of {_KINDS}"
            )
        if kind == "quantile":
            required = ("histogram", "quantile")
            bounds = ("min", "max")
        elif kind == "budget":
            required = ("histogram", "threshold", "max_fraction")
            bounds = ("max_fraction",)
        elif kind == "ratio":
            required = ("numerator", "denominator")
            bounds = ("min", "max")
        else:  # value
            required = ("metric",)
            bounds = ("min", "max")
        for key in required:
            if key not in objective:
                raise ValueError(
                    f"{label} ({objective['name']}): {kind} objective "
                    f"missing {key!r}"
                )
        if not any(key in objective for key in bounds):
            raise ValueError(
                f"{label} ({objective['name']}): no bound "
                f"(one of {bounds}) to enforce"
            )
    return config


def _budget_fraction(histogram: Histogram, threshold: float) -> float:
    """Fraction of observations possibly above ``threshold``.

    Counts every bucket whose upper edge exceeds the threshold — a
    straddling bucket *may* hold violating observations, so it is
    charged in full.
    """
    if histogram.count == 0:
        return 0.0
    over = sum(
        count
        for index, count in histogram.buckets().items()
        if Histogram.bucket_upper_edge(index) > threshold
    )
    return over / histogram.count


def _check_bounds(
    objective: Dict[str, Any], observed: float
) -> Optional[str]:
    """The violated bound as text, or ``None`` when within bounds."""
    maximum = objective.get("max")
    if maximum is not None and observed > float(maximum):
        return f"{observed:g} > max {float(maximum):g}"
    minimum = objective.get("min")
    if minimum is not None and observed < float(minimum):
        return f"{observed:g} < min {float(minimum):g}"
    return None


def evaluate_slos(
    config: Dict[str, Any], source
) -> List[Dict[str, Any]]:
    """Check every objective in ``config`` against ``source``'s metrics.

    ``source`` is a recorder or any dict carrying counter/gauge/
    histogram blocks (a run report, a history record, a metrics-JSONL
    line).  Returns one result per objective: ``{"name", "kind",
    "status", "observed", "detail"}`` with status ``pass`` / ``fail`` /
    ``skipped``.  An absent metric fails unless the objective is marked
    ``optional``; an unusable objective (bad quantile, say) fails with
    the reason in ``detail``.
    """
    metrics = metrics_snapshot(source)
    results: List[Dict[str, Any]] = []
    for objective in config.get("objective", []):
        name = objective.get("name", "?")
        kind = objective.get("kind")
        optional = bool(objective.get("optional", False))
        observed: Optional[float] = None
        detail = ""
        status = "pass"
        try:
            if kind in ("quantile", "budget"):
                data = metrics["histograms"].get(objective["histogram"])
                if data is None:
                    raise LookupError(
                        f"histogram {objective['histogram']!r} not recorded"
                    )
                histogram = Histogram.from_dict(data)
                if histogram.count == 0:
                    raise LookupError(
                        f"histogram {objective['histogram']!r} is empty"
                    )
                if kind == "quantile":
                    q = float(objective["quantile"])
                    if not 0.0 <= q <= 1.0:
                        raise ValueError(f"quantile {q} outside [0, 1]")
                    observed = histogram.quantile(q)
                    detail = (
                        f"p{q * 100:g}({objective['histogram']}) = "
                        f"{observed:.6g}"
                    )
                    violation = _check_bounds(objective, observed)
                else:
                    threshold = float(objective["threshold"])
                    observed = _budget_fraction(histogram, threshold)
                    detail = (
                        f"{observed:.4g} of {histogram.count} observations "
                        f"over {threshold:g}"
                    )
                    violation = None
                    limit = float(objective["max_fraction"])
                    if observed > limit:
                        violation = (
                            f"{observed:g} > max_fraction {limit:g}"
                        )
            elif kind == "ratio":
                counters = metrics["counters"]
                numerator_name = objective["numerator"]
                if numerator_name not in counters:
                    raise LookupError(
                        f"counter {numerator_name!r} not recorded"
                    )
                numerator = float(counters[numerator_name])
                denominator_names = objective["denominator"]
                if isinstance(denominator_names, str):
                    denominator_names = [denominator_names]
                denominator = 0.0
                for counter_name in denominator_names:
                    if counter_name not in counters:
                        raise LookupError(
                            f"counter {counter_name!r} not recorded"
                        )
                    denominator += float(counters[counter_name])
                if denominator == 0.0:
                    results.append(
                        {
                            "name": name,
                            "kind": kind,
                            "status": "skipped",
                            "observed": None,
                            "detail": "denominator is zero (no traffic)",
                        }
                    )
                    continue
                observed = numerator / denominator
                detail = (
                    f"{numerator_name} / sum(denominator) = "
                    f"{numerator:g}/{denominator:g} = {observed:.4g}"
                )
                violation = _check_bounds(objective, observed)
            elif kind == "value":
                metric_name = objective["metric"]
                if metric_name in metrics["counters"]:
                    observed = float(metrics["counters"][metric_name])
                elif metric_name in metrics["gauges"]:
                    observed = float(metrics["gauges"][metric_name])
                else:
                    raise LookupError(
                        f"metric {metric_name!r} not recorded"
                    )
                detail = f"{metric_name} = {observed:g}"
                violation = _check_bounds(objective, observed)
            else:
                raise ValueError(f"unknown objective kind {kind!r}")
        except LookupError as missing:
            results.append(
                {
                    "name": name,
                    "kind": kind,
                    "status": "skipped" if optional else "fail",
                    "observed": None,
                    "detail": str(missing),
                }
            )
            continue
        except (ValueError, KeyError, TypeError) as error:
            results.append(
                {
                    "name": name,
                    "kind": kind,
                    "status": "fail",
                    "observed": None,
                    "detail": f"unusable objective: {error}",
                }
            )
            continue
        if violation is not None:
            status = "fail"
            detail = f"{detail}; {violation}"
        if observed is not None and not math.isfinite(observed):
            status = "fail"
            detail = f"{detail}; observed value is not finite"
        results.append(
            {
                "name": name,
                "kind": kind,
                "status": status,
                "observed": observed,
                "detail": detail,
            }
        )
    return results


def format_slo_results(results: List[Dict[str, Any]]) -> str:
    """Plain-text table of :func:`evaluate_slos` output."""
    if not results:
        return "slo: (no objectives)"
    failed = sum(1 for result in results if result["status"] == "fail")
    skipped = sum(1 for result in results if result["status"] == "skipped")
    name_width = max(len(result["name"]) for result in results)
    lines = [
        f"slo: {len(results)} objectives, "
        f"{len(results) - failed - skipped} passed, {failed} failed, "
        f"{skipped} skipped"
    ]
    for result in results:
        marker = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[
            result["status"]
        ]
        lines.append(
            f"  {marker}  {result['name']:<{name_width}}  "
            f"[{result['kind']}]  {result['detail']}"
        )
    return "\n".join(lines)
