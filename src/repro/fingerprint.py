"""Canonical, process-stable fingerprints of workloads and instances.

A fingerprint is a short hex digest of a *canonical* JSON rendering of a
value: dictionary keys sorted (and coerced to strings), tuples and lists
normalised to arrays, sets ordered by their own canonical encoding, and
floats rendered with ``repr`` (CPython's shortest round-trip form), so
the same value fingerprints identically in every process, on every
platform, in every session.  Two equal fingerprints therefore mean "the
same workload" — which is what lets the run-history differ
(:mod:`repro.obs.history`) decide whether two runs are comparable, and
what lets the serving layer (:mod:`repro.serve`) key cached solve
artifacts on a topology + background and trust a hit.

Domain helpers build the canonical description for the library's own
objects: :func:`network_fingerprint` (nodes, links, radio
parameterisation), :func:`model_fingerprint` (model type + network +
declared conflict rules), :func:`background_fingerprint` (per-flow link
sequences and demands) and :func:`path_fingerprint`.  They duck-type
rather than import the model layers, so this module sits below
everything and anything may import it.

Caveat: a :class:`~repro.interference.declared.ConflictRule` predicate
is an opaque callable; its fingerprint records *that* a rule is
rate-dependent, not the predicate's semantics.  Two declared models
differing only in predicate bodies collide — callers that need that
distinction (none in the library; the serving layer binds one model
instance per service) must add their own discriminator.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Iterable, Optional, Tuple

__all__ = [
    "canonical_json",
    "fingerprint",
    "args_fingerprint",
    "network_fingerprint",
    "model_fingerprint",
    "background_fingerprint",
    "path_fingerprint",
    "SHORT_LENGTH",
]

#: Hex digits kept by the short-form digest (matches the historical
#: ``obs.history.args_fingerprint`` width).
SHORT_LENGTH = 16


def _canonical(value: Any) -> Any:
    """``value`` as plain JSON-able types with deterministic ordering."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr is CPython's shortest round-trip rendering — stable across
        # processes and platforms; non-finite floats become tagged
        # strings so the encoding stays valid JSON.
        if math.isnan(value):
            return "float:nan"
        if math.isinf(value):
            return "float:inf" if value > 0 else "float:-inf"
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        rendered = [canonical_json(item) for item in value]
        return {"__set__": sorted(rendered)}
    if isinstance(value, dict):
        items = [
            (key if isinstance(key, str) else str(key), entry)
            for key, entry in value.items()
        ]
        return {key: _canonical(entry) for key, entry in sorted(items)}
    if isinstance(value, bytes):
        return value.hex()
    # Last resort, matching the historical ``default=str`` behaviour.
    return str(value)


def canonical_json(value: Any) -> str:
    """The canonical JSON rendering fingerprints digest.

    Deterministic in the value alone: key order, tuple-vs-list and
    process identity never leak in.
    """
    return json.dumps(
        _canonical(value), sort_keys=True, separators=(",", ":")
    )


def fingerprint(value: Any, length: Optional[int] = SHORT_LENGTH) -> str:
    """Hex digest of ``value``'s canonical JSON (sha256).

    ``length`` truncates the digest (default :data:`SHORT_LENGTH`);
    ``None`` keeps all 64 hex digits.
    """
    digest = hashlib.sha256(
        canonical_json(value).encode("utf-8")
    ).hexdigest()
    return digest if length is None else digest[:length]


def args_fingerprint(arguments: Dict[str, Any]) -> str:
    """Short stable digest of a run's effective arguments.

    Two records with equal fingerprints solved the same workload, so
    their counters are comparable; the history diff warns when they
    differ.  (Historically defined in :mod:`repro.obs.history`, which
    still re-exports it.)
    """
    return fingerprint(arguments)


# -- domain fingerprints -------------------------------------------------------


def _path_loss_description(path_loss: Any) -> Dict[str, Any]:
    data: Dict[str, Any] = {"type": type(path_loss).__name__}
    for name, value in sorted(vars(path_loss).items()):
        if not name.startswith("_") and isinstance(
            value, (int, float, str, bool)
        ):
            data[name] = value
    return data


def network_description(network: Any) -> Dict[str, Any]:
    """Canonical description of a :class:`~repro.net.topology.Network`.

    Covers everything the solvers consume: node ids and positions, link
    ids and endpoints, and the radio parameterisation (rate table, power,
    noise, carrier-sense range, path-loss model parameters).
    """
    radio = network.radio
    return {
        "nodes": [
            [node.node_id, node.x, node.y] for node in network.nodes
        ],
        "links": [
            [link.link_id, link.sender.node_id, link.receiver.node_id]
            for link in network.links
        ],
        "radio": {
            "tx_power_dbm": radio.tx_power_dbm,
            "noise_mw": radio.noise_mw,
            "carrier_sense_range_m": radio.carrier_sense_range_m,
            "path_loss": _path_loss_description(radio.path_loss),
            "rates": [
                [rate.mbps, rate.sinr_db, rate.range_m]
                for rate in radio.rate_table
            ],
        },
    }


def network_fingerprint(network: Any) -> str:
    """Short digest of :func:`network_description`."""
    return fingerprint(network_description(network))


def model_fingerprint(model: Any) -> str:
    """Digest of an interference model: type, network, declared rules.

    Rate-dependent rule *predicates* are recorded only as a flag (see
    the module docstring's caveat).  The digest is made once per network
    state, model type and rule tuple: the network keeps it
    (``Network.derived``) until it grows.
    """
    rules = getattr(model, "rules", None)
    if rules is not None:
        rules = tuple(rules)
    return model.network.derived(
        ("model_fingerprint", type(model).__name__, rules),
        lambda: _model_fingerprint(model, rules),
    )


def _model_fingerprint(model: Any, rules: Optional[Tuple[Any, ...]]) -> str:
    data: Dict[str, Any] = {
        "type": type(model).__name__,
        "network": network_description(model.network),
    }
    if rules is not None:
        data["rules"] = sorted(
            [
                rule.link_a,
                rule.link_b,
                "rate-dependent" if rule.is_rate_dependent else "always",
            ]
            for rule in rules
        )
    return fingerprint(data)


def path_fingerprint(path: Any) -> str:
    """Digest of a path: its ordered link ids."""
    return fingerprint([link.link_id for link in path])


def background_fingerprint(
    background: Iterable[Tuple[Any, float]],
) -> str:
    """Digest of background traffic: per-flow link sequences + demands.

    Order-sensitive — the Eq. 6 LP's rows follow the background's link
    discovery order, so reordered flows are a different (if equivalent)
    workload.
    """
    return fingerprint(
        [
            [[link.link_id for link in path], demand]
            for path, demand in background
        ]
    )
