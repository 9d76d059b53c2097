"""Canonical fingerprints: deterministic, order-blind, process-stable."""

import json

import repro.fingerprint
from repro import ConflictRule, DeclaredInterferenceModel, Network, RadioConfig
from repro.fingerprint import (
    SHORT_LENGTH,
    args_fingerprint,
    background_fingerprint,
    canonical_json,
    fingerprint,
    model_fingerprint,
    network_description,
    network_fingerprint,
    path_fingerprint,
)
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.path import Path
from repro.workloads.scenarios import paper_random_topology, scenario_two


class TestCanonicalJson:
    def test_dict_key_order_is_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json(
            {"b": 2, "a": 1}
        )

    def test_tuple_and_list_normalise_identically(self):
        assert canonical_json((1, 2, 3)) == canonical_json([1, 2, 3])

    def test_non_string_keys_are_coerced(self):
        assert canonical_json({2: "b", "a": 1}) == '{"2":"b","a":1}'

    def test_sets_order_by_their_own_encoding(self):
        assert canonical_json({2: "b", "a": {True, False}}) == (
            '{"2":"b","a":{"__set__":["false","true"]}}'
        )

    def test_nested_structures_recurse(self):
        value = {"outer": [{"z": (1,), "a": 2}]}
        same = {"outer": [{"a": 2, "z": [1]}]}
        assert canonical_json(value) == canonical_json(same)

    def test_non_finite_floats_become_tagged_strings(self):
        rendered = canonical_json(
            [float("nan"), float("inf"), float("-inf")]
        )
        assert rendered == '["float:nan","float:inf","float:-inf"]'
        json.loads(rendered)  # stays valid JSON

    def test_floats_render_shortest_roundtrip(self):
        assert canonical_json(0.1) == "0.1"
        assert canonical_json(1e300) == "1e+300"

    def test_bytes_become_hex(self):
        assert canonical_json(b"\x00\xff") == '"00ff"'

    def test_fallback_is_str(self):
        class Opaque:
            def __str__(self):
                return "opaque!"

        assert canonical_json(Opaque()) == '"opaque!"'

    def test_output_is_always_parseable_json(self):
        value = {"k": [1, 2.5, None, True, {"nested": (3, 4)}]}
        json.loads(canonical_json(value))


class TestFingerprint:
    def test_default_length(self):
        assert len(fingerprint({"a": 1})) == SHORT_LENGTH

    def test_full_length(self):
        assert len(fingerprint("hello", length=None)) == 64

    def test_pinned_digests_are_process_stable(self):
        """Digests computed in one process must match those of another.

        These hex values were computed once and committed; a change here
        means every persisted fingerprint (history records, cache keys
        written to trace files) silently stopped matching.
        """
        assert fingerprint({"a": 1, "b": [1.5, "two"], "c": None}) == (
            "99f395f7d2d8206c"
        )
        assert fingerprint((1, 2, 3)) == "a615eeaee21de517"
        assert args_fingerprint({"seed": 7, "flows": 8}) == (
            "f5fc2b35cd2f9104"
        )
        assert fingerprint({"x": float("nan")}) == "f90274d7296697a8"
        assert fingerprint("hello", length=None) == (
            "5aa762ae383fbb727af3c7a36d4940a5b8c40a989452d2304fc958ff3f354e7a"
        )

    def test_distinct_values_get_distinct_digests(self):
        assert fingerprint([1, 2]) != fingerprint([2, 1])
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_reexported_from_obs_history(self):
        """The historical import path stays valid and is the same function."""
        from repro.obs.history import args_fingerprint as legacy

        assert legacy is args_fingerprint


class TestDomainFingerprints:
    def test_network_fingerprint_deterministic_per_seed(self):
        assert network_fingerprint(
            paper_random_topology(seed=8)
        ) == network_fingerprint(paper_random_topology(seed=8))
        assert network_fingerprint(
            paper_random_topology(seed=8)
        ) != network_fingerprint(paper_random_topology(seed=9))

    def test_model_fingerprint_covers_rules(self):
        scenario = scenario_two()
        other = scenario_two()
        assert model_fingerprint(scenario.model) == model_fingerprint(
            other.model
        )

    def test_model_fingerprint_distinguishes_model_types(self):
        from repro.interference.protocol import ProtocolInterferenceModel

        network = paper_random_topology(seed=8)
        protocol = ProtocolInterferenceModel(network)
        assert model_fingerprint(protocol) != network_fingerprint(network)

    def test_path_fingerprint_is_order_sensitive(self):
        scenario = scenario_two()
        links = list(scenario.path.links)
        forward = path_fingerprint(Path(links))
        prefix = path_fingerprint(Path(links[:2]))
        assert forward != prefix

    def test_background_fingerprint_order_sensitive(self):
        scenario = scenario_two()
        links = list(scenario.path.links)
        flow_a = (Path(links[:1]), 1.0)
        flow_b = (Path(links[1:2]), 2.0)
        assert background_fingerprint(
            [flow_a, flow_b]
        ) != background_fingerprint([flow_b, flow_a])
        assert background_fingerprint(
            [flow_a, flow_b]
        ) == background_fingerprint([flow_a, flow_b])

    def test_demand_changes_background_fingerprint(self):
        scenario = scenario_two()
        flow = Path(list(scenario.path.links)[:1])
        assert background_fingerprint(
            [(flow, 1.0)]
        ) != background_fingerprint([(flow, 2.0)])


class TestHistoryCompatibility:
    def test_matches_historical_json_digest(self):
        """The extraction preserved the digests of plain-JSON arg dicts.

        ``obs.history`` used ``sha256(json.dumps(args, sort_keys=True,
        separators=(",", ":"), default=str))``; for the flat
        str/int/float/bool dicts the CLI actually records, the canonical
        encoding is identical, so every pre-extraction history record
        still fingerprint-matches.
        """
        import hashlib

        for arguments in (
            {"experiment": "e3", "workers": 4, "seed": 7},
            {"trace": True, "threshold": 0.05, "label": "smoke"},
        ):
            historical = hashlib.sha256(
                json.dumps(
                    arguments,
                    sort_keys=True,
                    separators=(",", ":"),
                    default=str,
                ).encode("utf-8")
            ).hexdigest()[:16]
            assert args_fingerprint(arguments) == historical


def _fresh_model_fingerprint(model):
    """The digest ``model_fingerprint`` documents, computed directly."""
    data = {
        "type": type(model).__name__,
        "network": network_description(model.network),
    }
    rules = getattr(model, "rules", None)
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


class TestModelFingerprintMemo:
    """One model digest per network state, equal to a fresh digest."""

    def test_memo_equals_fresh_digest(self):
        declared = scenario_two().model
        protocol = ProtocolInterferenceModel(paper_random_topology(seed=8))
        for model in (declared, protocol):
            for _ in range(2):
                assert model_fingerprint(model) == _fresh_model_fingerprint(
                    model
                )

    def test_digest_made_once_per_state(self, monkeypatch):
        model = ProtocolInterferenceModel(paper_random_topology(seed=8))
        calls = []
        digest = repro.fingerprint.fingerprint

        def counting(value, *args, **kwargs):
            calls.append(value)
            return digest(value, *args, **kwargs)

        monkeypatch.setattr(repro.fingerprint, "fingerprint", counting)
        first = model_fingerprint(model)
        for _ in range(5):
            assert model_fingerprint(model) == first
        assert model_fingerprint(ProtocolInterferenceModel(model.network)) == first
        assert len(calls) == 1

    def test_digest_follows_network_growth(self):
        network = Network(RadioConfig())
        network.add_node("a", x=0.0, y=0.0)
        network.add_node("b", x=70.0, y=0.0)
        model = ProtocolInterferenceModel(network)
        seen = [model_fingerprint(model)]
        network.add_node("c", x=140.0, y=0.0)
        seen.append(model_fingerprint(model))
        network.add_link("a", "b")
        seen.append(model_fingerprint(model))
        assert len(set(seen)) == 3
        assert seen[-1] == _fresh_model_fingerprint(model)

    def test_rules_are_part_of_the_key(self):
        network = scenario_two().network
        links = [link.link_id for link in network.links]
        models = [
            DeclaredInterferenceModel(network),
            DeclaredInterferenceModel(
                network, rules=[ConflictRule(links[0], links[2])]
            ),
            DeclaredInterferenceModel(
                network,
                rules=[ConflictRule(links[0], links[2], lambda a, b: a > 36)],
            ),
        ]
        digests = [model_fingerprint(model) for model in models]
        assert len(set(digests)) == len(models)
        assert digests == [_fresh_model_fingerprint(model) for model in models]
