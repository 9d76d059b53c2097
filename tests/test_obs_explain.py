"""Decision provenance: certificates, explanations, attribution, diffing.

The load-bearing contracts:

- **The dual certificate is a theorem, not a vibe** — on random Eq. 6
  instances from the verification families the gap and complementary
  slackness residuals stay within 1e-6 of the primal scale (Hypothesis).
- **Explanations are deterministic** — byte-identical JSON across
  sequential and threaded serve runs, and across repeat queries served
  from the result cache.
- **The wire format is lossless** — ``explanation_from_dict ∘
  explanation_to_dict`` is the identity.
- **Bottleneck diffing works** — two runs with different backgrounds
  produce different bottleneck fingerprints and ``repro obs diff``
  machinery reports the migration.
"""

import json

import pytest

from repro.core.bandwidth import available_path_bandwidth
from repro.net.path import Path
from repro.obs.explain import (
    bottleneck_summary,
    explain_path_bandwidth,
    explanation_from_dict,
    explanation_to_dict,
    format_explanation,
    top_binding_link,
)
from repro.obs.history import build_run_record, diff_runs, format_diff
from repro.obs.recorder import NullRecorder
from repro.serve import AdmissionQuery, AdmissionService
from repro.verify.instances import generate_instance
from repro.workloads.scenarios import scenario_two


def _explained(seed=7, family="single-clique"):
    instance = generate_instance(seed, family=family)
    result, explanation = explain_path_bandwidth(
        instance.model, instance.new_path, instance.background
    )
    return instance, result, explanation


class TestCertificateProperty:
    def test_certificate_holds_on_random_instances(self):
        pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings

        from repro.verify.instances import instance_strategy

        @given(instance=instance_strategy())
        @settings(
            max_examples=25,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def certificate_holds(instance):
            from repro.errors import InfeasibleProblemError

            try:
                result, explanation = explain_path_bandwidth(
                    instance.model,
                    instance.new_path,
                    instance.background,
                )
            except InfeasibleProblemError:
                return
            certificate = explanation.certificate
            scale = max(1.0, abs(certificate.primal_objective))
            assert certificate.valid(tolerance=1e-6), instance.name
            assert abs(certificate.gap) <= 1e-6 * scale, instance.name
            assert certificate.max_row_residual <= 1e-6 * scale
            assert certificate.max_column_residual <= 1e-6 * scale

        certificate_holds()

    def test_explained_bandwidth_matches_direct_solve(self):
        instance, result, explanation = _explained()
        direct = available_path_bandwidth(
            instance.model, instance.new_path, instance.background
        )
        assert result.available_bandwidth == direct.available_bandwidth
        assert explanation.available_bandwidth_mbps == (
            result.available_bandwidth
        )


class TestExplanationStructure:
    def test_binding_cliques_ranked_by_shadow_price(self):
        _instance, _result, explanation = _explained()
        prices = [c.shadow_price for c in explanation.binding_cliques]
        assert prices == sorted(prices, reverse=True)

    def test_clique_price_is_sum_of_member_prices(self):
        _instance, _result, explanation = _explained()
        for clique in explanation.binding_cliques:
            assert clique.shadow_price == pytest.approx(
                sum(clique.link_prices.values())
            )
            assert set(clique.link_prices) == set(clique.links)

    def test_crowd_out_covers_background(self):
        instance, _result, explanation = _explained(seed=9)
        assert len(explanation.crowd_out) == len(instance.background)
        for item in explanation.crowd_out:
            assert item.crowd_out_mbps >= 0.0
            for index in item.cliques:
                assert 0 <= index < len(explanation.binding_cliques)

    def test_bottleneck_fingerprint_depends_on_clique(self):
        _i1, _r1, one = _explained(seed=7, family="single-clique")
        _i2, _r2, two = _explained(seed=11, family="geometric-chain")
        assert one.bottleneck_fingerprint
        assert two.bottleneck_fingerprint
        assert one.bottleneck_fingerprint != two.bottleneck_fingerprint

    def test_format_explanation_mentions_certificate(self):
        _instance, _result, explanation = _explained()
        text = format_explanation(explanation)
        assert "certificate" in text
        assert "valid" in text
        assert "clique #0" in text

    def test_top_binding_link_matches_best_marginal(self):
        instance, _result, explanation = _explained()
        lp_result = available_path_bandwidth(
            instance.model, instance.new_path, instance.background
        )
        assert lp_result is not None  # solved fine
        prices = explanation.marginal_bandwidth
        positive = {k: v for k, v in prices.items() if v > 0.0}
        if not positive:
            return
        best = min(positive, key=lambda k: (-positive[k], k))
        top = explanation.bottleneck
        assert top is not None
        assert best in dict(top.link_prices) or best in prices


class TestWireFormat:
    def test_round_trip_is_identity(self):
        _instance, _result, explanation = _explained(seed=13)
        payload = explanation_to_dict(explanation)
        rebuilt = explanation_from_dict(
            json.loads(json.dumps(payload))
        )
        assert rebuilt == explanation

    def test_payload_is_json_clean(self):
        _instance, _result, explanation = _explained()
        text = json.dumps(explanation_to_dict(explanation), sort_keys=True)
        assert "bottleneck_fingerprint" in text


class TestServeDeterminism:
    def _workload(self):
        scenario = scenario_two()
        links = list(scenario.path.links)
        background = [(scenario.path, 1.0)]
        queries = [
            AdmissionQuery(f"q{index}", Path(links[: index + 1]), 30.0)
            for index in range(len(links))
        ]
        # Repeat the stream so the second half is served from the
        # result cache — those decisions must explain identically.
        queries += [
            AdmissionQuery(f"r{index}", Path(links[: index + 1]), 30.0)
            for index in range(len(links))
        ]
        return scenario, background, queries

    def _explained_bytes(self, workers=None):
        scenario, background, queries = self._workload()
        service = AdmissionService(
            scenario.model, background, explain=True
        )
        decisions = service.submit_many(queries, workers=workers)
        return [
            json.dumps(
                explanation_to_dict(decision.explanation), sort_keys=True
            )
            for decision in decisions
        ]

    def test_explanations_byte_identical_across_workers(self):
        assert self._explained_bytes(workers=None) == (
            self._explained_bytes(workers=4)
        )

    def test_result_cache_hits_explain_identically(self):
        rendered = self._explained_bytes()
        half = len(rendered) // 2
        assert rendered[:half] == rendered[half:]

    def test_explain_off_leaves_decisions_unexplained(self):
        scenario, background, queries = self._workload()
        service = AdmissionService(scenario.model, background)
        for decision in service.submit_many(queries):
            assert decision.explanation is None

    def test_flight_records_name_bottleneck_even_without_explain(self):
        scenario, background, queries = self._workload()
        service = AdmissionService(scenario.model, background)
        service.submit_many(queries)
        records = service.flight.slow_queries()
        assert records
        assert any(r.get("bottleneck_link") for r in records)


class TestTileAttribution:
    def test_bottleneck_tile_names_its_clique(self):
        from repro.scale.tiles import TileConfig, tiled_path_bandwidth

        instance = generate_instance(21, family="geometric-chain")
        estimate = tiled_path_bandwidth(
            instance.model,
            instance.new_path,
            instance.background,
            TileConfig(tile_size=2),
        )
        attribution = estimate.attribution
        assert attribution is not None
        assert attribution.tile == estimate.bottleneck
        assert attribution.fingerprint
        tile_ids = {
            link.link_id
            for link in estimate.tiles[estimate.bottleneck].links
        }
        assert set(attribution.clique_links) <= tile_ids


class TestBottleneckSummaryAndDiff:
    def test_summary_picks_the_modal_fingerprint(self):
        _i1, _r1, one = _explained(seed=7, family="single-clique")
        _i2, _r2, two = _explained(seed=11, family="geometric-chain")
        summary = bottleneck_summary([one, one, two, None])
        assert summary is not None
        assert summary["fingerprint"] == one.bottleneck_fingerprint
        assert summary["occurrences"] == 2
        assert summary["decisions"] == 3

    def test_summary_of_nothing_is_none(self):
        assert bottleneck_summary([]) is None
        assert bottleneck_summary([None, None]) is None

    def test_diff_reports_migration(self):
        _i1, _r1, one = _explained(seed=7, family="single-clique")
        _i2, _r2, two = _explained(seed=11, family="geometric-chain")
        recorder = NullRecorder()
        baseline = build_run_record(
            recorder, label="serve", bottleneck=bottleneck_summary([one])
        )
        candidate = build_run_record(
            recorder, label="serve", bottleneck=bottleneck_summary([two])
        )
        diff = diff_runs(baseline, candidate)
        assert diff["bottleneck"]["migrated"] is True
        assert not diff["regressions"]  # migration never gates
        text = format_diff(diff)
        assert "bottleneck migrated from clique" in text

    def test_diff_without_bottlenecks_stays_quiet(self):
        recorder = NullRecorder()
        baseline = build_run_record(recorder, label="serve")
        candidate = build_run_record(recorder, label="serve")
        diff = diff_runs(baseline, candidate)
        assert diff["bottleneck"] is None
        assert "bottleneck" not in format_diff(diff)

    def test_same_bottleneck_reported_unchanged(self):
        _i, _r, one = _explained(seed=7)
        recorder = NullRecorder()
        record = build_run_record(
            recorder, label="serve", bottleneck=bottleneck_summary([one])
        )
        diff = diff_runs(record, record)
        assert diff["bottleneck"]["migrated"] is False
        assert "bottleneck unchanged" in format_diff(diff)


class TestOnlineExplanations:
    def test_rejections_carry_valid_certificates(self):
        from repro.serve.online import OnlineAdmissionController

        instance = generate_instance(33, family="single-clique")
        controller = OnlineAdmissionController(
            instance.model, explain=True
        )
        for index, (path, demand) in enumerate(instance.background):
            controller.admit_path(f"bg{index}", path, demand)
        probe = controller.admit_path(
            "probe", instance.new_path, float("inf")
        )
        assert not probe.admitted
        assert probe.explanation is not None
        assert probe.explanation.certificate.valid()
        repeat = controller.admit_path(
            "probe2", instance.new_path, float("inf")
        )
        assert repeat.cache_state == "result"
        assert repeat.explanation == probe.explanation

    def test_top_binding_link_none_without_positive_prices(self):
        from repro.core.bandwidth import build_path_bandwidth_lp
        from repro.core.independent_sets import ColumnFamily

        link = scenario_two().network.link("L1")
        program = build_path_bandwidth_lp(ColumnFamily((), ()), [link], {}, {link})

        class FakeSolution:
            # Row duals by position: airtime, then demand[L1].
            y = [0.5, 0.0]

        assert top_binding_link(program, FakeSolution()) is None
