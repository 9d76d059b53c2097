"""The differential oracle: instances, invariants, engine, report."""

import json
import math
import os
import subprocess
import sys

import pytest

import repro

from repro.core.bandwidth import available_path_bandwidth
from repro.core.bounds import lower_bound_from_subset
from repro.errors import ConfigurationError
from repro.interference.declared import (
    ConflictRule,
    DeclaredInterferenceModel,
)
from repro.net.path import Path
from repro.net.topology import Network
from repro.phy.radio import RadioConfig
from repro.phy.rates import IEEE80211A_PAPER_RATES
from repro.verify import (
    FAMILIES,
    INVARIANTS,
    VERIFY_SCHEMA_VERSION,
    InstanceArtifacts,
    format_differential,
    generate_instance,
    instance_strategy,
    iter_instances,
    run_differential,
    run_to_document,
    write_run_document,
)
from repro.verify.engine import _check_one
from repro.verify.invariants import Invariant


class TestInstances:
    def test_generation_is_deterministic(self):
        a = generate_instance(42, "declared-chain")
        b = generate_instance(42, "declared-chain")
        assert a.name == b.name
        optimum = available_path_bandwidth(
            a.model, a.new_path, a.background
        ).available_bandwidth
        again = available_path_bandwidth(
            b.model, b.new_path, b.background
        ).available_bandwidth
        assert optimum == again

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_instance(0, "no-such-family")

    def test_iter_round_robins_families(self):
        instances = list(iter_instances(2 * len(FAMILIES), seed=0))
        families = [inst.family for inst in instances]
        ordered = sorted(FAMILIES)
        assert families == ordered + ordered

    def test_iter_rejects_unknown_family(self):
        with pytest.raises(ConfigurationError):
            list(iter_instances(3, families=["declared-chain", "bogus"]))

    def test_every_family_yields_feasible_instances(self):
        # The generator guarantees the background fits the airtime budget,
        # so Eq. 6 must be feasible for every family at several seeds.
        for family in sorted(FAMILIES):
            for seed in range(3):
                instance = generate_instance(seed, family)
                result = available_path_bandwidth(
                    instance.model, instance.new_path, instance.background
                )
                assert result.available_bandwidth >= 0.0, instance.name


class TestRegressionPins:
    def _two_conflicting_links(self):
        radio = RadioConfig(
            rate_table=IEEE80211A_PAPER_RATES.restrict([54.0, 36.0])
        )
        network = Network(radio, name="lb-fallback")
        for node in ("a0", "a1", "b0", "b1"):
            network.add_node(node)
        network.add_link("a0", "a1", link_id="A")
        network.add_link("b0", "b1", link_id="B")
        model = DeclaredInterferenceModel(
            network,
            rules=[ConflictRule("A", "B")],
            standalone_mbps={"A": [54.0], "B": [36.0]},
        )
        return network, model

    def test_lower_bound_grows_past_infeasible_subset(self):
        # Regression: a greedy size-1 subset picks the 54-Mbps column and
        # cannot deliver the background on B; the fallback must grow the
        # family (it once crashed on an unimported exception name instead).
        network, model = self._two_conflicting_links()
        new_path = Path([network.link("A")])
        background = [(Path([network.link("B")]), 9.0)]
        result = lower_bound_from_subset(
            model, new_path, background, subset_size=1
        )
        optimum = available_path_bandwidth(
            model, new_path, background
        ).available_bandwidth
        assert 0.0 <= result.available_bandwidth <= optimum + 1e-9

    def test_saturated_link_reports_exact_zero(self):
        # Regression: full saturation used to return -0.0 via float error.
        network, model = self._two_conflicting_links()
        new_path = Path([network.link("A")])
        background = [(Path([network.link("A")]), 54.0)]
        result = available_path_bandwidth(model, new_path, background)
        assert result.available_bandwidth == 0.0
        assert math.copysign(1.0, result.available_bandwidth) == 1.0


class TestEngine:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown profile"):
            run_differential(instances=1, profile="exhaustive")

    def test_small_quick_run_passes(self):
        run = run_differential(instances=len(FAMILIES), seed=0)
        assert run.passed
        assert run.total_violations == 0
        assert len(run.instances) == len(FAMILIES)
        assert len(run.summaries) == len(INVARIANTS)
        assert [s.name for s in run.summaries] == [i.name for i in INVARIANTS]

    def test_crashing_invariant_becomes_violation(self):
        def explode(_artifacts):
            raise RuntimeError("solver fell over")

        invariant = Invariant(
            name="always-crashes",
            equation="n/a",
            description="exercises crash-to-violation conversion",
            check=explode,
        )
        artifacts = InstanceArtifacts(generate_instance(0, "declared-chain"))
        outcome = _check_one(invariant, artifacts)
        assert not outcome.passed
        assert "RuntimeError" in outcome.detail
        assert "solver fell over" in outcome.detail


class TestReport:
    @pytest.fixture(scope="class")
    def run(self):
        return run_differential(instances=len(FAMILIES), seed=0)

    def test_format_lists_every_invariant(self, run):
        text = format_differential(run)
        for invariant in INVARIANTS:
            assert invariant.name in text
        assert "all invariants hold" in text

    def test_document_shape(self, run):
        document = run_to_document(run, counters={"verify.checks": 7})
        assert document["schema_version"] == VERIFY_SCHEMA_VERSION
        assert document["passed"] is True
        assert document["seed"] == 0
        assert document["profile"] == "quick"
        assert document["counters"] == {"verify.checks": 7}
        names = [entry["name"] for entry in document["invariants"]]
        assert names == [invariant.name for invariant in INVARIANTS]

    def test_write_round_trips(self, run, tmp_path):
        path = tmp_path / "report.json"
        write_run_document(path, run)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == run_to_document(run)


class TestCliIntegration:
    def test_verify_flags_and_json(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "verify-report.json"
        code = main(
            [
                "verify",
                "--instances",
                "3",
                "--seed",
                "5",
                "--profile",
                "quick",
                "--json",
                str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "10/10 checks passed" in out
        assert "differential oracle: 3 instances, seed 5" in out
        document = json.loads(report.read_text(encoding="utf-8"))
        assert document["schema_version"] == VERIFY_SCHEMA_VERSION
        assert document["requested_instances"] == 3
        assert document["counters"]["verify.instances"] == 3

    def test_json_does_not_depend_on_hash_seed(self, tmp_path):
        # The reference enumeration and the schedule replays check
        # independence couple by couple and stop at the first conflict,
        # so the kernel counters in the report follow the order they are
        # checked in; it must not be a set's hash order.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        reports = []
        for hash_seed in ("0", "1"):
            report = tmp_path / f"verify-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "verify", "--instances", "6",
                 "--seed", "0", "--json", str(report)],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert completed.returncode == 0, completed.stderr
            reports.append(report.read_text(encoding="utf-8"))
        assert reports[0] == reports[1]


class TestHypothesisProperty:
    def test_core_invariants_hold_on_random_instances(self):
        pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings

        core = [
            invariant
            for invariant in INVARIANTS
            if invariant.name
            in {
                "lp-matches-reference",
                "lower-bound-below-optimum",
                "optimum-below-upper-bound",
                "estimator-ordering",
            }
        ]
        assert len(core) == 4

        @given(instance=instance_strategy())
        @settings(
            max_examples=15,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def property_holds(instance):
            artifacts = InstanceArtifacts(instance, replay_slots=10_000)
            for invariant in core:
                if not invariant.predicate(instance):
                    continue
                ok, detail = invariant.check(artifacts)
                assert ok, f"{invariant.name} on {instance.name}: {detail}"

        property_holds()
