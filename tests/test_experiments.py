"""Experiment runners: structure and paper-shape assertions.

The heavyweight shape checks (who wins, where crossovers fall) live in
benchmarks/; here we run the cheap experiments fully and the expensive
ones in reduced form, asserting structure and the headline relations.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.ablations import (
    fixed_rate_available_bandwidth,
    run_ablation_a1,
)
from repro.experiments.fig3_routing import Fig3Config, run_fig3
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.scenario1 import run_scenario1
from repro.experiments.scenario2 import run_scenario2
from repro.errors import ConfigurationError
from repro.mac.config import CsmaConfig

FAST_CSMA = CsmaConfig(sim_slots=20_000, warmup_slots=2_000)


class TestScenario1Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario1(shares=(0.2, 0.4), csma_config=FAST_CSMA)

    def test_rows_per_share(self, result):
        assert [row.background_share for row in result.rows] == [0.2, 0.4]

    def test_optimal_is_one_minus_lambda(self, result):
        for row in result.rows:
            assert row.optimal_share == pytest.approx(
                1.0 - row.background_share
            )

    def test_serialised_is_one_minus_two_lambda(self, result):
        for row in result.rows:
            assert row.idle_time_share_serialised == pytest.approx(
                1.0 - 2.0 * row.background_share
            )

    def test_csma_lands_between(self, result):
        for row in result.rows:
            assert (
                row.idle_time_share_serialised - 0.05
                <= row.idle_time_share_csma
                <= row.optimal_share + 0.05
            )

    def test_table_renders(self, result):
        text = result.table()
        assert "Scenario I" in text
        assert "lambda" in text


class TestScenario2Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario2()

    def test_headline(self, result):
        assert result.optimal_throughput == pytest.approx(16.2)

    def test_violations(self, result):
        values = dict(result.clique_violations)
        assert list(values.values()) == pytest.approx([1.2, 1.05])

    def test_bounds(self, result):
        values = [v for _n, v in result.fixed_rate_bounds]
        assert values == pytest.approx([13.5, 108.0 / 7.0])

    def test_hypothesis_above_one(self, result):
        assert result.hypothesis_value > 1.0

    def test_sandwich(self, result):
        assert (
            result.subset_lower_bound
            <= result.optimal_throughput
            <= result.eq9_upper_bound + 1e-6
        )

    def test_table_renders(self, result):
        text = result.table()
        assert "16.200" in text


class TestFig3Reduced:
    @pytest.fixture(scope="class")
    def result(self):
        config = Fig3Config(n_flows=3, metrics=("hop-count", "average-e2eD"))
        return run_fig3(config)

    def test_reports_per_metric(self, result):
        assert set(result.reports) == {"hop-count", "average-e2eD"}

    def test_series_lengths_bounded(self, result):
        for name in result.reports:
            assert 1 <= len(result.series(name)) <= 3

    def test_average_e2ed_admits_at_least_hop_count(self, result):
        assert (
            result.reports["average-e2eD"].admitted_count
            >= result.reports["hop-count"].admitted_count
        )

    def test_table_renders(self, result):
        assert "Fig. 3" in result.table()


class TestAblationA1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablation_a1()

    def test_multirate_beats_every_fixed_vector(self, result):
        for _name, value in result.fixed:
            assert result.multirate >= value - 1e-9

    def test_gain_is_paper_ratio(self, result):
        assert result.adaptation_gain == pytest.approx(16.2 / (108.0 / 7.0))

    def test_sixteen_fixed_vectors(self, result):
        assert len(result.fixed) == 16

    def test_table_does_not_depend_on_hash_seed(self):
        # Tied fixed-rate optima keep their printed order only if the LP
        # columns come out in one order whatever the string-hash seed.
        script = (
            "from repro.experiments.ablations import run_ablation_a1\n"
            "result = run_ablation_a1()\n"
            "print(result.table())\n"
            "print(repr(result.fixed))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]


class TestFixedRateHelper:
    def test_best_fixed_is_paper_bound(self, s2_bundle):
        table = s2_bundle.network.radio.rate_table
        vector = {
            s2_bundle.network.link("L1"): table.get(36.0),
            s2_bundle.network.link("L2"): table.get(54.0),
            s2_bundle.network.link("L3"): table.get(54.0),
            s2_bundle.network.link("L4"): table.get(54.0),
        }
        value = fixed_rate_available_bandwidth(
            s2_bundle.model, s2_bundle.path, vector
        )
        assert value == pytest.approx(108.0 / 7.0)

    def test_unsupported_rate_rejected(self, s2_bundle):
        from repro.errors import InterferenceError
        from repro.phy.rates import IEEE80211A_PAPER_RATES

        vector = {
            link: IEEE80211A_PAPER_RATES.get(18.0)
            for link in s2_bundle.path
        }
        with pytest.raises(InterferenceError):
            fixed_rate_available_bandwidth(
                s2_bundle.model, s2_bundle.path, vector
            )


class TestRunnerRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "e1", "e2", "e3", "e4", "e5",
            "a1", "a2", "a3", "a4", "a5",
            "x1", "x2", "x3", "x4", "x6", "x7", "s1",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_experiment("e99")

    def test_run_experiment_returns_table_object(self):
        result = run_experiment("e2")
        assert hasattr(result, "table")
        assert isinstance(result.table(), str)
