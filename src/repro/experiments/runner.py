"""Experiment registry and dispatch (used by the CLI and benchmarks).

Experiments that sweep independent units of work (seeds, routing metrics)
accept an opt-in ``workers=N`` and fan the sweep out over a
:class:`~concurrent.futures.ProcessPoolExecutor` via
:func:`~repro.experiments.parallel.fault_tolerant_map`.
Each worker rebuilds its state from the sweep's seeds, and results come
back in submission order, so a parallel run is byte-identical to the
sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.experiments.failures import tag_experiment
from repro.obs import get_recorder

__all__ = ["ExperimentSpec", "EXPERIMENTS", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: id, description, zero-argument runner."""

    experiment_id: str
    description: str
    runner: Callable[..., object]
    #: Whether the runner accepts ``workers=N`` for process parallelism.
    supports_workers: bool = False

    def run(self, workers: Optional[int] = None) -> object:
        """Execute and return the result object (all have ``.table()``).

        Runs under an experiment tag so item failures recorded by
        fault-isolated sweeps carry this experiment's id.
        """
        recorder = get_recorder()
        with recorder.span(f"experiment.{self.experiment_id}"), \
                tag_experiment(self.experiment_id):
            if workers is not None and workers > 1:
                if not self.supports_workers:
                    raise ConfigurationError(
                        f"experiment {self.experiment_id!r} does not "
                        "support parallel workers"
                    )
                result = self.runner(workers=workers)
            else:
                result = self.runner()
        # Completed-experiment tally: history records carry it, so a
        # cross-run diff can tell "the workload shrank" from "the solver
        # got cheaper".
        recorder.count("experiment.runs")
        return result


def _registry() -> Dict[str, ExperimentSpec]:
    # Imported lazily so `import repro.experiments.runner` stays cheap and
    # free of circularity with the experiment modules.
    from repro.experiments.ablations import (
        run_ablation_a1,
        run_ablation_a2,
        run_ablation_a3,
        run_ablation_a4,
        run_ablation_a5,
    )
    from repro.experiments.churn_study import run_churn_study
    from repro.experiments.extensions import (
        run_admission_accuracy,
        run_joint_admission,
        run_joint_routing,
    )
    from repro.experiments.fig2_paths import run_fig2
    from repro.experiments.online_study import run_online_study
    from repro.experiments.fig3_routing import run_fig3
    from repro.experiments.fig4_estimation import run_fig4
    from repro.experiments.scenario1 import run_scenario1
    from repro.experiments.scenario2 import run_scenario2
    from repro.experiments.scale_study import run_scale_study
    from repro.experiments.seed_study import run_seed_study

    specs = [
        ExperimentSpec(
            "e1",
            "Scenario I: optimal vs idle-time available bandwidth (Fig. 1)",
            run_scenario1,
        ),
        ExperimentSpec(
            "e2",
            "Scenario II: Section 5.1 worked example, clique violations",
            run_scenario2,
        ),
        ExperimentSpec(
            "e3",
            "Fig. 2: random topology and per-metric paths",
            run_fig2,
            supports_workers=True,
        ),
        ExperimentSpec(
            "e4",
            "Fig. 3: available bandwidth per flow per metric",
            run_fig3,
            supports_workers=True,
        ),
        ExperimentSpec(
            "e5",
            "Fig. 4: estimated vs true available bandwidth",
            run_fig4,
            supports_workers=True,
        ),
        ExperimentSpec(
            "a1", "Ablation: link adaptation vs fixed rates", run_ablation_a1
        ),
        ExperimentSpec(
            "a2",
            "Ablation: column generation vs enumeration",
            run_ablation_a2,
        ),
        ExperimentSpec(
            "a3",
            "Ablation: analytic vs CSMA-measured idleness",
            run_ablation_a3,
        ),
        ExperimentSpec(
            "a4",
            "Ablation: propagation-exponent sensitivity of Fig. 3",
            run_ablation_a4,
        ),
        ExperimentSpec(
            "a5",
            "Ablation: pairwise vs cumulative interference models",
            run_ablation_a5,
        ),
        ExperimentSpec(
            "x1",
            "Extension: estimators as admission controllers",
            run_admission_accuracy,
        ),
        ExperimentSpec(
            "x2",
            "Extension: joint routing vs single metrics",
            run_joint_routing,
        ),
        ExperimentSpec(
            "x3",
            "Extension: admission policies under flow churn",
            run_churn_study,
        ),
        ExperimentSpec(
            "x4",
            "Extension: sequential admission with joint routing",
            run_joint_admission,
        ),
        ExperimentSpec(
            "x6",
            "Extension: online admission under churn, head-to-head",
            run_online_study,
        ),
        ExperimentSpec(
            "x7",
            "Extension: tiled estimation quality and wall-time scaling",
            run_scale_study,
        ),
        ExperimentSpec(
            "s1",
            "Study: seed-robustness of the Fig. 3 metric ordering",
            run_seed_study,
            supports_workers=True,
        ),
    ]
    return {spec.experiment_id: spec for spec in specs}


#: All registered experiments, keyed by id.
EXPERIMENTS: Dict[str, ExperimentSpec] = _registry()


def run_experiment(
    experiment_id: str, workers: Optional[int] = None
) -> object:
    """Run one experiment by id; the result object has a ``.table()``."""
    try:
        spec = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r} (known: {known})"
        ) from None
    return spec.run(workers=workers)
