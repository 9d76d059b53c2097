"""Experiments: one module per paper figure/table plus ablations.

========  =============================================  ======================
ID        Paper artifact                                 Runner
========  =============================================  ======================
e1        Fig. 1 Scenario I (idle-time pathology)        :func:`run_scenario1`
e2        Section 5.1 worked example (Scenario II)       :func:`run_scenario2`
e3        Fig. 2 (placement + per-metric paths)          :func:`run_fig2`
e4        Fig. 3 (bandwidth per flow per metric)         :func:`run_fig3`
e5        Fig. 4 (estimators vs truth)                   :func:`run_fig4`
a1        Ablation: link adaptation gain                 :func:`run_ablation_a1`
a2        Ablation: column generation vs enumeration     :func:`run_ablation_a2`
a3        Ablation: analytic vs measured idleness        :func:`run_ablation_a3`
========  =============================================  ======================
"""

from repro.experiments.ablations import (
    AblationA1Result,
    AblationA2Result,
    AblationA3Result,
    AblationA4Result,
    AblationA5Result,
    fixed_rate_available_bandwidth,
    run_ablation_a1,
    run_ablation_a2,
    run_ablation_a3,
    run_ablation_a4,
    run_ablation_a5,
)
from repro.experiments.churn_study import ChurnStudyResult, run_churn_study
from repro.experiments.online_study import (
    OnlinePolicyOutcome,
    OnlineStudyResult,
    run_online_study,
)
from repro.experiments.extensions import (
    AdmissionAccuracyResult,
    JointAdmissionResult,
    JointRoutingResult,
    run_admission_accuracy,
    run_joint_admission,
    run_joint_routing,
)
from repro.experiments.checkpoint import (
    CheckpointStore,
    get_checkpoint_store,
    use_checkpoint_store,
)
from repro.experiments.failures import (
    ItemFailure,
    collect_failures,
    format_failures,
    record_failure,
)
from repro.experiments.fig2_paths import Fig2Result, run_fig2
from repro.experiments.fig3_routing import Fig3Config, Fig3Result, run_fig3
from repro.experiments.fig4_estimation import Fig4Result, run_fig4
from repro.experiments.parallel import fault_tolerant_map
from repro.experiments.report import format_table
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.ascii_map import render_topology
from repro.experiments.scale_study import ScaleStudyResult, run_scale_study
from repro.experiments.scenario1 import Scenario1Result, run_scenario1
from repro.experiments.scenario2 import Scenario2Result, run_scenario2
from repro.experiments.seed_study import SeedStudyResult, run_seed_study

__all__ = [
    "run_scenario1",
    "Scenario1Result",
    "run_scenario2",
    "Scenario2Result",
    "run_fig2",
    "Fig2Result",
    "run_fig3",
    "Fig3Config",
    "Fig3Result",
    "run_fig4",
    "Fig4Result",
    "run_ablation_a1",
    "AblationA1Result",
    "run_ablation_a2",
    "AblationA2Result",
    "run_ablation_a3",
    "AblationA3Result",
    "run_ablation_a4",
    "AblationA4Result",
    "run_ablation_a5",
    "AblationA5Result",
    "fixed_rate_available_bandwidth",
    "run_admission_accuracy",
    "AdmissionAccuracyResult",
    "run_joint_routing",
    "JointRoutingResult",
    "run_churn_study",
    "ChurnStudyResult",
    "run_online_study",
    "OnlineStudyResult",
    "OnlinePolicyOutcome",
    "run_joint_admission",
    "JointAdmissionResult",
    "format_table",
    "render_topology",
    "run_seed_study",
    "SeedStudyResult",
    "run_scale_study",
    "ScaleStudyResult",
    "EXPERIMENTS",
    "run_experiment",
    "fault_tolerant_map",
    "ItemFailure",
    "collect_failures",
    "record_failure",
    "format_failures",
    "CheckpointStore",
    "use_checkpoint_store",
    "get_checkpoint_store",
]
