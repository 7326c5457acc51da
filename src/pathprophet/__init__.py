"""Sequential path selection on stochastic DAGs.

An agent walks a directed acyclic graph from source to sink and keeps
the edges it accepts along the way; each node independently draws one
outcome that fixes the values of all its outgoing edges at once, and
revealed values never change.  This package provides the offline and
online baselines (the prophet and the fully informed walker), exact
evaluation of four online policies with per-edge selection
probabilities, minimum path covers, and the benchmark instance
families used in the test suite.
"""

from .errors import (
    CoverError,
    EnumerationCapError,
    InvalidInstanceError,
    PathProphetError,
    PolicyError,
    ScheduleError,
    StateCapError,
)
from .model import (
    EdgeDef,
    Instance,
    Outcome,
    Realization,
    ValidationReport,
    active_label_caps,
    enumerate_realizations,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    realization_count,
    sample_realization,
    save_instance,
    validate_instance,
)
from .oracle import (
    OPT,
    EdgeProbabilities,
    OfflineSpec,
    Oracle,
    edge_probabilities,
    expected_opt,
    optimal_online_value,
    restricted_spec,
)
from .cover import PathCover, cover_from_paths, min_path_cover
from .policies import (
    POLICIES,
    AlphaSchedule,
    DisjointPlan,
    FocalPolicyExact,
    Trajectory,
    alpha_schedule,
    build_disjoint_plan,
    evaluate_focal_policy,
    exact_disjoint_value,
    exact_general_cover_value,
    feasibility_probabilities,
    prepare_general_cover,
    prepare_policy,
    run_disjoint_paths_policy,
    run_general_cover_policy,
    run_width1_labeled,
    run_width1_unlabeled,
)
from .instances import (
    generate_paper_instance,
    generate_random_instance,
    paper_families,
)
from .simulate import (
    CompetitiveReport,
    PolicyRunReport,
    competitive_report,
    exact_policy_value,
    monte_carlo_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaSchedule",
    "CompetitiveReport",
    "CoverError",
    "DisjointPlan",
    "EdgeDef",
    "EdgeProbabilities",
    "EnumerationCapError",
    "FocalPolicyExact",
    "Instance",
    "InvalidInstanceError",
    "OPT",
    "OfflineSpec",
    "Oracle",
    "Outcome",
    "POLICIES",
    "PathCover",
    "PathProphetError",
    "PolicyError",
    "PolicyRunReport",
    "Realization",
    "ScheduleError",
    "StateCapError",
    "Trajectory",
    "ValidationReport",
    "active_label_caps",
    "alpha_schedule",
    "build_disjoint_plan",
    "competitive_report",
    "cover_from_paths",
    "edge_probabilities",
    "enumerate_realizations",
    "evaluate_focal_policy",
    "exact_disjoint_value",
    "exact_general_cover_value",
    "exact_policy_value",
    "expected_opt",
    "feasibility_probabilities",
    "generate_paper_instance",
    "generate_random_instance",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "min_path_cover",
    "monte_carlo_estimate",
    "optimal_online_value",
    "paper_families",
    "prepare_general_cover",
    "prepare_policy",
    "realization_count",
    "restricted_spec",
    "run_disjoint_paths_policy",
    "run_general_cover_policy",
    "run_width1_labeled",
    "run_width1_unlabeled",
    "sample_realization",
    "save_instance",
    "validate_instance",
    "__version__",
]
