"""Signal-space alignment for MIMO multiway relaying with pairwise exchange.

The package builds joint user/relay beamforming in which bundles of spatial
streams ("units") are aligned so that physical-layer network coding can
decode one combination per user pair, verifies decodability end to end on
sampled channels, and evaluates every closed-form degrees-of-freedom curve
in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelSet,
    SystemConfig,
    channel_from_json,
    channel_to_json,
    complex_gaussian,
    deactivate_relay_antennas,
    derived_rng,
    sample_channel_set,
)
from .dof import (
    DofResult,
    PatternCoefficients,
    achievable_basic,
    achievable_improved,
    alpha_beta,
    asymptotic_dof,
    capacity_thresholds,
    gamma_theta_tau,
    improvement_branch,
    outer_bound_per_user,
    regime_index,
    scaling_check,
)
from .lemmas import (
    LemmaId,
    LemmaTrialResult,
    check_direct_sum,
    check_intersection,
    check_scaling,
    check_stacked_rank,
    default_battery,
    run_battery,
)
from .linalg import (
    LEAKAGE_ABS,
    RANK_REL,
    complement_projector,
    intersection_basis,
    nullspace_basis,
    numerical_rank,
    range_basis,
    union_span_dim,
)
from .pipeline import Construction, construct
from .relay import (
    RelayProcessor,
    StreamRecord,
    VerificationReport,
    assemble_forward_matrix,
    build_relay_processor,
    build_uplink_projectors,
    design_downlink,
    estimate_dof_slope,
    verify_end_to_end,
)
from .units import (
    RANDOM,
    AlignmentPlan,
    Allocation,
    Unit,
    build_aligned_unit,
    build_random_unit,
    execute_plan,
    plan_alignment,
)

__all__ = [
    "__version__",
    # linalg
    "RANK_REL", "LEAKAGE_ABS", "numerical_rank", "nullspace_basis", "range_basis",
    "intersection_basis", "complement_projector", "union_span_dim",
    # channel
    "SystemConfig", "ChannelSet", "sample_channel_set", "deactivate_relay_antennas",
    "channel_to_json", "channel_from_json", "complex_gaussian", "derived_rng",
    # dof
    "DofResult", "PatternCoefficients", "alpha_beta", "outer_bound_per_user",
    "regime_index", "achievable_basic", "achievable_improved", "improvement_branch",
    "gamma_theta_tau", "asymptotic_dof", "scaling_check", "capacity_thresholds",
    # units
    "RANDOM", "Unit", "Allocation", "AlignmentPlan", "build_random_unit",
    "build_aligned_unit", "plan_alignment", "execute_plan",
    # relay
    "RelayProcessor", "StreamRecord", "VerificationReport", "build_uplink_projectors",
    "design_downlink", "assemble_forward_matrix", "build_relay_processor",
    "verify_end_to_end", "estimate_dof_slope",
    # lemmas
    "LemmaId", "LemmaTrialResult", "check_intersection", "check_stacked_rank",
    "check_direct_sum", "check_scaling", "run_battery", "default_battery",
    # pipeline
    "Construction", "construct",
]
