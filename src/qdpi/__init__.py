"""Divergence monotonicity toolkit for positive matrix maps.

Layers: linalg (validated primitives), divergences (relative entropy and
Renyi families), channels (superoperators with positivity certificates),
serialize (every file format), harness (seeded verification suites), cli.
"""

from .linalg import (
    DEFAULT_TOL,
    DomainError,
    EigensolverError,
    ToleranceConfig,
    ValidatedPSD,
    operator_norm,
    psd,
    schatten_norm,
    trace_norm,
)
from .divergences import (
    gamma_inverse,
    klein_gap,
    old_renyi,
    relative_entropy,
    renyi_via_norm,
    sandwiched_renyi,
    support_contained,
    von_neumann_entropy,
    weighted_p_norm,
)
from .channels import (
    PositivityCertificate,
    SuperOperator,
    TraceBehavior,
    adjoint,
    choi,
    classify,
    compose,
    construct,
    counterexample_map,
    damped_cptp,
    depolarizing_map,
    from_choi,
    from_kraus,
    from_matrix,
    gamma_superoperator,
    halving_map,
    identity_map,
    one_to_one_norm_positive,
    pinching_map,
    random_cptp,
    random_positive_noncp,
    reduction_map,
    trace_behavior,
    transpose_map,
    truncation_map,
)
from .serialize import (
    CheckReport,
    FormatError,
    SCHEMA_VERSION,
    Witness,
    canonical_json,
    channel_from_dict,
    channel_to_dict,
    load_json,
    matrix_from_dict,
    matrix_to_dict,
    report_from_dict,
    report_to_dict,
    save_json,
    witness_from_dict,
    witness_to_dict,
)
from .harness import (
    alpha_limit_battery,
    alpha_limit_suite,
    auxiliary_inequality_suite,
    contraction_battery,
    counterexample_suite,
    monotonicity_check,
    randomized_dpi_suite,
    replay_witness,
    sample_state_pairs,
    step2_battery,
    step2_suite,
    violation_search,
)
from .sampling import rng_for_trial

__version__ = "0.1.0"
