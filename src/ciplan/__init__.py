"""Finite-horizon Dec-POMDP planning via coordinator histories.

Exact and compressed dynamic programs over the common-information
reformulation, state-compression construction and measurement, and
optimality-gap verification against brute-force oracles.
"""

from .model import (
    DecPomdpModel,
    ModelFormatError,
    ModelValidationError,
    load_model,
    serialize,
    validate,
)
from .histories import FcsTree, Prescription, enumerate_prescriptions
from .exact_dp import (
    BudgetExceededError,
    CoordinatorPolicy,
    ValueTable,
    brute_force_value,
    evaluate_coordinator_policy,
    solve_fcs_fps,
    supervisor_q,
)
from .belief import (
    BeliefState,
    bayes_update,
    check_spi,
    compute_bcs,
    solve_bcs_fps,
    solve_bcs_spi,
    tv_distance,
    verify_propositions,
)
from .compression import (
    CommonCompression,
    MeasuredParams,
    PrivateCompression,
    bcs_common,
    build_common_greedy,
    build_exact_private,
    build_greedy,
    check_recursive,
    identity_common,
    identity_private,
    load_compression,
    measure_common,
    measure_private,
    serialize_compression,
)
from .approx_dp import solve_ascs_asps, solve_fcs_asps
from .verify import GapReport, check_lemmas, gap_bound, verify_gaps
from .generate import random_model

__version__ = "0.1.0"

__all__ = [
    "BeliefState",
    "BudgetExceededError",
    "CommonCompression",
    "CoordinatorPolicy",
    "DecPomdpModel",
    "FcsTree",
    "GapReport",
    "MeasuredParams",
    "ModelFormatError",
    "ModelValidationError",
    "Prescription",
    "PrivateCompression",
    "ValueTable",
    "bayes_update",
    "bcs_common",
    "brute_force_value",
    "build_common_greedy",
    "build_exact_private",
    "build_greedy",
    "check_lemmas",
    "check_recursive",
    "check_spi",
    "compute_bcs",
    "enumerate_prescriptions",
    "evaluate_coordinator_policy",
    "gap_bound",
    "identity_common",
    "identity_private",
    "load_compression",
    "load_model",
    "measure_common",
    "measure_private",
    "random_model",
    "serialize",
    "serialize_compression",
    "solve_ascs_asps",
    "solve_bcs_fps",
    "solve_bcs_spi",
    "solve_fcs_asps",
    "solve_fcs_fps",
    "supervisor_q",
    "tv_distance",
    "validate",
    "verify_gaps",
    "verify_propositions",
]
