"""Finite-horizon Dec-POMDP planning via coordinator histories.

Exact and compressed dynamic programs over the common-information
reformulation, state-compression construction and measurement, and
optimality-gap verification against brute-force oracles.

``import ciplan`` loads no submodule: each public name below is imported
from its module on first access (PEP 562), so a process loads only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(
        ["BudgetExceededError", "DecPomdpModel", "ModelFormatError",
         "ModelValidationError", "load_model", "serialize", "validate"],
        "model"),
    **dict.fromkeys(["FcsTree", "Prescription", "enumerate_prescriptions"], "histories"),
    **dict.fromkeys(
        ["CoordinatorPolicy", "ValueTable", "brute_force_value",
         "evaluate_coordinator_policy", "solve_fcs_fps", "supervisor_q"],
        "exact_dp"),
    **dict.fromkeys(
        ["BeliefState", "bayes_update", "check_spi", "compute_bcs", "solve_bcs_fps",
         "solve_bcs_spi", "tv_distance", "verify_propositions"],
        "belief"),
    **dict.fromkeys(
        ["CommonCompression", "MeasuredParams", "PrivateCompression", "bcs_common",
         "build_common_greedy", "build_exact_private", "build_greedy", "check_recursive",
         "identity_common", "identity_private", "load_compression", "measure_common",
         "measure_private", "serialize_compression"],
        "compression"),
    **dict.fromkeys(["solve_ascs_asps", "solve_fcs_asps"], "approx_dp"),
    **dict.fromkeys(["GapReport", "check_lemmas", "gap_bound", "verify_gaps"], "verify"),
    "random_model": "generate",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
