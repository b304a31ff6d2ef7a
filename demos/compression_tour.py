"""Tour of private and common compressions on a random model.

Builds the exact (lossless) private compression and a family of lossy ones,
measures their error parameters, runs the compressed dynamic programs, and
verifies every observed value gap against its closed-form bound.

Run from the repository root:

    python3 demos/compression_tour.py
"""

from ciplan.approx_dp import solve_ascs_asps, solve_fcs_asps
from ciplan.compression import (
    bcs_common,
    build_common_greedy,
    build_exact_private,
    build_greedy,
    measure_common,
    measure_private,
)
from ciplan.exact_dp import solve_fcs_fps
from ciplan.generate import random_model
from ciplan.histories import FcsTree
from ciplan.verify import verify_gaps


def main() -> None:
    model = random_model(11, num_states=2, private_obs_sizes=(2, 2), horizon=2)
    tree = FcsTree(model)
    exact, _ = solve_fcs_fps(model, tree)
    print(f"exact value V = {exact.overall_value:.6f}\n")

    # Lossless route: partition refinement plus belief-fingerprint node merge.
    pc0 = build_exact_private(model, tree)
    cc0 = bcs_common(model, pc0, tree)
    mp0 = measure_private(model, pc0, tree=tree)
    mc0 = measure_common(model, pc0, cc0, tree=tree)
    v_hat, _ = solve_fcs_asps(model, pc0, tree)
    v_check, _ = solve_ascs_asps(model, pc0, cc0, tree=tree)
    print("lossless compression:")
    print(f"  measured (eps_p, delta_p, eps_c, delta_c) = "
          f"({mp0.eps_p:.2e}, {mp0.delta_p:.2e}, {mc0.eps_c:.2e}, {mc0.delta_c:.2e})")
    print(f"  V-hat   = {v_hat.overall_value:.6f}")
    print(f"  V-check = {v_check.overall_value:.6f}\n")

    # Lossy route: coarser labels trade value for a smaller recursion, and the
    # bound report certifies how much value can have been lost.
    print(f"{'tol':>5} {'labels':>7} {'V-hat':>10} {'eps_p':>8} "
          f"{'delta_p':>8} {'bound ok':>9}")
    for tol in (0.1, 0.3, 0.5, 1.0):
        pc = build_greedy(model, tol, tol, tree=tree)
        cc = build_common_greedy(model, pc, tol, tol, tree=tree)
        mp = measure_private(model, pc, tree=tree)
        v_hat, _ = solve_fcs_asps(model, pc, tree)
        report = verify_gaps(model, pc, cc, tree=tree)
        labels = len(set(pc.theta.values()))
        print(f"{tol:>5.1f} {labels:>7d} {v_hat.overall_value:>10.6f} "
              f"{mp.eps_p:>8.4f} {mp.delta_p:>8.4f} {str(report.passed):>9}")


if __name__ == "__main__":
    main()
