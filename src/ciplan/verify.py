"""Optimality-gap bound formulas, observed-gap verification, and numeric
validation of the supporting identities.

The bound formulas are closed forms in the remaining horizon, the horizon
itself, the per-step reward bound, and the measured compression parameters.
Verification runs the exact and compressed sweeps side by side and asserts
that every observed value gap sits under its bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .approx_dp import solve_ascs_asps, solve_fcs_asps
from .belief import ConditionReport, ConditionResult, tv_distance
from .compression import (
    REFERENCE_MEASURE,
    CommonCompression,
    MeasuredParams,
    PrivateCompression,
    Session,
    measure_common,
    measure_private,
)
from .exact_dp import (
    DEFAULT_BUDGET,
    solve_fcs_fps,
    supervisor_q,
)
from .histories import FcsTree, enumerate_prescriptions, level_nodes
from .model import ADMISSIBILITY_THRESHOLD, DecPomdpModel

GAP_TOL = 1e-9
EQ_TOL = 1e-9

BOUND_KINDS = ("thm1", "thm2", "thm3", "prop5", "prop6", "lem2")


def gap_bound(kind: str, tbar: int, horizon: int, rbar: float, params: MeasuredParams) -> float:
    """Closed-form optimality-gap bound of the named kind.

    ``tbar`` is the remaining number of decision steps after the current one;
    all formulas are monotone nondecreasing in every argument.
    """
    if tbar < 0 or horizon < 1 or rbar < 0:
        raise ValueError("tbar, horizon, rbar must be nonnegative (horizon >= 1)")
    ep, dp = params.eps_p, params.delta_p
    ec, dc = params.eps_c, params.delta_c
    if min(ep, dp, ec, dc) < 0:
        raise ValueError("measured parameters must be nonnegative")
    # ``c and c * x`` is 0 for a zero coefficient ``c``, even where ``x``
    # overflowed to inf, so a bound is finite or +inf, never NaN.
    step_p = ep + (dp and horizon * rbar * dp)
    step_c = ec + (dc and horizon * rbar * dc)
    if kind == "thm1":
        return (tbar and tbar * (tbar + 1) / 2 * step_p) + (tbar + 1) * ep
    if kind == "thm2":
        return (tbar and tbar * step_c) + ec
    if kind == "thm3":
        return gap_bound("thm1", tbar, horizon, rbar, params) + gap_bound(
            "thm2", tbar, horizon, rbar, params
        )
    if kind == "prop5":
        return (tbar and tbar * step_p) + ep
    if kind == "prop6":
        return (tbar and 2 * tbar * step_c) + 2 * ec
    if kind == "lem2":
        return (tbar and tbar * step_p / 2) + ep / 2
    raise ValueError(f"unknown bound kind {kind!r}")


@dataclass
class GapRow:
    t: int
    state_key: object
    kind: str
    observed: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.observed

    @property
    def passed(self) -> bool:
        return self.observed <= self.bound + GAP_TOL


@dataclass
class GapReport:
    """Observed value gaps of the compressed sweeps against their bounds."""

    horizon: int
    params: MeasuredParams
    rows: list[GapRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def max_slack(self) -> float:
        return max((r.slack for r in self.rows), default=0.0)

    def to_jsonable(self) -> dict:
        return {
            "mu": REFERENCE_MEASURE,
            "params": {
                "eps_p": self.params.eps_p,
                "delta_p": self.params.delta_p,
                "eps_c": self.params.eps_c,
                "delta_c": self.params.delta_c,
            },
            "passed": self.passed,
            "rows": [
                {
                    "t": r.t,
                    "state_key": repr(r.state_key),
                    "kind": r.kind,
                    "observed": r.observed,
                    "bound": r.bound,
                    "slack": r.slack,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
        }


def verify_gaps(
    model: DecPomdpModel,
    pc: PrivateCompression,
    cc: CommonCompression,
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> GapReport:
    """Run the exact and both compressed sweeps, measure the compressions,
    and compare every per-node observed gap against its bound.

    Rows cover each node of the compressed-prescription subtree for the
    exact-vs-private gap, the private-vs-common gap (one-sided as stated),
    and their combination, plus one sup-over-nodes row per kind and time.
    """
    s = Session.of(model, pc, tree, cc)
    mp = measure_private(model, s, budget=budget)
    mc = measure_common(model, s, cc, budget=budget)
    params = mp.merged(mc)
    exact_table, _ = solve_fcs_fps(model, s.tree, budget=budget)
    asps_table, _ = solve_fcs_asps(model, s, budget=budget)
    ascs_table, _, _ = solve_ascs_asps(model, s, cc, budget=budget)

    report = GapReport(horizon=model.horizon, params=params)
    rbar = model.reward_bound
    for t in range(1, model.horizon + 1):
        tbar = model.horizon - t
        sups = {kind: 0.0 for kind in ("thm1", "thm2", "thm3")}
        any_nodes = False
        for node in s.level(t).nodes:
            any_nodes = True
            v = exact_table.entries[(t, node.seq)].value
            v_hat = asps_table.entries[(t, node.seq)].value
            v_check = ascs_table.entries[(t, cc.label_of(t, node.seq))].value
            observed = {
                "thm1": v - v_hat,
                "thm2": v_hat - v_check,
                "thm3": v - v_check,
            }
            for kind, obs in observed.items():
                report.rows.append(
                    GapRow(
                        t=t,
                        state_key=node.seq,
                        kind=kind,
                        observed=obs,
                        bound=gap_bound(kind, tbar, model.horizon, rbar, params),
                    )
                )
                sups[kind] = max(sups[kind], obs)
        if any_nodes:
            for kind, obs in sups.items():
                report.rows.append(
                    GapRow(
                        t=t,
                        state_key="sup",
                        kind=kind,
                        observed=obs,
                        bound=gap_bound(kind, tbar, model.horizon, rbar, params),
                    )
                )
    return report


def check_lemmas(
    model: DecPomdpModel,
    pc: PrivateCompression,
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ConditionReport:
    """Exhaustively validate the supporting identities at desk scale.

    Checked statements: the coordinator Q-value of a prescription is the
    history-probability mixture of per-history omniscient Q-values (equality);
    per-history omniscient Q-values of two histories with equal private
    labels differ at most the half-bound, both for a fixed compressed
    prescription and for the compressed-optimal one; and the next-step
    statistics given a history depend on the chosen prescription only through
    the action it assigns to that history (distribution equality).
    """
    s = Session.of(model, pc, tree)
    tree = s.tree
    report = ConditionReport()
    exact_table, exact_policy = solve_fcs_fps(model, tree, budget=budget)
    _asps_table, asps_policy = solve_fcs_asps(model, s, budget=budget)
    mp = measure_private(model, s, budget=budget)
    rbar = model.reward_bound

    # Mixture identity: Q(h0, gamma) = sum_h P(h|h0) Q^S(h0, h, gamma).
    viol1, wit1 = 0.0, None
    for t in range(1, model.horizon + 1):
        for node in level_nodes(tree, t):
            entry = exact_table.entries[(t, node.seq)]
            prescs = enumerate_prescriptions(model, node.agent_domains)
            fps = tree.reachable_fps(node)
            for idx, gamma in enumerate(prescs):
                mixture = sum(
                    f.probability
                    * supervisor_q(model, tree, node, f.histories, gamma, exact_policy)
                    for f in fps
                )
                d = abs(entry.q_values[idx] - mixture)
                if d > viol1:
                    viol1, wit1 = d, (node.seq, gamma.key)
    report.results.append(
        ConditionResult("lemma1_q_mixture", viol1 <= EQ_TOL, viol1, wit1)
    )

    # Same-label history pairs under compressed prescriptions and under the
    # compressed-optimal policy, from each history's Q-values under every
    # compressed prescription and the alg-2 choice, computed once per node.
    viol2, wit2 = 0.0, None
    violc, witc = 0.0, None
    for t in range(1, model.horizon + 1):
        tbar = model.horizon - t
        bound = gap_bound("lem2", tbar, model.horizon, rbar, mp)
        for node in s.level(t).nodes:
            labels = s.labels(node)
            classes: dict = {}
            for f in tree.reachable_fps(node):
                z = tuple(lab[h] for lab, h in zip(labels, f.histories))
                classes.setdefault(z, []).append(f.histories)
            classes = [hs for hs in classes.values() if len(hs) > 1]
            if not classes:
                continue
            gammas = [g for _lam, g in s.pairs(node)] + [asps_policy.at(node.seq)]
            q = {
                h: [supervisor_q(model, tree, node, h, gamma, asps_policy) for gamma in gammas]
                for hs in classes for h in hs
            }
            for hs in classes:
                for i, h1 in enumerate(hs):
                    for h2 in hs[i + 1:]:
                        for gamma, q1, q2 in zip(gammas[:-1], q[h1], q[h2]):
                            d = abs(q1 - q2)
                            excess = d - bound
                            if excess > viol2:
                                viol2, wit2 = excess, (node.seq, h1, h2, gamma.key, d, bound)
                        d = abs(q[h1][-1] - q[h2][-1])
                        excess = d - bound
                        if excess > violc:
                            violc, witc = excess, (node.seq, h1, h2, d, bound)
    report.results.append(
        ConditionResult("lemma2_same_label_q", viol2 <= EQ_TOL, viol2, wit2)
    )
    report.results.append(
        ConditionResult("corollary1_same_label_v", violc <= EQ_TOL, violc, witc)
    )

    # Next-step statistics depend on the prescription only through the action
    # it assigns to the given history.  Computed through child-node weights so
    # the comparison crosses two different aggregation paths; each child atom
    # counts for the history it grew from, ``h_next[n] = h[n] + (a[n], o[n])``.
    viol3, wit3 = 0.0, None
    for t in range(1, model.horizon):
        level, below = tree.full_level(t), tree.full_level(t + 1)
        for i, node in enumerate(level.nodes):
            grown = []
            for k in range(len(level.gammas[i])):
                per_h: dict = {}
                for c in level.children(i, k):
                    child, p_branch = below.nodes[c], level.mass[c]
                    for (s_next, h_next), w in child.weights:
                        dist = per_h.setdefault(tuple(hn[:-2] for hn in h_next), {})
                        key = (child.seq[-1], tuple(hn[-1] for hn in h_next), s_next)
                        dist[key] = dist.get(key, 0.0) + p_branch * w
                grown.append(per_h)
            for f in tree.reachable_fps(node):
                h = f.histories
                per_action: dict = {}
                for gamma, per_h in zip(level.gammas[i], grown):
                    dist = per_h.get(h, {})
                    mass = sum(dist.values())
                    if mass <= ADMISSIBILITY_THRESHOLD:
                        continue
                    dist = {key: v / mass for key, v in dist.items()}
                    a = gamma.act(h)
                    ref = per_action.setdefault(a, dist)
                    d = tv_distance(ref, dist)
                    if d > viol3:
                        viol3, wit3 = d, (node.seq, h, a)
    report.results.append(
        ConditionResult("lemma3_next_step_invariance", viol3 <= EQ_TOL, viol3, wit3)
    )
    return report
