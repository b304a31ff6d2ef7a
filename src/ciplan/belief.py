"""Belief common states, Bayesian updates, belief-keyed dynamic programs, and
sufficient-private-information condition checking.

A belief state is the conditional distribution over (system state, joint
private history) given a coordinator history; re-keying the backward sweep by
a rounded fingerprint of this distribution merges coordinator histories that
carry the same decision-relevant information.  The private-side analogue
relabels each agent's history through a private compression's labels and is
accepted only when the four sufficiency conditions verify exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .exact_dp import (
    DEFAULT_BUDGET,
    CoordinatorPolicy,
    ValueTable,
    generic_solve,
)
from .histories import (
    FcsNode,
    FcsTree,
    Hist,
    Prescription,
    _successor_labels,
    _successor_weights,
    enumerate_prescriptions,
    level_nodes,
)
from .model import ADMISSIBILITY_THRESHOLD, DecPomdpModel

if TYPE_CHECKING:
    from .compression import PrivateCompression

FINGERPRINT_DECIMALS = 9
CHECK_TOL = 1e-9


class ZeroProbabilityBranchError(ValueError):
    """Bayes update requested along a common observation of zero probability."""


class SpiConditionError(ValueError):
    """Private labels failing their condition check were passed to the DP."""


@dataclass(frozen=True)
class BeliefState:
    """Distribution over (state, per-agent private keys) at one time step."""

    t: int
    atoms: tuple[tuple[tuple[int, tuple], float], ...]

    @property
    def fingerprint(self) -> tuple:
        return _fingerprint(self.t, self.atoms)


def _fingerprint(t: int, atoms, total: float = 1.0) -> tuple:
    """``(t, atoms)`` with each weight divided by ``total``, then rounded."""
    return (t, tuple([(k, round(w / total, FINGERPRINT_DECIMALS)) for k, w in atoms]))


def _node_fingerprint(node: FcsNode) -> tuple:
    """``compute_bcs(tree, node).fingerprint``, without building the belief."""
    return _fingerprint(node.t, node.weights, sum([w for _k, w in node.weights]))


def _belief_from_raw(t: int, raw: dict) -> BeliefState:
    total = sum(raw.values())
    return BeliefState(
        t=t, atoms=tuple(sorted((k, p / total) for k, p in raw.items()))
    )


def compute_bcs(tree: FcsTree, node: FcsNode, label_of=None) -> BeliefState:
    """Belief over (state, joint private history) at a coordinator node.

    With ``label_of(agent, hist) -> key`` the private coordinates are mapped
    through a compression before aggregation.
    """
    if label_of is None:
        # The node's atoms are already distinct and sorted.
        total = sum(w for _key, w in node.weights)
        return BeliefState(t=node.t, atoms=tuple((k, w / total) for k, w in node.weights))
    raw: dict = {}
    for (s, hjoint), w in node.weights:
        key = (s, tuple(label_of(n, h) for n, h in enumerate(hjoint)))
        raw[key] = raw.get(key, 0.0) + w
    return _belief_from_raw(node.t, raw)


def bayes_update(
    model: DecPomdpModel, belief: BeliefState, gamma: Prescription, o0: int
) -> BeliefState:
    """Posterior belief after prescribing ``gamma`` and observing ``o0``.

    Matches the direct computation on the child coordinator node atom-for-atom.
    """
    raw = _successor_weights(model, belief.atoms, gamma).get(o0)
    if raw is None or sum(raw.values()) <= ADMISSIBILITY_THRESHOLD:
        raise ZeroProbabilityBranchError(
            f"common observation {o0} has zero probability under this belief"
        )
    return _belief_from_raw(belief.t + 1, raw)


def solve_bcs_fps(
    model: DecPomdpModel,
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward sweep keyed by belief fingerprint instead of the raw history.

    Coordinator histories with equal (rounded) beliefs share one value entry.
    """
    return generic_solve(model, tree, key_fn=_node_fingerprint, budget=budget)


# -- sufficient private information ---------------------------------------


@dataclass
class ConditionResult:
    condition: str
    passed: bool
    max_violation: float
    witness: object | None
    note: str = ""


@dataclass
class ConditionReport:
    results: list[ConditionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, condition: str) -> ConditionResult:
        for r in self.results:
            if r.condition == condition:
                return r
        raise KeyError(condition)

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "results": [
                {
                    "condition": r.condition,
                    "passed": r.passed,
                    "max_violation": r.max_violation,
                    "witness": repr(r.witness),
                    "note": r.note,
                }
                for r in self.results
            ],
        }


def tv_distance(p, q) -> float:
    """Total variation distance, ½ Σ|p − q|.

    Accepts two mappings over a shared key universe or two equal-length
    sequences; mismatched sequence lengths are an error.
    """
    if isinstance(p, dict) or isinstance(q, dict):
        keys = set(p) | set(q)
        return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"mismatched universes: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def _state_conditional(node: FcsNode, predicate) -> dict[int, float]:
    """P(s | node, predicate over joint history), normalized."""
    raw: dict[int, float] = {}
    for (s, hjoint), w in node.weights:
        if predicate(hjoint):
            raw[s] = raw.get(s, 0.0) + w
    total = sum(raw.values())
    return {s: w / total for s, w in raw.items()}


def _next_obs_distribution(
    model: DecPomdpModel, sdist: dict[int, float], a_idx: int
) -> dict[tuple[int, tuple[int, ...]], float]:
    """P(o0', o1..N' | state mixture, joint action)."""
    out: dict = {}
    for s, w in sorted(sdist.items()):
        for _s_next, obs, p in model.step(s, a_idx, w):
            key = (obs.common, obs.private)
            out[key] = out.get(key, 0.0) + p
    return out


def check_spi(
    model: DecPomdpModel, pc: PrivateCompression, tree: FcsTree | None = None
) -> ConditionReport:
    """Exhaustively evaluate the four sufficiency conditions at desk scale.

    Only the compression's labels are read, through each node's label map;
    its recursive update may be empty.  ``pc`` may be a session.

    The third condition conditions jointly on a prescription and an action;
    only consistent pairs (the action the prescription actually chooses for
    the evaluated history) are enumerated, which is recorded in the report.
    """
    from .compression import Session

    s = Session.of(model, pc, tree)
    tree, theta = s.tree, s.pc.theta
    report = ConditionReport()

    # Condition 1: well-defined recursive update.  Tuples with equal
    # (node, label, prescription, increments) must share a successor label.
    viol1, wit1 = 0.0, None
    seen_updates: dict[tuple, object] = {}
    for t in range(1, model.horizon):
        for node in level_nodes(tree, t):
            labels = s.labels(node)
            for gamma in enumerate_prescriptions(model, node.agent_domains):
                for o0, n, h, an, on, z_next in _successor_labels(tree, node, gamma, theta):
                    upd_key = (node.seq, n, labels[n][h], gamma.key, o0, an, on)
                    prev = seen_updates.setdefault(upd_key, z_next)
                    if prev != z_next and viol1 == 0.0:
                        viol1 = 1.0
                        wit1 = (node.seq, n, h, h + (an, on), prev, z_next)
    report.results.append(
        ConditionResult("SPI1", viol1 <= CHECK_TOL, viol1, wit1)
    )

    viol2, wit2 = 0.0, None
    viol3, wit3 = 0.0, None
    viol4, wit4 = 0.0, None
    for t in range(1, model.horizon + 1):
        for node in level_nodes(tree, t):
            hist_domains = node.agent_domains
            labels = s.labels(node)
            joint_labels = [
                tuple(lab[h] for lab, h in zip(labels, hjoint)) for (_s, hjoint), _w in node.weights
            ]

            # Per-agent label groupings.
            for n, domain in enumerate(hist_domains):
                groups: dict[object, list[Hist]] = {}
                for h in domain:
                    groups.setdefault(labels[n][h], []).append(h)

                for h in domain:
                    pre = groups[labels[n][h]]
                    sdist_h = _state_conditional(node, lambda hj: hj[n] == h)
                    sdist_z = _state_conditional(node, lambda hj: hj[n] in pre)
                    # Condition 2: reward sufficiency for every joint action.
                    for a in model.iter_joint_actions():
                        a_idx = model.joint_action_index(a)
                        e_h = sum(w * float(model.reward[s, a_idx]) for s, w in sdist_h.items())
                        e_z = sum(w * float(model.reward[s, a_idx]) for s, w in sdist_z.items())
                        d = abs(e_h - e_z)
                        if d > viol2:
                            viol2, wit2 = d, (node.seq, n, h, a)
                    # Condition 4: predicting the other agents' labels.
                    dist_h: dict = {}
                    dist_z: dict = {}
                    for ((_s, hjoint), w), z in zip(node.weights, joint_labels):
                        others = z[:n] + z[n + 1:]
                        if hjoint[n] == h:
                            dist_h[others] = dist_h.get(others, 0.0) + w
                        if hjoint[n] in pre:
                            dist_z[others] = dist_z.get(others, 0.0) + w
                    mass_h = sum(dist_h.values())
                    mass_z = sum(dist_z.values())
                    d = tv_distance(
                        {k: v / mass_h for k, v in dist_h.items()},
                        {k: v / mass_z for k, v in dist_z.items()},
                    )
                    if d > viol4:
                        viol4, wit4 = d, (node.seq, n, h)

            # Condition 3: predicting the next joint labels and the common
            # observation, under consistent (prescription, action) pairs.
            if t < model.horizon:
                fps = tree.reachable_fps(node)
                joint_label = {
                    f.histories: tuple(lab[h] for lab, h in zip(labels, f.histories)) for f in fps
                }
                fps_prob = {f.histories: f.probability for f in fps}
                for gamma in enumerate_prescriptions(model, hist_domains):
                    children = {
                        o0: child for o0, child, _p in tree.expand(node, gamma)
                    }

                    def future_dist(hjoint, a):
                        sdist = _state_conditional(node, lambda hj: hj == hjoint)
                        obs_dist = _next_obs_distribution(
                            model, sdist, model.joint_action_index(a)
                        )
                        out: dict = {}
                        for (o0, opriv), p in obs_dist.items():
                            child = children.get(o0)
                            if child is None:
                                key = (("unreachable", o0), o0)
                            else:
                                z_next = tuple(
                                    theta.get(
                                        (t + 1, child.seq, m, hjoint[m] + (a[m], opriv[m]))
                                    )
                                    for m in range(model.num_agents)
                                )
                                key = (z_next, o0)
                            out[key] = out.get(key, 0.0) + p
                        return out

                    for f in fps:
                        h = f.histories
                        a = gamma.act(h)
                        dist_h = future_dist(h, a)
                        z = joint_label[h]
                        # Conditioning on both the prescription and the action
                        # restricts the preimage to histories the prescription
                        # maps to that action.
                        pre = [
                            g
                            for g in joint_label
                            if joint_label[g] == z and gamma.act(g) == a
                        ]
                        mass = sum(fps_prob[g] for g in pre)
                        dist_z: dict = {}
                        for g in pre:
                            dg = future_dist(g, a)
                            for k, p in dg.items():
                                dist_z[k] = dist_z.get(k, 0.0) + fps_prob[g] / mass * p
                        d = tv_distance(dist_h, dist_z)
                        if d > viol3:
                            viol3, wit3 = d, (node.seq, h, gamma.key, a)

    report.results.append(ConditionResult("SPI2", viol2 <= CHECK_TOL, viol2, wit2))
    report.results.append(
        ConditionResult(
            "SPI3",
            viol3 <= CHECK_TOL,
            viol3,
            wit3,
            note="evaluated only at consistent (prescription, action) pairs",
        )
    )
    report.results.append(ConditionResult("SPI4", viol4 <= CHECK_TOL, viol4, wit4))
    report.results.sort(key=lambda r: r.condition)
    return report


def solve_bcs_spi(
    model: DecPomdpModel,
    pc: PrivateCompression,
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ValueTable, CoordinatorPolicy]:
    """Belief-keyed sweep with prescriptions over compressed private labels.

    Rejects compressions whose labels fail :func:`check_spi`; with passing
    labels the overall value matches the uncompressed sweep exactly.
    """
    from .compression import Session

    s = Session.of(model, pc, tree)
    report = check_spi(model, s)
    if not report.passed:
        failed = [r.condition for r in report.results if not r.passed]
        raise SpiConditionError(f"sufficiency conditions failed: {', '.join(failed)}")

    def key_fn(node: FcsNode):
        labels = s.labels(node)
        return compute_bcs(s.tree, node, label_of=lambda n, h: labels[n][h]).fingerprint

    return generic_solve(model, s.tree, pc=s, key_fn=key_fn, budget=budget)


def verify_propositions(
    model: DecPomdpModel, compressions, tree: FcsTree | None = None
) -> ConditionReport:
    """Check the implication structure among the sufficiency condition sets.

    For each supplied private compression: when the policy-independent
    recursive update and exact observation-prediction hold (premises at
    1e-9), the joint label/observation prediction condition must hold too;
    and when exact reward sufficiency plus cross-agent label prediction
    hold, per-agent reward sufficiency must follow (conclusions at 1e-6).
    Also verifies that the belief common state measures as an exact common
    compression.
    """
    from . import compression as comp

    tree = tree or FcsTree(model)
    report = ConditionReport()

    pc_identity = comp.identity_private(model, tree)
    cc_bcs = comp.bcs_common(model, pc_identity, tree)
    mc = comp.measure_common(model, pc_identity, cc_bcs, tree=tree)
    report.results.append(
        ConditionResult(
            "bcs_is_exact_common",
            mc.eps_c <= CHECK_TOL and mc.delta_c <= CHECK_TOL,
            max(mc.eps_c, mc.delta_c),
            None,
            note="belief common state measured as zero-error compression",
        )
    )

    for i, pc in enumerate(compressions):
        rec = comp.check_recursive(model, pc, tree=tree)
        mp = comp.measure_private(model, pc, tree=tree, check=False)
        spi_report = check_spi(model, pc, tree)

        sps1 = rec.passed
        sps2 = mp.eps_p <= 4 * CHECK_TOL
        sps3 = mp.delta_p <= 8 * CHECK_TOL
        spi4 = spi_report.result("SPI4").max_violation <= CHECK_TOL

        if sps1 and sps3:
            v = spi_report.result("SPI3").max_violation
            report.results.append(
                ConditionResult(
                    f"implication_recursive_obs_to_joint_prediction[{i}]",
                    v <= 1e-6,
                    v,
                    spi_report.result("SPI3").witness,
                )
            )
        if sps2 and spi4:
            v = spi_report.result("SPI2").max_violation
            report.results.append(
                ConditionResult(
                    f"implication_reward_crossagent_to_agent_reward[{i}]",
                    v <= 1e-6,
                    v,
                    spi_report.result("SPI2").witness,
                )
            )
    return report
