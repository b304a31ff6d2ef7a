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
    BudgetExceededError,
    CoordinatorPolicy,
    ValueTable,
    generic_solve,
)
from .histories import (
    FcsNode,
    FcsTree,
    Prescription,
    _successor_labels,
    _successor_weights,
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


def _rounded(x: np.ndarray) -> list[float]:
    """``round(v, FINGERPRINT_DECIMALS)`` of each ``v`` of ``x`` in [0, 1]:
    ``rint(v · 10⁹) / 10⁹``, or ``round`` where ``v · 10⁹`` is within 1e-5 of a half."""
    scaled = x * 10.0**FINGERPRINT_DECIMALS
    out = (np.rint(scaled) / 10.0**FINGERPRINT_DECIMALS).tolist()
    for j in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-5).tolist():
        out[j] = round(float(x[j]), FINGERPRINT_DECIMALS)
    return out


def _node_fingerprints(nodes) -> list[tuple]:
    """``compute_bcs(tree, node).fingerprint`` of each node, building no belief or
    ``weights``.  A run of two or more of a level's nodes is rounded at once with
    numpy; others, as the depth-first pass's single node, by ``round``."""
    atoms = nodes[0].atoms if nodes else ()
    if len(nodes) < 2 or len(atoms) < 2 or not all(
        node.atoms is atoms and node.index == i for i, node in enumerate(nodes, nodes[0].index)
    ):
        return [_fingerprint(node.t, zip(keys, weights), sum(weights))
                for node in nodes for keys, weights in [node._atom_keys()]]
    _tag, start, keys, weights = atoms
    bounds = start[nodes[0].index:nodes[-1].index + 2]
    lo, hi = bounds[0], bounds[-1]
    totals = [sum(weights[a:b]) for a, b in zip(bounds, bounds[1:])]
    x = np.array(weights[lo:hi]) / np.repeat(totals, np.diff(bounds))
    pairs = list(zip(keys[lo:hi], _rounded(x)))
    return [(node.t, tuple(pairs[a - lo:b - lo])) for node, a, b in zip(nodes, bounds, bounds[1:])]


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
    return generic_solve(model, tree, key_fn=_node_fingerprints, budget=budget)


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


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance, ½ Σ|p − q|, of two laws given as mappings; an
    outcome one of them lacks has probability 0 there."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _normalised(raw: dict) -> dict:
    """``raw`` divided by the sum of its values, added in insertion order."""
    total = sum(raw.values())
    return {k: w / total for k, w in raw.items()}


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
    model: DecPomdpModel,
    pc: PrivateCompression,
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ConditionReport:
    """Exhaustively evaluate the four sufficiency conditions at desk scale.

    Only the compression's labels are read, through each node's label map;
    its recursive update may be empty.  ``pc`` may be a session.  ``budget``
    caps the (node, prescription) pairs the first and third conditions scan,
    charged a depth at a time before the scan.

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
    spent = 0
    for t in range(1, model.horizon):
        level, below = tree.full_level(t), tree.full_level(t + 1)
        spent += sum(map(len, level.gammas))
        if spent > budget:
            raise BudgetExceededError(("spi", t), budget)
        for i, node in enumerate(level.nodes):
            labels = s.labels(node)
            for k, gamma in enumerate(level.gammas[i]):
                children = [below.nodes[c] for c in level.children(i, k)]
                for o0, n, h, an, on, z_next in _successor_labels(model, children, gamma, theta):
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
        level = tree.full_level(t)
        for i, node in enumerate(level.nodes):
            labels = s.labels(node)
            weights = node.weights
            joint_labels = [
                tuple(lab[h] for lab, h in zip(labels, hjoint)) for (_s, hjoint), _w in weights
            ]

            # Conditions 2 and 4, per agent: one pass over the atoms adds up,
            # per history and per label class, the state masses and the other
            # agents' label masses.  Each history is then compared with its
            # class, reward by reward and in total variation.
            for n, domain in enumerate(node.agent_domains):
                own = {h: ({}, {}) for h in domain}
                classes = {labels[n][h]: ({}, {}) for h in domain}
                for ((st, hjoint), w), z in zip(weights, joint_labels):
                    others = z[:n] + z[n + 1:]
                    for states, dist in (own[hjoint[n]], classes[z[n]]):
                        states[st] = states.get(st, 0.0) + w
                        dist[others] = dist.get(others, 0.0) + w
                classes = {z: tuple(map(_normalised, sums)) for z, sums in classes.items()}
                for h in domain:
                    sdist_h, dist_h = map(_normalised, own[h])
                    sdist_z, dist_z = classes[labels[n][h]]
                    for a in model.iter_joint_actions():
                        a_idx = model.joint_action_index(a)
                        e_h = sum(w * float(model.reward[s, a_idx]) for s, w in sdist_h.items())
                        e_z = sum(w * float(model.reward[s, a_idx]) for s, w in sdist_z.items())
                        d = abs(e_h - e_z)
                        if d > viol2:
                            viol2, wit2 = d, (node.seq, n, h, a)
                    d = tv_distance(dist_h, dist_z)
                    if d > viol4:
                        viol4, wit4 = d, (node.seq, n, h)

            # Condition 3: predicting the next joint labels and the common
            # observation, under consistent (prescription, action) pairs.
            # Conditioning on both restricts a history's label class to the
            # histories the prescription maps to the same action; each class
            # is one mixture, its members added in ``fps`` order.
            if t < model.horizon:
                fps = tree.reachable_fps(node)
                joint_label = {
                    f.histories: tuple(lab[h] for lab, h in zip(labels, f.histories)) for f in fps
                }
                laws: dict = {}  # (joint history, action) -> next observation law
                below = tree.full_level(t + 1)
                for k, gamma in enumerate(level.gammas[i]):
                    children = {
                        below.nodes[c].seq[-1]: below.nodes[c] for c in level.children(i, k)
                    }
                    future, preimages = [], {}
                    for f in fps:
                        h = f.histories
                        a = gamma.act(h)
                        if (h, a) not in laws:
                            sdist = {
                                st: p / f.probability
                                for st, p in enumerate(f.state_probabilities) if p
                            }
                            laws[h, a] = _next_obs_distribution(
                                model, sdist, model.joint_action_index(a)
                            )
                        out: dict = {}
                        for (o0, opriv), p in laws[h, a].items():
                            child = children.get(o0)
                            if child is None:
                                key = (("unreachable", o0), o0)
                            else:
                                z_next = tuple(
                                    theta.get((t + 1, child.seq, m, h[m] + (a[m], opriv[m])))
                                    for m in range(model.num_agents)
                                )
                                key = (z_next, o0)
                            out[key] = out.get(key, 0.0) + p
                        future.append((h, a, out))
                        preimages.setdefault((joint_label[h], a), []).append((f.probability, out))
                    mixtures = {}
                    for za, members in preimages.items():
                        mass = sum(pg for pg, _out in members)
                        dist_z = mixtures[za] = {}
                        for pg, out in members:
                            for key, p in out.items():
                                dist_z[key] = dist_z.get(key, 0.0) + pg / mass * p
                    for h, a, out in future:
                        d = tv_distance(out, mixtures[joint_label[h], a])
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
    report = check_spi(model, s, budget=budget)
    if not report.passed:
        failed = [r.condition for r in report.results if not r.passed]
        raise SpiConditionError(f"sufficiency conditions failed: {', '.join(failed)}")

    def key_fn(nodes) -> list[tuple]:
        belief = lambda node: compute_bcs(s.tree, node, lambda n, h, z=s.labels(node): z[n][h])
        return [belief(node).fingerprint for node in nodes]

    return generic_solve(model, s.tree, pc=s, key_fn=key_fn, budget=budget)


def verify_propositions(
    model: DecPomdpModel,
    compressions,
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
    identity=None,
) -> ConditionReport:
    """Check the implication structure among the sufficiency condition sets.

    For each supplied private compression: when the policy-independent
    recursive update and exact observation-prediction hold (premises at
    1e-9), the joint label/observation prediction condition must hold too;
    and when exact reward sufficiency plus cross-agent label prediction
    hold, per-agent reward sufficiency must follow (conclusions at 1e-6).
    Also verifies that the belief common state measures as an exact common
    compression.  ``budget`` is passed to both measurements and to the
    identity compression's construction; ``identity`` is a session for an
    identity compression the caller already built on ``tree``.
    """
    from . import compression as comp

    tree = FcsTree.of(model, tree)
    report = ConditionReport()

    if identity is None:
        identity = comp.identity_private(model, tree, budget=budget)
    cc_bcs = comp.bcs_common(model, identity, tree)
    mc = comp.measure_common(model, identity, cc_bcs, tree=tree, budget=budget)
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
        s = comp.Session.of(model, pc, tree)
        rec = comp.check_recursive(model, s)
        mp = comp.measure_private(model, s, check=False, budget=budget)
        spi_report = check_spi(model, s, budget=budget)

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
