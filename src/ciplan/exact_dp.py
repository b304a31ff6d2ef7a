"""Exact backward dynamic program over coordinator histories, the omniscient
evaluator's Q function, and a brute-force policy-enumeration oracle.

The backward sweep and its compressed variants share one generic solver:
callers can relabel each agent's private states (compressed prescription
domains) and re-key the per-time value entries (e.g. by belief fingerprint)
without touching the recursion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .histories import (
    ADMISSIBILITY_THRESHOLD,
    FcsKey,
    FcsNode,
    FcsTree,
    JointHist,
    Prescription,
    enumerate_prescriptions,
    prescription_actions,
    prescription_count,
    prescription_from_row,
)
from .model import DecPomdpModel

if TYPE_CHECKING:
    from .compression import PrivateCompression

DEFAULT_BUDGET = 10**7
VALUE_TOL = 1e-9


class BudgetExceededError(RuntimeError):
    """The configured cap on Q evaluations (or enumerated policies) was hit."""

    def __init__(self, locus, budget: int):
        self.locus = locus
        self.budget = budget
        super().__init__(f"budget of {budget} exceeded at {locus!r}")


class InadmissibleHistoryError(ValueError):
    """A joint private history with zero conditional probability was supplied."""


@dataclass
class ValueEntry:
    value: float
    argmax_index: int
    argmax_key: tuple
    q_values: tuple[float, ...]


@dataclass
class ValueTable:
    """Per-time, per-state-key values of one backward sweep."""

    horizon: int
    entries: dict[tuple[int, object], ValueEntry] = field(default_factory=dict)
    overall_value: float = 0.0

    def value(self, t: int, key) -> float:
        return self.entries[(t, key)].value


@dataclass
class CoordinatorPolicy:
    """Map from coordinator history to the prescription chosen there.

    Prescriptions are stored in history-domain form (compressed solves store
    the extension), so the policy can always be replayed on the real tree.
    """

    prescriptions: dict[FcsKey, Prescription] = field(default_factory=dict)

    def at(self, seq: FcsKey) -> Prescription:
        return self.prescriptions[seq]


def _prescription_space(tree: FcsTree, node: FcsNode, pc: PrivateCompression | None):
    """The node's history domains, the domains its prescriptions range over
    (labels under ``pc``), and per agent the map from each history to its
    column in an action table over the latter."""
    hist_domains = tree.agent_domains(node)
    domains = hist_domains if pc is None else pc.label_domains(node, hist_domains)
    columns, offset = [], 0
    for n, (keys, hists) in enumerate(zip(domains, hist_domains)):
        position = {key: offset + i for i, key in enumerate(keys)}
        if pc is None:
            columns.append(position)
        else:
            columns.append(
                {h: position[pc.label_of(node.t, node.seq, n, h)] for h in hists}
            )
        offset += len(keys)
    return hist_domains, domains, columns


def _immediate_rewards(
    model: DecPomdpModel, node: FcsNode, columns, contrib: np.ndarray
) -> np.ndarray:
    """``Σ w · R[s, γ_k(h)]`` over the node's atoms for every prescription ``k``.

    ``contrib[c, k]`` is what column ``c`` of prescription ``k``'s action
    table adds to the flat joint-action index.  The atoms are added one at a
    time in stored order, so every entry is the scalar sum ``q += w * r`` bit
    for bit, and no array is larger than the agents times the prescriptions.
    """
    q = np.zeros(contrib.shape[1])
    for (s, hjoint), w in node.weights:
        joint = contrib[[columns[n][h] for n, h in enumerate(hjoint)]].sum(axis=0)
        q += w * model.reward[s][joint]
    return q


def generic_solve(
    model: DecPomdpModel,
    tree: FcsTree | None = None,
    *,
    pc: PrivateCompression | None = None,
    key_fn=None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward sweep shared by the exact and compressed dynamic programs.

    The immediate rewards of all prescriptions of a node are scored in one
    pass over an action table whose rows are in canonical order; ties go to
    the smallest canonical index.

    Parameters
    ----------
    pc
        Private compression whose label domains the prescriptions range over.
        Value entries record the label prescription; the policy records its
        extension to the node's histories, which also drives the dynamics.
        Defaults to the uncompressed space where the two coincide.
    key_fn
        Callable ``node -> hashable`` keying value entries per time step;
        defaults to the node sequence itself.  A node whose key is already
        solved takes that entry's value and canonical index, and the nodes
        below it under that prescription are visited too, so the policy
        covers every node it reaches.
    """
    tree = tree or FcsTree(model)
    if key_fn is None:
        key_fn = lambda node: node.seq
    strides = [int(np.prod(model.action_sizes[n + 1:])) for n in range(model.num_agents)]
    # Per domain shape: the action table and its joint-index contributions.
    tables: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    table = ValueTable(horizon=model.horizon)
    policy = CoordinatorPolicy()
    evals = 0

    def action_table(domains):
        shape = tuple(len(d) for d in domains)
        if shape not in tables:
            acts = prescription_actions(model, domains)
            tables[shape] = acts, (acts * np.repeat(strides, shape)).T
        return tables[shape]

    def extended(hist_domains, columns, row) -> Prescription:
        """The history-domain prescription of one action-table row."""
        if pc is not None:
            row = [row[c] for per_agent in columns for c in per_agent.values()]
        return prescription_from_row(hist_domains, row)

    def revisit(node: FcsNode, entry: ValueEntry) -> float:
        hist_domains, domains, columns = _prescription_space(tree, node, pc)
        acts, _contrib = action_table(domains)
        gamma = extended(hist_domains, columns, acts[entry.argmax_index].tolist())
        policy.prescriptions.setdefault(node.seq, gamma)
        if node.t < model.horizon:
            for _o0, child, _p in tree.expand(node, gamma):
                solve(child)
        return entry.value

    def solve(node: FcsNode) -> float:
        nonlocal evals
        key = key_fn(node)
        entry = table.entries.get((node.t, key))
        if entry is not None:
            return revisit(node, entry)
        hist_domains, domains, columns = _prescription_space(tree, node, pc)
        evals += prescription_count(model, domains)
        if evals > budget:
            raise BudgetExceededError(node.seq, budget)
        acts, contrib = action_table(domains)
        q = _immediate_rewards(model, node, columns, contrib)
        if node.t < model.horizon:
            gammas = [extended(hist_domains, columns, row) for row in acts.tolist()]
            rewards = q.tolist()
            for k, gamma in enumerate(gammas):
                total = rewards[k]
                for _o0, child, p in tree.expand(node, gamma):
                    total += p * solve(child)
                q[k] = total
        best = int(np.argmax(q))
        if node.t < model.horizon:
            gamma = gammas[best]
        else:
            gamma = extended(hist_domains, columns, acts[best].tolist())
        lam = gamma if pc is None else prescription_from_row(domains, acts[best])
        qs = q.tolist()
        table.entries[(node.t, key)] = ValueEntry(
            value=qs[best],
            argmax_index=best,
            argmax_key=lam.key,
            q_values=tuple(qs),
        )
        policy.prescriptions.setdefault(node.seq, gamma)
        return qs[best]

    overall = 0.0
    try:
        for _o0, root, p_root in tree.roots():
            overall += p_root * solve(root)
    finally:
        # ``solve`` and ``revisit`` reach each other through their closure
        # cells; emptying the cells lets the tree and tables go by reference
        # counting instead of waiting for a cyclic collection.
        del solve, revisit
    table.overall_value = overall
    return table, policy


def solve_fcs_fps(
    model: DecPomdpModel,
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ValueTable, CoordinatorPolicy]:
    """Exact sweep over the full coordinator tree with uncompressed prescriptions.

    Value entries are keyed ``(t, node sequence)``; the returned table's
    ``overall_value`` is the common-observation-weighted root value.

    The sweep is memoised on ``tree``: a later call on the same tree returns
    the same table and policy when its Q-evaluation count is within
    ``budget``, and otherwise sweeps again, so the budget error names the
    same node as on a fresh tree.
    """
    tree = tree or FcsTree(model)
    if tree.exact_sweep is not None and tree.exact_sweep[2] <= budget:
        return tree.exact_sweep[0], tree.exact_sweep[1]
    table, policy = generic_solve(model, tree, budget=budget)
    evals = sum(len(entry.q_values) for entry in table.entries.values())
    tree.exact_sweep = table, policy, evals
    return table, policy


def supervisor_q(
    model: DecPomdpModel,
    tree: FcsTree,
    node: FcsNode,
    hjoint: JointHist,
    gamma: Prescription,
    policy: CoordinatorPolicy,
) -> float:
    """Expected remaining reward given the full joint history, one prescription
    now, and the optimal continuation policy afterwards.

    Computed by exact forward trajectory enumeration; rejects joint histories
    that are inadmissible at ``node``.
    """
    sdist: dict[int, float] = {}
    mass = 0.0
    for (s, h), w in node.weights:
        if h == hjoint:
            sdist[s] = sdist.get(s, 0.0) + w
            mass += w
    if mass <= ADMISSIBILITY_THRESHOLD:
        raise InadmissibleHistoryError(
            f"history {hjoint!r} is inadmissible at node {node.seq!r}"
        )
    sdist = {s: w / mass for s, w in sdist.items()}
    return _supervisor_recurse(model, tree, node, hjoint, sdist, gamma, policy)


def _supervisor_recurse(model, tree, node, hjoint, sdist, gamma, policy) -> float:
    a = gamma.act(hjoint)
    a_idx = model.joint_action_index(a)
    total = sum(w * float(model.reward[s, a_idx]) for s, w in sorted(sdist.items()))
    if node.t >= model.horizon:
        return total
    branches: dict[tuple[int, tuple[int, ...]], dict[int, float]] = {}
    for s, w in sorted(sdist.items()):
        for s_next, obs, p in model.step(s, a_idx, w):
            acc = branches.setdefault((obs.common, obs.private), {})
            acc[s_next] = acc.get(s_next, 0.0) + p
    for (o0, opriv), srow in sorted(branches.items()):
        p_branch = sum(srow.values())
        child = tree.node(node.seq + (gamma.key, o0))
        h_next = tuple(h + (an, on) for h, an, on in zip(hjoint, a, opriv))
        sdist_next = {s: w / p_branch for s, w in srow.items()}
        total += p_branch * _supervisor_recurse(
            model, tree, child, h_next, sdist_next, policy.at(child.seq), policy
        )
    return total


# -- brute-force oracle ---------------------------------------------------


def _count_policies(model, tree, node) -> int:
    prescs = enumerate_prescriptions(model, tree.agent_domains(node))
    if node.t >= model.horizon:
        return len(prescs)
    total = 0
    for gamma in prescs:
        prod = 1
        for _o0, child, _p in tree.expand(node, gamma):
            prod *= _count_policies(model, tree, child)
        total += prod
    return total


def _iter_policies(model, tree, node):
    prescs = enumerate_prescriptions(model, tree.agent_domains(node))
    for gamma in prescs:
        if node.t >= model.horizon:
            yield {node.seq: gamma}
            continue
        children = [child for _o0, child, _p in tree.expand(node, gamma)]
        for combo in itertools.product(
            *(list(_iter_policies(model, tree, child)) for child in children)
        ):
            out = {node.seq: gamma}
            for sub in combo:
                out.update(sub)
            yield out


def _evaluate_policy_forward(model: DecPomdpModel, o0_root: int, policy: dict) -> float:
    """Expected cumulative reward contribution of one root branch, computed by
    raw trajectory enumeration straight from the model tensors."""
    items: dict[tuple[FcsKey, int, JointHist], float] = {}
    for s in range(model.num_states):
        p_init = float(model.initial[s])
        if p_init <= ADMISSIBILITY_THRESHOLD:
            continue
        for obs in model.iter_joint_obs():
            if obs.common != o0_root:
                continue
            p = p_init * float(
                model.observation[s, model.joint_obs_index(obs.common, obs.private)]
            )
            if p <= ADMISSIBILITY_THRESHOLD:
                continue
            key = ((o0_root,), s, tuple((o,) for o in obs.private))
            items[key] = items.get(key, 0.0) + p
    total = 0.0
    for t in range(1, model.horizon + 1):
        nxt: dict[tuple[FcsKey, int, JointHist], float] = {}
        for (seq, s, hjoint), p in sorted(items.items()):
            gamma = policy[seq]
            a = gamma.act(hjoint)
            a_idx = model.joint_action_index(a)
            total += p * float(model.reward[s, a_idx])
            if t == model.horizon:
                continue
            for s_next in range(model.num_states):
                p_trans = float(model.transition[s, a_idx, s_next])
                if p_trans <= ADMISSIBILITY_THRESHOLD:
                    continue
                for obs in model.iter_joint_obs():
                    p2 = p * p_trans * float(
                        model.observation[
                            s_next, model.joint_obs_index(obs.common, obs.private)
                        ]
                    )
                    if p2 <= ADMISSIBILITY_THRESHOLD:
                        continue
                    h_next = tuple(
                        h + (an, on) for h, an, on in zip(hjoint, a, obs.private)
                    )
                    key = (seq + (gamma.key, obs.common), s_next, h_next)
                    nxt[key] = nxt.get(key, 0.0) + p2
        items = nxt
    return total


class _TrajectoryCache:
    """Unnormalized (state, joint history) items per coordinator sequence,
    built from the raw model tensors only, plus per-(sequence, prescription)
    expected-reward contributions.  Shared across enumerated policies."""

    def __init__(self, model: DecPomdpModel):
        self.model = model
        self.items: dict[FcsKey, dict] = {}
        self.contrib: dict[tuple, float] = {}

    def items_at(self, seq: FcsKey) -> dict:
        if seq in self.items:
            return self.items[seq]
        m = self.model
        out: dict = {}
        if len(seq) == 1:
            for s in range(m.num_states):
                p_init = float(m.initial[s])
                if p_init <= ADMISSIBILITY_THRESHOLD:
                    continue
                for obs in m.iter_joint_obs():
                    if obs.common != seq[0]:
                        continue
                    p = p_init * float(
                        m.observation[s, m.joint_obs_index(obs.common, obs.private)]
                    )
                    if p > ADMISSIBILITY_THRESHOLD:
                        key = (s, tuple((o,) for o in obs.private))
                        out[key] = out.get(key, 0.0) + p
        else:
            parent = self.items_at(seq[:-2])
            gamma, o0 = Prescription(seq[-2]), seq[-1]
            for (s, hjoint), p in parent.items():
                a = gamma.act(hjoint)
                a_idx = m.joint_action_index(a)
                for s_next in range(m.num_states):
                    p2 = p * float(m.transition[s, a_idx, s_next])
                    if p2 <= ADMISSIBILITY_THRESHOLD:
                        continue
                    for obs in m.iter_joint_obs():
                        if obs.common != o0:
                            continue
                        p3 = p2 * float(
                            m.observation[
                                s_next, m.joint_obs_index(obs.common, obs.private)
                            ]
                        )
                        if p3 <= ADMISSIBILITY_THRESHOLD:
                            continue
                        h_next = tuple(
                            h + (an, on)
                            for h, an, on in zip(hjoint, a, obs.private)
                        )
                        key = (s_next, h_next)
                        out[key] = out.get(key, 0.0) + p3
        self.items[seq] = out
        return out

    def contribution(self, seq: FcsKey, gamma: Prescription) -> float:
        key = (seq, gamma.key)
        if key not in self.contrib:
            m = self.model
            self.contrib[key] = sum(
                p * float(m.reward[s, m.joint_action_index(gamma.act(hjoint))])
                for (s, hjoint), p in self.items_at(seq).items()
            )
        return self.contrib[key]


def brute_force_value(model: DecPomdpModel, budget: int = DEFAULT_BUDGET) -> float:
    """Maximum expected cumulative reward over every deterministic coordinator
    policy, evaluated by forward trajectory enumeration from the raw tensors.

    The per-root policy choices are independent, so the maximization splits
    across root branches; within a branch every complete prescription
    assignment is enumerated explicitly, with per-edge expected rewards
    cached across policies sharing a prefix.
    """
    tree = FcsTree(model)
    total_policies = 0
    for _o0, root, _p in tree.roots():
        total_policies += _count_policies(model, tree, root)
        if total_policies > budget:
            raise BudgetExceededError(root.seq, budget)
    cache = _TrajectoryCache(model)
    value = 0.0
    for _o0, root, _p in tree.roots():
        best = None
        for assignment in _iter_policies(model, tree, root):
            v = sum(
                cache.contribution(seq, gamma) for seq, gamma in assignment.items()
            )
            if best is None or v > best:
                best = v
        value += best
    return value


def evaluate_coordinator_policy(model: DecPomdpModel, policy: CoordinatorPolicy) -> float:
    """Expected cumulative reward of replaying a fixed policy on the real tree."""
    total = 0.0
    for o0, _root, _p in FcsTree(model).roots():
        total += _evaluate_policy_forward(model, o0, policy.prescriptions)
    return total


def solve_report(table: ValueTable, algorithm: str) -> dict:
    """Structured solve summary: per-time value entries plus the overall value."""
    rows = []
    for (t, key), entry in sorted(table.entries.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))):
        rows.append(
            {
                "t": t,
                "state_key": repr(key),
                "value": entry.value,
                "argmax_index": entry.argmax_index,
            }
        )
    return {"algorithm": algorithm, "overall_value": table.overall_value, "rows": rows}
