"""Private and common state compressions: representation, construction,
measurement, and serialization.

A private compression relabels each agent's private histories per coordinator
node with globally meaningful labels whose evolution is policy-independent
(the recursive update table is keyed by label, prescription id, and the new
observations only).  A common compression additionally merges coordinator
nodes.  Measurement computes the reward- and observation-prediction error of
each compression as exact suprema, folded by the conventional constant
factors so the results plug directly into the optimality-gap bound formulas.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

import numpy as np

from .belief import (
    ConditionReport,
    ConditionResult,
    _next_obs_distribution,
    compute_bcs,
    tv_distance,
)
from .exact_dp import DEFAULT_BUDGET, BudgetExceededError
from .histories import (
    FcsKey,
    FcsNode,
    FcsTree,
    Hist,
    Prescription,
    PrescriptionDomainError,
    _columns_by_agent,
    level_nodes,
    prescription_count,
)
from .model import ADMISSIBILITY_THRESHOLD, DecPomdpModel

_MAX_REFINEMENT_ROUNDS = 10_000


class RecursiveCheckError(ValueError):
    """A compression failing its recursive-update check was passed downstream."""


class CompressionFormatError(ValueError):
    """Malformed serialized compression."""


@dataclass
class PrivateCompression:
    """Per-agent relabeling of private histories with a recursive update.

    ``theta[(t, fcs_key, agent, hist)]`` is the label; ``phi[(agent, t,
    label, prescription_key, o0, obs)]`` gives the successor label.  Labels
    are shared across coordinator nodes, which is what makes ``phi``
    policy-independent.
    """

    num_agents: int
    horizon: int
    theta: dict = field(default_factory=dict)
    phi: dict = field(default_factory=dict)

    def label_of(self, t: int, seq: FcsKey, agent: int, hist: Hist):
        try:
            return self.theta[(t, seq, agent, hist)]
        except KeyError:
            raise CompressionFormatError(
                f"theta has no label for (t, seq, agent, hist) = {(t, seq, agent, hist)!r}"
            ) from None

    def label_map(self, node: FcsNode) -> tuple[tuple[tuple, ...], np.ndarray]:
        """The node's label domains, and for each history column of the node
        (agent by agent, in domain order) the column of that history's label
        in a label row.  Lifting a label row to the node's histories is then
        the gather ``row[colmap]``."""
        domains, colmap, offset = [], [], 0
        for n, hists in enumerate(node.agent_domains):
            labels = [self.label_of(node.t, node.seq, n, h) for h in hists]
            keys = tuple(sorted(set(labels)))
            column = {z: offset + i for i, z in enumerate(keys)}
            colmap.extend(column[z] for z in labels)
            domains.append(keys)
            offset += len(keys)
        return tuple(domains), np.array(colmap, dtype=np.intp)

    def alphabet(self, agent: int, t: int) -> tuple:
        return tuple(
            sorted(
                {
                    lab
                    for (tt, _seq, n, _h), lab in self.theta.items()
                    if tt == t and n == agent
                }
            )
        )


@dataclass
class CommonCompression:
    """Relabeling of coordinator nodes with a recursive update over labels."""

    horizon: int
    mu_id: str = "uniform"
    theta0: dict = field(default_factory=dict)
    phi0: dict = field(default_factory=dict)

    def label_of(self, t: int, seq: FcsKey):
        try:
            return self.theta0[(t, seq)]
        except KeyError:
            raise CompressionFormatError(
                f"theta0 has no label for (t, seq) = {(t, seq)!r}"
            ) from None

    def next_label(self, t: int, label, lam_key, o0: int):
        """Successor label ``phi0[(t, label, λ, o0)]``."""
        try:
            return self.phi0[(t, label, lam_key, o0)]
        except KeyError:
            raise CompressionFormatError(
                f"phi0 has no successor for (t, label, λ, o0) = {(t, label, lam_key, o0)!r}"
            ) from None

    def alphabet(self, t: int) -> tuple:
        return tuple(sorted({lab for (tt, _s), lab in self.theta0.items() if tt == t}, key=repr))


@dataclass
class MeasuredParams:
    """Folded compression-error parameters with the witnesses attaining them.

    The supremum deviations are multiplied by 4 (private reward), 8 (private
    observation), 1 (common reward) and 2 (common observation) so the values
    feed the gap-bound formulas without further constants.
    """

    eps_p: float = 0.0
    delta_p: float = 0.0
    eps_c: float = 0.0
    delta_c: float = 0.0
    witnesses: dict = field(default_factory=dict)

    def merged(self, other: "MeasuredParams") -> "MeasuredParams":
        return MeasuredParams(
            eps_p=max(self.eps_p, other.eps_p),
            delta_p=max(self.delta_p, other.delta_p),
            eps_c=max(self.eps_c, other.eps_c),
            delta_c=max(self.delta_c, other.delta_c),
            witnesses={**self.witnesses, **other.witnesses},
        )


# -- tree traversal helpers ------------------------------------------------


def full_levels(model: DecPomdpModel, tree: FcsTree) -> list[list[FcsNode]]:
    """Reachable nodes per time step under every prescription."""
    return [level_nodes(tree, t) for t in range(1, model.horizon + 1)]


def _label_row(lam: Prescription, domains: tuple[tuple, ...]) -> np.ndarray:
    """The action row of a label prescription over ``domains``."""
    if tuple(tuple(z for z, _a in table) for table in lam.entries) != domains:
        raise PrescriptionDomainError(
            f"prescription {lam.key!r} is not over the label domains {domains!r}"
        )
    return np.array([a for table in lam.entries for _z, a in table], dtype=np.intp)


def extension(
    tree: FcsTree, node: FcsNode, pc: PrivateCompression, lam: Prescription
) -> Prescription:
    """Lift a label-domain prescription to this node's history domains; the
    extension acts identically on every history within a label class."""
    domains, colmap = pc.label_map(node)
    return tree._prescription(node.agent_domains, _label_row(lam, domains)[colmap])


def compressed_prescriptions(
    model: DecPomdpModel, tree: FcsTree, node: FcsNode, pc: PrivateCompression
) -> list[tuple[Prescription, Prescription]]:
    """All (label prescription, extension) pairs at a node, canonical order."""
    domains, colmap = pc.label_map(node)
    return [
        (tree._prescription(domains, row), tree._prescription(node.agent_domains, row[colmap]))
        for row in tree._action_rows(tuple(map(len, domains)))
    ]


def compressed_subtree(
    model: DecPomdpModel, tree: FcsTree, pc: PrivateCompression, mu: str = "uniform"
) -> list[list[tuple[FcsNode, float]]]:
    """Nodes per time step reachable using only compressed prescriptions, each
    with its mass under the reference measure ``mu``.

    The ``uniform`` measure draws the label prescription uniformly at every
    node; each level's masses sum to one.  Distinct label prescriptions lift
    to distinct prescriptions, so every node is reached once.
    """
    if mu != "uniform":
        raise ValueError(f"unknown reference measure {mu!r}")
    levels = [[(node, p) for _o0, node, p in tree.roots()]]
    for _t in range(1, model.horizon):
        nxt = []
        for node, mass in levels[-1]:
            pairs = compressed_prescriptions(model, tree, node, pc)
            share = mass / len(pairs)
            for _lam, gamma in pairs:
                nxt.extend((child, share * p) for _o0, child, p in tree.expand(node, gamma))
        levels.append(nxt)
    return levels


# -- recursive-update edges -----------------------------------------------


def _private_edges(model: DecPomdpModel, tree: FcsTree, pc: PrivateCompression):
    """Every labelled reachable edge of a private compression, as ``(phi key,
    source item, successor label)``, under every compressed prescription."""
    for t in range(1, model.horizon):
        for node in level_nodes(tree, t):
            domains, colmap = pc.label_map(node)
            keys = [z for domain in domains for z in domain]
            labels = [keys[c] for c in colmap.tolist()]
            for lam, gamma in compressed_prescriptions(model, tree, node, pc):
                for o0, child, _p in tree.expand(node, gamma):
                    column = iter(labels)
                    for n, table in enumerate(gamma.entries):
                        for h, a in table:
                            z = next(column)
                            for on in range(model.private_obs_sizes[n]):
                                tk = (t + 1, child.seq, n, h + (a, on))
                                if tk in pc.theta:
                                    yield (
                                        (n, t, z, lam.key, o0, on),
                                        (t, node.seq, n, h),
                                        pc.theta[tk],
                                    )


def _common_edges(
    model: DecPomdpModel,
    tree: FcsTree,
    pc: PrivateCompression,
    cc: CommonCompression,
    levels: list[list[tuple[FcsNode, float]]],
):
    """Every edge of the compressed subtree ``levels``, as ``(phi0 key, source
    item, successor label)``; unlabelled nodes read as ``None``."""
    for t in range(1, model.horizon):
        for node, _mass in levels[t - 1]:
            z0 = cc.theta0.get((t, node.seq))
            for lam, gamma in compressed_prescriptions(model, tree, node, pc):
                for o0, child, _p in tree.expand(node, gamma):
                    z_next = cc.theta0.get((t + 1, child.seq))
                    yield (t, z0, lam.key, o0), (t, node.seq), z_next


def _update_table(edges) -> tuple[dict | None, tuple | None]:
    """The update table read off ``edges`` and ``None``, or ``None`` and the
    first conflict ``(key, first source item, conflicting source item)``."""
    first: dict = {}
    for key, item, succ in edges:
        prev = first.setdefault(key, (succ, item))
        if prev[0] != succ:
            return None, (key, prev[1], item)
    return {key: succ for key, (succ, _item) in first.items()}, None


def check_recursive(
    model: DecPomdpModel,
    compression,
    pc: PrivateCompression | None = None,
    tree: FcsTree | None = None,
) -> ConditionReport:
    """Verify that the label tables factor through the recursive update on
    every reachable edge.  Violating edges become report content, not errors.
    """
    tree = tree or FcsTree(model)
    if isinstance(compression, PrivateCompression):
        name = "ASPS1"
        violations = [
            (seq, n, h, key[4], key[5], got, expected)
            for key, (_t, seq, n, h), expected in _private_edges(model, tree, compression)
            if (got := compression.phi.get(key)) != expected
        ]
    elif isinstance(compression, CommonCompression):
        if pc is None:
            raise ValueError("checking a common compression requires the private one")
        name = "ASCS1"
        edges = _common_edges(
            model, tree, pc, compression, compressed_subtree(model, tree, pc)
        )
        violations = [
            (seq, key[3], got, expected)
            for key, (_t, seq), expected in edges
            if (got := compression.phi0.get(key)) != expected
        ]
    else:
        raise TypeError(f"not a compression: {type(compression).__name__}")
    report = ConditionReport()
    report.results.append(
        ConditionResult(
            name,
            not violations,
            float(len(violations)),
            violations[0] if violations else None,
            note=f"{len(violations)} violating edges",
        )
    )
    return report


# -- measurement -----------------------------------------------------------


def _joint_reward(model: DecPomdpModel, sdist: dict[int, float], a_idx: int) -> float:
    return sum(w * float(model.reward[s, a_idx]) for s, w in sdist.items())


def _history_laws(pc: PrivateCompression, node: FcsNode, fps):
    """Per admissible joint history ``f`` of ``fps`` at ``node``: its
    histories, its state law and the state law of its joint label's preimage,
    the mixture of the same-node histories sharing every agent's label."""
    columns = _columns_by_agent(node.agent_domains, pc.label_map(node)[1].tolist())
    joint = [tuple(c[h] for c, h in zip(columns, f.histories)) for f in fps]
    classes: dict = {}
    for f, z in zip(fps, joint):
        classes.setdefault(z, []).append(f)
    preimage: dict = {}
    for z, pre in classes.items():
        mass = sum(g.probability for g in pre)
        sdist_z = preimage[z] = {}
        for g in pre:
            for s, p in enumerate(g.state_probabilities):
                if p > ADMISSIBILITY_THRESHOLD:
                    sdist_z[s] = sdist_z.get(s, 0.0) + p / mass
    for f, z in zip(fps, joint):
        sdist_h = {
            s: p / f.probability
            for s, p in enumerate(f.state_probabilities)
            if p > ADMISSIBILITY_THRESHOLD
        }
        yield f.histories, sdist_h, preimage[z]


def _private_gaps(model, sdist_h, sdist_z, a_idx: int, with_obs: bool) -> tuple[float, float]:
    """Folded reward and next-observation deviations of a history's state law
    from its preimage's under one joint action; the second is 0 unless
    ``with_obs``."""
    eps = 4.0 * abs(_joint_reward(model, sdist_h, a_idx) - _joint_reward(model, sdist_z, a_idx))
    if not with_obs:
        return eps, 0.0
    return eps, 8.0 * tv_distance(
        _next_obs_distribution(model, sdist_h, a_idx),
        _next_obs_distribution(model, sdist_z, a_idx),
    )


def measure_private(
    model: DecPomdpModel,
    pc: PrivateCompression,
    tree: FcsTree | None = None,
    check: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> MeasuredParams:
    """Exact folded (ε_p, δ_p) of a private compression.

    The reward parameter is four times the largest discrepancy between the
    true conditional expected reward of a joint private history and that of
    its same-node label-preimage mixture, over every reachable node, history
    and joint action; the observation parameter is eight times the analogous
    supremum of total variation over next observations.  ``budget`` caps the
    (node, joint history, joint action) triples, charged a level at a time.
    """
    tree = tree or FcsTree(model)
    if check:
        rep = check_recursive(model, pc, tree=tree)
        if not rep.passed:
            raise RecursiveCheckError("recursive private update check failed")
    eps_p, delta_p, spent = 0.0, 0.0, 0
    wit: dict = {}
    for t in range(1, model.horizon + 1):
        level = [(node, tree.reachable_fps(node)) for node in level_nodes(tree, t)]
        spent += sum(len(fps) for _node, fps in level) * model.num_joint_actions
        if spent > budget:
            raise BudgetExceededError(("private measure", t), budget)
        for node, fps in level:
            for hjoint, sdist_h, sdist_z in _history_laws(pc, node, fps):
                for a in model.iter_joint_actions():
                    eps, delta = _private_gaps(
                        model, sdist_h, sdist_z, model.joint_action_index(a), t < model.horizon
                    )
                    if eps > eps_p:
                        eps_p, wit["eps_p"] = eps, ("eps_p", t, node.seq, hjoint, a)
                    if delta > delta_p:
                        delta_p, wit["delta_p"] = delta, ("delta_p", t, node.seq, hjoint, a)
    return MeasuredParams(eps_p=eps_p, delta_p=delta_p, witnesses=wit)


def reevaluate_private_witness(
    model: DecPomdpModel,
    pc: PrivateCompression,
    witness,
    tree: FcsTree | None = None,
) -> float:
    """Recompute the folded value a private-measurement witness attains."""
    kind, t, seq, hjoint, a = witness
    if kind not in ("eps_p", "delta_p"):
        raise ValueError(f"unknown witness kind {kind!r}")
    tree = tree or FcsTree(model)
    node = tree.node(seq)
    for h, sdist_h, sdist_z in _history_laws(pc, node, tree.reachable_fps(node)):
        if h == hjoint:
            eps, delta = _private_gaps(
                model, sdist_h, sdist_z, model.joint_action_index(a), kind == "delta_p"
            )
            return eps if kind == "eps_p" else delta
    raise ValueError(f"history {hjoint!r} is not admissible at node {seq!r}")


def _node_reward_and_branches(tree: FcsTree, node: FcsNode, gamma: Prescription):
    """Immediate expected reward and next-common-observation law at a node
    under a history-domain prescription, memoised in ``tree.common_profiles``
    by the node and the prescription's action row.  Every caller shares the
    returned law, so none may change it."""
    memo_key = (node.seq, tuple(a for table in gamma.entries for _h, a in table))
    profile = tree.common_profiles.get(memo_key)
    if profile is not None:
        return profile
    model = tree.model
    r = 0.0
    obs: dict[int, float] = {}
    for (s, hjoint), w in node.weights:
        a = gamma.act(hjoint)
        a_idx = model.joint_action_index(a)
        r += w * float(model.reward[s, a_idx])
        for key, p in _next_obs_distribution(model, {s: w}, a_idx).items():
            obs[key[0]] = obs.get(key[0], 0.0) + p
    profile = tree.common_profiles[memo_key] = (r, obs)
    return profile


def _common_classes(pc: PrivateCompression, cc: CommonCompression, t: int, level):
    """The ``(node, mass)`` pairs of a subtree level grouped by common label,
    as ``(label, nodes, μ weights, label domains, colmaps)``; a label must not
    merge nodes with different private label domains."""
    classes: dict = {}
    for node, mass in level:
        classes.setdefault(cc.label_of(t, node.seq), []).append((node, mass))
    for z0, members in classes.items():
        nodes = [node for node, _mass in members]
        total = sum(mass for _node, mass in members)
        maps = [pc.label_map(node) for node in nodes]
        domains = maps[0][0]
        if any(other != domains for other, _colmap in maps[1:]):
            raise ValueError(
                f"common label {z0!r} merges nodes with different private label domains"
            )
        weights = [mass / total for _node, mass in members]
        yield z0, nodes, weights, domains, [colmap for _domains, colmap in maps]


def _mixture(tree: FcsTree, nodes, weights, colmaps, row: np.ndarray):
    """Each node's ``(reward, next-common-observation law)`` under label row
    ``row`` lifted to it, and their μ-weighted mixture ``(reward, law)``."""
    profiles = [
        _node_reward_and_branches(tree, node, tree._prescription(node.agent_domains, row[colmap]))
        for node, colmap in zip(nodes, colmaps)
    ]
    mix_r, mix_obs = 0.0, {}
    for w, (r, branches) in zip(weights, profiles):
        mix_r += w * r
        for o0, p in branches.items():
            mix_obs[o0] = mix_obs.get(o0, 0.0) + w * p
    return profiles, mix_r, mix_obs


def measure_common(
    model: DecPomdpModel,
    pc: PrivateCompression,
    cc: CommonCompression,
    mu: str = "uniform",
    tree: FcsTree | None = None,
    check: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> MeasuredParams:
    """Exact folded (ε_c, δ_c) of a common compression.

    Conditioning on a common label mixes its preimage nodes under the
    reference measure; the reward parameter is the largest per-node deviation
    of the immediate expected reward from the class mixture over every label
    prescription, and the observation parameter is twice the analogous total
    variation over the next common observation.  ``budget`` caps the (node,
    label prescription) pairs, charged a level at a time.
    """
    tree = tree or FcsTree(model)
    if check:
        rep = check_recursive(model, cc, pc=pc, tree=tree)
        if not rep.passed:
            raise RecursiveCheckError("recursive common update check failed")
    sup_r, sup_o, spent = 0.0, 0.0, 0
    wit: dict = {}
    for t, level in enumerate(compressed_subtree(model, tree, pc, mu), start=1):
        classes = list(_common_classes(pc, cc, t, level))
        spent += sum(
            len(nodes) * prescription_count(model, domains)
            for _z0, nodes, _w, domains, _c in classes
        )
        if spent > budget:
            raise BudgetExceededError(("common measure", t), budget)
        for _z0, nodes, weights, domains, colmaps in classes:
            for row in tree._action_rows(tuple(map(len, domains))):
                lam_key = tree._prescription(domains, row).key
                profiles, mix_r, mix_obs = _mixture(tree, nodes, weights, colmaps, row)
                for node, (r, branches) in zip(nodes, profiles):
                    d = abs(r - mix_r)
                    if d > sup_r:
                        sup_r, wit["eps_c"] = d, ("eps_c", t, node.seq, lam_key)
                    if t < model.horizon:
                        d = tv_distance(branches, mix_obs)
                        if d > sup_o:
                            sup_o, wit["delta_c"] = d, ("delta_c", t, node.seq, lam_key)
    return MeasuredParams(eps_c=sup_r, delta_c=2.0 * sup_o, witnesses=wit)


def reevaluate_common_witness(
    model: DecPomdpModel,
    pc: PrivateCompression,
    cc: CommonCompression,
    witness,
    mu: str = "uniform",
    tree: FcsTree | None = None,
) -> float:
    """Recompute the folded value a common-measurement witness attains."""
    kind, t, seq, lam_key = witness
    if kind not in ("eps_c", "delta_c"):
        raise ValueError(f"unknown witness kind {kind!r}")
    tree = tree or FcsTree(model)
    level = compressed_subtree(model, tree, pc, mu)[t - 1]
    z0 = cc.label_of(t, seq)
    for label, nodes, weights, domains, colmaps in _common_classes(pc, cc, t, level):
        if label == z0:
            row = _label_row(Prescription(lam_key), domains)
            profiles, mix_r, mix_obs = _mixture(tree, nodes, weights, colmaps, row)
            r, branches = profiles[[node.seq for node in nodes].index(seq)]
            return abs(r - mix_r) if kind == "eps_c" else 2.0 * tv_distance(branches, mix_obs)
    raise ValueError(f"node {seq!r} is not in the compressed subtree at t = {t}")


# -- construction ----------------------------------------------------------


def identity_private(model: DecPomdpModel, tree: FcsTree | None = None) -> PrivateCompression:
    """The lossless private compression: each history is its own label."""
    tree = tree or FcsTree(model)
    pc = PrivateCompression(num_agents=model.num_agents, horizon=model.horizon)
    for t in range(1, model.horizon + 1):
        for node in level_nodes(tree, t):
            for n, domain in enumerate(node.agent_domains):
                for h in domain:
                    pc.theta[(t, node.seq, n, h)] = h
    # A label that is its history fixes its successor: no edge can conflict.
    pc.phi, _conflict = _update_table(_private_edges(model, tree, pc))
    return pc


#: A total variation this close to its tolerance is settled by the scalar
#: ``tv_distance``, whose term order the matrix does not follow.
_TV_MARGIN = 1e-9


class _Blocks:
    """The items of each block with their ``(n, n)`` admission matrix: the
    pairwise compatibility of the block's items, separated pairs cleared.

    Building a matrix charges its ``n²`` cells to ``budget``.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.cells = 0
        self.items: list[list] = []
        self.admit: list[np.ndarray] = []
        self._where: dict = {}

    def charge(self, locus, n: int) -> None:
        self.cells += n * n
        if self.cells > self.budget:
            raise BudgetExceededError(locus, self.budget)

    def add(self, items: list, admit: np.ndarray) -> None:
        k = len(self.items)
        self._where.update((item, (k, i)) for i, item in enumerate(items))
        self.items.append(items)
        self.admit.append(admit)

    def separate(self, a, b) -> None:
        k, i = self._where[a]
        _k, j = self._where[b]
        self.admit[k][i, j] = self.admit[k][j, i] = False

    def labels(self):
        """``(item, class index)`` of every item, block by block."""
        for items, admit in zip(self.items, self.admit):
            yield from zip(items, _greedy_partition(admit))


def _greedy_partition(admit: np.ndarray) -> list[int]:
    """Agglomerate items in order: each joins the first class that admits it,
    else opens a new one.  A class admits an item when all its members do, so
    a class's row is the AND of its members' rows of ``admit``."""
    rows = np.empty_like(admit)
    labels = []
    k = 0
    for i, row in enumerate(admit):
        c = int(rows[:k, i].argmax()) if k else 0
        if k and rows[c, i]:
            rows[c] &= row
        else:
            c = k
            rows[k] = row
            k += 1
        labels.append(c)
    return labels


def _compatibility(rewards, laws, tol_r: float, tol_o: float, scalar_tv) -> np.ndarray:
    """``ok[i, j]``: items ``i`` and ``j`` differ at most ``tol_r`` in every
    reward column ``rewards[:, k]`` and at most ``tol_o`` in total variation
    between the laws ``laws[:, k, :]`` (skipped when ``laws`` is ``None``).

    Built one column, and one outcome of a law, at a time, so no temporary
    exceeds ``n × n``.  A total variation within ``_TV_MARGIN`` of a positive
    ``tol_o`` is replaced by ``scalar_tv(i, j, k)`` for ``i > j``: the value
    the pairwise check computed, in its own term order.
    """
    m, columns = rewards.shape
    ok = np.ones((m, m), dtype=bool)
    for k in range(columns):
        diff = np.subtract.outer(rewards[:, k], rewards[:, k])
        ok &= np.abs(diff, out=diff) <= tol_r
    if laws is None:
        return ok
    for k in range(columns):
        tv = np.zeros((m, m))
        for o in range(laws.shape[2]):
            diff = np.subtract.outer(laws[:, k, o], laws[:, k, o])
            tv += np.abs(diff, out=diff)
        tv *= 0.5
        if tol_o > 0.0:
            near = np.tril(ok & (np.abs(tv - tol_o) <= _TV_MARGIN), -1)
            for i, j in zip(*near.nonzero()):
                tv[i, j] = tv[j, i] = scalar_tv(i, j, k)
        ok &= tv <= tol_o
    return ok


def _history_state_laws(model: DecPomdpModel, nodes, domains, n: int) -> np.ndarray:
    """``P(s | node, agent n's history)``, one row per (node, history) item in
    block order, accumulated atom by atom in the node's weight order."""
    rows: list[list[float]] = []
    for node, domain in zip(nodes, domains):
        pos = {h: len(rows) + k for k, h in enumerate(domain)}
        rows.extend([0.0] * model.num_states for _h in domain)
        for (s, hjoint), w in node.weights:
            rows[pos[hjoint[n]]][s] += w
    mass = np.array([sum(row) for row in rows])
    return np.array(rows) / mass[:, None]


def _private_matrix(
    model: DecPomdpModel, sdist: np.ndarray, with_laws: bool, tol_r: float, tol_o: float
) -> np.ndarray:
    """Compatibility of the items with state laws ``sdist``: the one-step
    reward of every joint action, and the next joint-observation law when
    ``with_laws``.  Both are summed state by state in the order of
    ``_joint_reward`` and ``_next_obs_distribution``, so they are bit for bit
    the scalar values; absent states add exact zeros."""
    S, thr = model.num_states, ADMISSIBILITY_THRESHOLD
    rewards = sdist[:, :1] * model.reward[0]
    for s in range(1, S):
        rewards = rewards + sdist[:, s:s + 1] * model.reward[s]
    laws = None
    if with_laws:
        laws = np.zeros((len(sdist), model.num_joint_actions, model.num_joint_obs))
        for s in range(S):
            for s_next in range(S):
                p_trans = model.transition[s, :, s_next]
                base = sdist[:, s:s + 1] * np.where(p_trans > thr, p_trans, 0.0)
                p = base[:, :, None] * model.observation[s_next]
                laws += np.where(p > thr, p, 0.0)

    def scalar_tv(i, j, a_idx):
        def law(x):
            state_law = {s: float(w) for s, w in enumerate(sdist[x]) if w}
            return _next_obs_distribution(model, state_law, a_idx)

        return tv_distance(law(i), law(j))

    return _compatibility(rewards, laws, tol_r, tol_o, scalar_tv)


def build_greedy(
    model: DecPomdpModel,
    tol_r: float = 0.0,
    tol_o: float = 0.0,
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivateCompression:
    """Greedy agglomerative private compression with recursive-closure repair.

    Pairs of (node, history) items merge when their per-agent one-step reward
    profiles differ at most ``tol_r`` and their observation profiles at most
    ``tol_o`` in total variation, scanning in canonical order.  The partition
    is then repaired to a fixed point: any two items whose merged label would
    make the recursive update multivalued are forced apart and the
    agglomeration rerun.  At zero tolerance the repair additionally splits
    classes until the measured parameters are exactly zero, so this partition
    doubles as the exact construction.

    Each block of items, one per ``(t, agent)``, gets its compatibility matrix
    once; ``budget`` caps the total number of matrix cells.
    """
    tree = tree or FcsTree(model)
    levels = full_levels(model, tree)
    blocks = _Blocks(budget)
    for t in range(1, model.horizon + 1):
        nodes = levels[t - 1]
        for n in range(model.num_agents):
            domains = [node.agent_domains[n] for node in nodes]
            items = [(t, node.seq, n, h) for node, dom in zip(nodes, domains) for h in dom]
            blocks.charge(("private block", t, n), len(items))
            sdist = _history_state_laws(model, nodes, domains, n)
            blocks.add(items, _private_matrix(model, sdist, t < model.horizon, tol_r, tol_o))

    exact = tol_r == 0.0 and tol_o == 0.0
    for _round in range(_MAX_REFINEMENT_ROUNDS):
        pc = PrivateCompression(num_agents=model.num_agents, horizon=model.horizon)
        pc.theta = dict(blocks.labels())
        phi, conflict = _update_table(_private_edges(model, tree, pc))
        if conflict is not None:
            blocks.separate(*conflict[1:])
            continue
        if exact:
            split = _exactness_split(model, tree, pc)
            if split:
                for pair in split:
                    blocks.separate(*pair)
                continue
        pc.phi = phi
        return pc
    raise RuntimeError("partition refinement did not reach a fixed point")


def _exactness_split(model, tree, pc):
    """Pairs to separate to zero the measured parameters, from one witness."""
    mp = measure_private(model, pc, tree=tree, check=False)
    for kind in ("eps_p", "delta_p"):
        value = getattr(mp, kind)
        if value > ADMISSIBILITY_THRESHOLD:
            _k, t, seq, hjoint, _a = mp.witnesses[kind]
            node = tree.node(seq)
            columns = _columns_by_agent(node.agent_domains, pc.label_map(node)[1].tolist())
            for n, (column, h) in enumerate(zip(columns, hjoint)):
                mates = [g for g in column if g != h and column[g] == column[h]]
                if mates:
                    return [((t, seq, n, h), (t, seq, n, g)) for g in mates]
    return []


def build_exact_private(
    model: DecPomdpModel, tree: FcsTree | None = None, budget: int = DEFAULT_BUDGET
) -> PrivateCompression:
    """Lossless private compression by partition refinement: the greedy
    agglomeration at zero tolerance, split to closure and exactness."""
    return build_greedy(model, 0.0, 0.0, tree=tree, budget=budget)


def identity_common(
    model: DecPomdpModel, pc: PrivateCompression, tree: FcsTree | None = None
) -> CommonCompression:
    """Each coordinator node of the compressed subtree is its own label."""
    tree = tree or FcsTree(model)
    cc = CommonCompression(horizon=model.horizon)
    levels = compressed_subtree(model, tree, pc)
    for t in range(1, model.horizon + 1):
        for node, _mass in levels[t - 1]:
            cc.theta0[(t, node.seq)] = node.seq
    # Node labels fix their successors: no edge can conflict.
    cc.phi0, _conflict = _update_table(_common_edges(model, tree, pc, cc, levels))
    return cc


def bcs_common(
    model: DecPomdpModel, pc: PrivateCompression, tree: FcsTree | None = None
) -> CommonCompression:
    """Label each node by the fingerprint of its belief over compressed states.

    Nodes whose beliefs over (state, private labels) agree to nine decimals
    merge; the recursive update is read off the subtree edges and must be
    single-valued, which the Bayesian-update recursion guarantees.
    """
    tree = tree or FcsTree(model)
    cc = CommonCompression(horizon=model.horizon)
    levels = compressed_subtree(model, tree, pc)
    for t in range(1, model.horizon + 1):
        for node, _mass in levels[t - 1]:
            fp = compute_bcs(
                tree, node, label_of=lambda n, h: pc.label_of(t, node.seq, n, h)
            ).fingerprint
            cc.theta0[(t, node.seq)] = fp
    phi0, conflict = _update_table(_common_edges(model, tree, pc, cc, levels))
    if conflict is not None:
        raise ValueError(
            "belief fingerprints do not evolve recursively; "
            f"conflict at {conflict[0]!r}"
        )
    cc.phi0 = phi0
    return cc


def _common_matrix(
    model: DecPomdpModel,
    tree: FcsTree,
    pc: PrivateCompression,
    nodes: list[FcsNode],
    with_laws: bool,
    tol_r: float,
    tol_o: float,
) -> np.ndarray:
    """Compatibility of coordinator nodes: nodes with different private label
    domains never merge; within one domain group, the columns are the group's
    label prescriptions, each with its immediate reward and, when
    ``with_laws``, its next-common-observation law."""
    groups: dict = {}
    for i, node in enumerate(nodes):
        domains, colmap = pc.label_map(node)
        groups.setdefault(domains, []).append((i, colmap))
    ok = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for domains, members in groups.items():
        rows = tree._action_rows(tuple(map(len, domains)))

        def profile(i, k):
            node, colmap = nodes[members[i][0]], members[i][1]
            gamma = tree._prescription(node.agent_domains, rows[k][colmap])
            return _node_reward_and_branches(tree, node, gamma)

        rewards = np.empty((len(members), len(rows)))
        laws = np.zeros((len(members), len(rows), len(model.common_obs)))
        for i in range(len(members)):
            for k in range(len(rows)):
                rewards[i, k], branches = profile(i, k)
                for o0, p in branches.items():
                    laws[i, k, o0] = p

        def scalar_tv(i, j, k):
            return tv_distance(profile(i, k)[1], profile(j, k)[1])

        index = [i for i, _colmap in members]
        ok[np.ix_(index, index)] = _compatibility(
            rewards, laws if with_laws else None, tol_r, tol_o, scalar_tv
        )
    return ok


def build_common_greedy(
    model: DecPomdpModel,
    pc: PrivateCompression,
    tol_r: float = 0.0,
    tol_o: float = 0.0,
    mu: str = "uniform",
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> CommonCompression:
    """Greedy node-merging common compression with closure repair.

    Two nodes merge when they expose the same private label domains and, for
    every label prescription, their immediate expected rewards differ at most
    ``tol_r`` and their next-common-observation laws at most ``tol_o`` in
    total variation.  Each time step is one block with one compatibility
    matrix; ``budget`` caps the total number of matrix cells.
    """
    tree = tree or FcsTree(model)
    levels = compressed_subtree(model, tree, pc)
    blocks = _Blocks(budget)
    for t in range(1, model.horizon + 1):
        nodes = [node for node, _mass in levels[t - 1]]
        blocks.charge(("common block", t), len(nodes))
        blocks.add(
            [(t, node.seq) for node in nodes],
            _common_matrix(model, tree, pc, nodes, t < model.horizon, tol_r, tol_o),
        )

    for _round in range(_MAX_REFINEMENT_ROUNDS):
        cc = CommonCompression(horizon=model.horizon, mu_id=mu)
        cc.theta0 = dict(blocks.labels())
        phi0, conflict = _update_table(_common_edges(model, tree, pc, cc, levels))
        if conflict is None:
            cc.phi0 = phi0
            return cc
        blocks.separate(*conflict[1:])
    raise RuntimeError("common refinement did not reach a fixed point")


# -- serialization ---------------------------------------------------------


def _enc(obj) -> str:
    return repr(obj)


def _dec(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise CompressionFormatError(f"unparseable entry {text!r}") from exc


def serialize_compression(compression, measured: MeasuredParams | None = None) -> str:
    """Lossless structured-text form of a compression (JSON with literal keys)."""
    if isinstance(compression, PrivateCompression):
        doc = {
            "kind": "private",
            "num_agents": compression.num_agents,
            "horizon": compression.horizon,
            "theta": [[_enc(k), _enc(v)] for k, v in sorted(compression.theta.items(), key=repr)],
            "phi": [[_enc(k), _enc(v)] for k, v in sorted(compression.phi.items(), key=repr)],
        }
    elif isinstance(compression, CommonCompression):
        doc = {
            "kind": "common",
            "horizon": compression.horizon,
            "mu": compression.mu_id,
            "theta0": [[_enc(k), _enc(v)] for k, v in sorted(compression.theta0.items(), key=repr)],
            "phi0": [[_enc(k), _enc(v)] for k, v in sorted(compression.phi0.items(), key=repr)],
        }
    else:
        raise TypeError(f"not a compression: {type(compression).__name__}")
    if measured is not None:
        doc["measured"] = {
            "eps_p": measured.eps_p,
            "delta_p": measured.delta_p,
            "eps_c": measured.eps_c,
            "delta_c": measured.delta_c,
            "witnesses": {k: _enc(v) for k, v in sorted(measured.witnesses.items())},
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def load_compression(text: str):
    """Inverse of :func:`serialize_compression`; round-trips exactly."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CompressionFormatError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise CompressionFormatError("compression document must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "private":
            pc = PrivateCompression(
                num_agents=int(doc["num_agents"]), horizon=int(doc["horizon"])
            )
            pc.theta = {_dec(k): _dec(v) for k, v in doc["theta"]}
            pc.phi = {_dec(k): _dec(v) for k, v in doc["phi"]}
            return pc
        if kind == "common":
            cc = CommonCompression(horizon=int(doc["horizon"]), mu_id=doc.get("mu", "uniform"))
            cc.theta0 = {_dec(k): _dec(v) for k, v in doc["theta0"]}
            cc.phi0 = {_dec(k): _dec(v) for k, v in doc["phi0"]}
            return cc
    except KeyError as exc:
        raise CompressionFormatError(f"missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise CompressionFormatError(f"malformed field: {exc}") from exc
    raise CompressionFormatError(f"unknown compression kind {kind!r}")
