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
from itertools import zip_longest

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
    Level,
    Prescription,
    _columns_by_agent,
    _entries,
    _successor_labels,
    _successors,
    prescription_count,
)
from .model import ADMISSIBILITY_THRESHOLD, DecPomdpModel, _json_int

#: The reference measure mixing a common label's preimage nodes, the one
#: measure there is: the label prescription drawn uniformly at every node.
REFERENCE_MEASURE = "uniform"


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
            try:
                keys = tuple(sorted(set(labels)))
            except TypeError:
                raise CompressionFormatError(
                    f"agent {n}'s labels at node {node.seq!r} cannot be ordered") from None
            column = {z: offset + i for i, z in enumerate(keys)}
            colmap.extend(column[z] for z in labels)
            domains.append(keys)
            offset += len(keys)
        return tuple(domains), np.array(colmap, dtype=np.intp)

    def alphabet(self, agent: int, t: int) -> tuple:
        labels = {lab for (tt, _seq, n, _h), lab in self.theta.items() if tt == t and n == agent}
        try:
            return tuple(sorted(labels))
        except TypeError:
            raise CompressionFormatError(
                f"agent {agent}'s labels at time {t} cannot be ordered") from None


@dataclass
class CommonCompression:
    """Relabeling of coordinator nodes with a recursive update over labels."""

    horizon: int
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


# -- sessions ----------------------------------------------------------------


class Session:
    """What one frozen compression decides on one tree, each part built on
    first use: every node's label map, labels, (label prescription,
    extension) pairs, common profiles and recursive-update edges, the
    compressed subtree's levels (:meth:`level`, its one builder) and their
    μ masses (:meth:`mu`), the common classes with their mixtures and the
    measured parameters.

    Labels are read when first needed, so a compression must not change
    while a session for it is in use, except through :meth:`relabel`; the
    tree keeps only what no label decides.  Every public function taking
    ``pc`` takes a session too.
    """

    #: The parts built per node, memoised under ``(part, node.seq)``.
    _NODE_PARTS = frozenset({"map", "labels", "pairs", "profiles", "edges"})

    def __init__(self, tree: FcsTree, pc: PrivateCompression, cc=None):
        self.tree, self.model, self.pc, self.cc = tree, tree.model, pc, cc
        self._memo: dict = {}
        self._levels: list[Level] = []  # as ``level`` returns them

    @classmethod
    def of(cls, model: DecPomdpModel, pc, tree: FcsTree | None = None, cc=None):
        """``pc`` when it is a session for ``cc`` (or ``cc`` is ``None``), else
        a new session for ``cc``, on ``pc``'s tree when ``pc`` is a session."""
        if not isinstance(pc, Session):
            return cls(tree or FcsTree(model), pc, cc)
        return pc if cc is None or cc is pc.cc else cls(pc.tree, pc.pc, cc)

    def _built(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def label_map(self, node: FcsNode) -> tuple[tuple[tuple, ...], np.ndarray]:
        """:meth:`PrivateCompression.label_map`, built once per node."""
        return self._built(("map", node.seq), lambda: self.pc.label_map(node))

    def labels(self, node: FcsNode) -> list[dict]:
        """Per agent, the label of each of the node's histories."""

        def build():
            domains, colmap = self.label_map(node)
            keys = [z for domain in domains for z in domain]
            return _columns_by_agent(node.agent_domains, [keys[c] for c in colmap.tolist()])

        return self._built(("labels", node.seq), build)

    def pairs(self, node: FcsNode) -> list[tuple[Prescription, Prescription]]:
        """All (label prescription, extension) pairs at a node, canonical order."""

        def build():
            tree, (domains, colmap) = self.tree, self.label_map(node)
            lift = node.agent_domains
            return [
                (tree._prescription(domains, row), tree._prescription(lift, row[colmap]))
                for row in tree._action_rows(tuple(map(len, domains)))
            ]

        return self._built(("pairs", node.seq), build)

    def edges(self, level: Level, below: Level, i: int) -> list[tuple]:
        """Node ``i`` of a full level's labelled recursive-update edges under
        every compressed prescription in scan order, as ``(phi key, source
        item, successor)``, read off the level's edges into ``below``."""
        node = level.nodes[i]

        def build():
            t, labels, theta, out = node.t, self.labels(node), self.pc.theta, []
            domains, colmap = self.label_map(node)
            # Full rows run in ``np.indices`` order over the columns' action sizes.
            sizes = [a for a, hs in zip(self.model.action_sizes, node.agent_domains) for _h in hs]
            rows = self.tree._action_rows(tuple(map(len, domains)))[:, colmap]
            full = np.ravel_multi_index(rows.T, sizes).tolist()
            for (lam, gamma), k in zip(self.pairs(node), full):
                children = [below.nodes[c] for c in level.children(i, k)]
                for o0, n, h, _a, on, z in _successor_labels(self.model, children, gamma, theta):
                    out.append(((n, t, labels[n][h], lam.key, o0, on), (t, node.seq, n, h), z))
            return out

        return self._built(("edges", node.seq), build)

    def relabel(self, items) -> None:
        """Write the ``(item, label)`` pairs into the compression's ``theta``
        and drop what they change: everything a relabelled node built, the
        edges of its parent, and every level-wide part, the levels too."""
        theta, changed = self.pc.theta, set()
        for item, label in items:
            if theta[item] != label:
                theta[item] = label
                changed.add(item[1])
        parents = {seq[:-2] for seq in changed}
        self._memo = {
            key: value for key, value in self._memo.items()
            if type(key) is tuple and key[0] in self._NODE_PARTS and key[1] not in changed
            and (key[0] != "edges" or key[1] not in parents)
        }
        self._levels = []

    def level(self, t: int) -> Level:
        """Depth ``t`` of the compressed subtree, with the edges under the
        extensions of its nodes' label rows once depth ``t + 1`` is built;
        each depth is expanded once, from above.  Depth 1 is a record of its
        own, for those edges, on the full level's nodes and atoms."""
        levels, tree = self._levels, self.tree
        if not levels:
            first = tree.full_level(1)
            levels.append(Level(first.nodes, first.atoms))
        while len(levels) < t:
            level = levels[-1]
            domains, colmaps = zip(*map(self.label_map, level.nodes))
            tables = [tree._action_rows(tuple(map(len, labels))) for labels in domains]
            gammas = [[gamma for _lam, gamma in self.pairs(node)] for node in level.nodes]
            levels.append(tree.expand_rows(level, level.atoms.columns(colmaps), tables, gammas))
        return levels[t - 1]

    def mu(self, t: int) -> list[float]:
        """The masses of :meth:`level`'s depth-``t`` nodes under the reference
        measure, in node order.  The ``uniform`` measure draws the label
        prescription uniformly at every node, so each depth's masses sum to
        one."""

        def build():
            if t == 1:
                return [p for _o0, _node, p in self.tree.roots()]
            self.level(t)  # which writes the edges leaving depth t - 1
            above, out = self.level(t - 1), []
            for i, (weight, gammas) in enumerate(zip(self.mu(t - 1), above.gammas)):
                share = weight / len(gammas)
                out += [share * above.mass[c]
                        for k in range(len(gammas)) for c in above.children(i, k)]
            return out

        return self._built(("mu", t), build)

    def profiles(self, node: FcsNode) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_node_profiles` of the node's label rows lifted to it; the
        first call on a subtree level computes those of the whole level."""
        memo = self._memo
        if ("profiles", node.seq) not in memo:
            level, tables = self.level(node.t), []
            for n in level.nodes:
                domains, colmap = self.label_map(n)
                tables.append(self.tree._action_rows(tuple(map(len, domains)))[:, colmap])
            for n, profile in zip(level.nodes, _node_profiles(self.tree, level, tables)):
                memo[("profiles", n.seq)] = profile
        return memo[("profiles", node.seq)]

    def classes(self, t: int) -> list[tuple]:
        """The subtree's level-``t`` nodes grouped by common label, as
        ``(label, nodes, μ weights, label domains)``; a label must not merge
        nodes with different private label domains."""

        def build():
            groups: dict = {}
            for node, mass in zip(self.level(t).nodes, self.mu(t)):
                groups.setdefault(self.cc.label_of(t, node.seq), []).append((node, mass))
            out = []
            for z0, members in groups.items():
                nodes = [node for node, _mass in members]
                domains = [self.label_map(node)[0] for node in nodes]
                if any(other != domains[0] for other in domains[1:]):
                    raise ValueError(
                        f"common label {z0!r} merges nodes with different private label domains"
                    )
                total = sum(mass for _node, mass in members)
                out.append((z0, nodes, [mass / total for _node, mass in members], domains[0]))
            return out

        return self._built(("classes", t), build)

    def mixture(self, t: int, cls: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The μ-weighted mixture ``(r[k], law[k, o0])`` of a class's
        profiles, added member by member from 0.0."""

        def build():
            mix_r = mix_law = 0.0
            for w, node in zip(cls[2], cls[1]):
                r, law = self.profiles(node)
                mix_r = mix_r + w * r
                mix_law = mix_law + w * law
            return mix_r, mix_law

        return self._built(("mixture", t, cls[0]), build)

    def measured(self, kind: str, budget: int, measure) -> MeasuredParams:
        """The parameters ``measure(budget)`` gives with the count it spent,
        built once; a call whose budget the count exceeds measures anew, so
        it raises where a fresh session would."""
        if kind not in self._memo or self._memo[kind][1] > budget:
            self._memo[kind] = measure(budget)
        return self._memo[kind][0]


# -- recursive-update edges -----------------------------------------------


def _private_edges(s: Session):
    """Every labelled reachable edge of a private compression in scan order,
    node by node of the full levels: :meth:`Session.edges`."""
    for t in range(1, s.model.horizon):
        level, below = s.tree.full_level(t), s.tree.full_level(t + 1)
        for i in range(len(level.nodes)):
            yield from s.edges(level, below, i)


def _common_edges(s: Session, cc: CommonCompression):
    """Every edge of the compressed subtree, as ``(phi0 key, source item,
    successor label)``, each (node, label row) pair's children read by
    position off :meth:`Session.level`; unlabelled nodes read as ``None``."""
    for t in range(1, s.model.horizon):
        level, below = s.level(t), s.level(t + 1)
        for i, node in enumerate(level.nodes):
            z0 = cc.theta0.get((t, node.seq))
            for k, (lam, _gamma) in enumerate(s.pairs(node)):
                for child in (below.nodes[c] for c in level.children(i, k)):
                    z_next = cc.theta0.get((t + 1, child.seq))
                    yield (t, z0, lam.key, child.seq[-1]), (t, node.seq), z_next


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
    A session checks its private compression.
    """
    if isinstance(compression, (PrivateCompression, Session)):
        s = Session.of(model, compression, tree)
        name = "ASPS1"
        violations = [
            (seq, n, h, key[4], key[5], got, expected)
            for key, (_t, seq, n, h), expected in _private_edges(s)
            if (got := s.pc.phi.get(key)) != expected
        ]
    elif isinstance(compression, CommonCompression):
        if pc is None:
            raise ValueError("checking a common compression requires the private one")
        name = "ASCS1"
        violations = [
            (seq, key[3], got, expected)
            for key, (_t, seq), expected in _common_edges(Session.of(model, pc, tree), compression)
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


def _joint_rewards(model: DecPomdpModel, sdists: list[dict[int, float]]) -> np.ndarray:
    """Expected reward ``[i, a]`` of each state law ``sdists[i]`` under every
    joint action, each adding ``w · R[s, a]`` in its own order from 0.0; a
    shorter law is padded with zero weights, which add exact zeros."""
    total = np.zeros((len(sdists), model.num_joint_actions))
    for column in zip_longest(*(sdist.items() for sdist in sdists), fillvalue=(0, 0.0)):
        state, weight = zip(*column)
        total += np.array(weight)[:, None] * model.reward[list(state)]
    return total


def _history_laws(s: Session, node: FcsNode, fps):
    """Per admissible joint history ``f`` of ``fps`` at ``node``: its
    histories, its joint label, its state law and the state law of its joint
    label's preimage, the mixture of the same-node histories sharing every
    agent's label."""
    labels = s.labels(node)
    joint = [tuple(lab[h] for lab, h in zip(labels, f.histories)) for f in fps]
    classes: dict = {}
    for f, z in zip(fps, joint):
        classes.setdefault(z, []).append(f)
    preimage: dict = {}
    for z, pre in classes.items():
        mass = sum(g.probability for g in pre)
        sdist_z = preimage[z] = {}
        for g in pre:
            for st, p in enumerate(g.state_probabilities):
                if p > ADMISSIBILITY_THRESHOLD:
                    sdist_z[st] = sdist_z.get(st, 0.0) + p / mass
    for f, z in zip(fps, joint):
        sdist_h = {
            st: p / f.probability
            for st, p in enumerate(f.state_probabilities)
            if p > ADMISSIBILITY_THRESHOLD
        }
        yield f.histories, z, sdist_h, preimage[z]


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
    s = Session.of(model, pc, tree)
    if check and not check_recursive(model, s).passed:
        raise RecursiveCheckError("recursive private update check failed")
    return s.measured("private", budget, lambda cap: _measure_private(s, cap))


def _measure_private(s: Session, budget: int) -> tuple[MeasuredParams, int]:
    model, tree = s.model, s.tree
    actions = list(model.iter_joint_actions())
    eps_p, delta_p, spent = 0.0, 0.0, 0
    wit: dict = {}
    for t in range(1, model.horizon + 1):
        level = [(node, tree.reachable_fps(node)) for node in tree.full_level(t).nodes]
        spent += sum(len(fps) for _node, fps in level) * model.num_joint_actions
        if spent > budget:
            raise BudgetExceededError(("private measure", t), budget)
        # (node, joint history, joint label, its state law, its preimage's).
        laws = [(node, *law) for node, fps in level for law in _history_laws(s, node, fps)]
        # A preimage's laws are the same for every history of its class.
        preimage = {(node.seq, z): sdist_z for node, _h, z, _sdist_h, sdist_z in laws}
        row = {key: i for i, key in enumerate(preimage)}
        r_h = _joint_rewards(model, [sdist_h for *_x, sdist_h, _sdist_z in laws])
        r_z = _joint_rewards(model, list(preimage.values()))
        eps = 4.0 * np.abs(r_h - r_z[[row[(node.seq, z)] for node, _h, z, *_x in laws]])
        f, a = divmod(int(eps.argmax()), len(actions))
        if eps[f, a] > eps_p:
            node, hjoint = laws[f][:2]
            eps_p, wit["eps_p"] = float(eps[f, a]), ("eps_p", t, node.seq, hjoint, actions[a])
        if t == model.horizon:
            continue
        obs_z: dict = {}
        for node, hjoint, z, sdist_h, sdist_z in laws:
            for a_idx, a in enumerate(actions):
                if (node.seq, z, a_idx) not in obs_z:
                    obs_z[(node.seq, z, a_idx)] = _next_obs_distribution(model, sdist_z, a_idx)
                delta = 8.0 * tv_distance(
                    _next_obs_distribution(model, sdist_h, a_idx), obs_z[(node.seq, z, a_idx)]
                )
                if delta > delta_p:
                    delta_p, wit["delta_p"] = delta, ("delta_p", t, node.seq, hjoint, a)
    return MeasuredParams(eps_p=eps_p, delta_p=delta_p, witnesses=wit), spent


def _node_profiles(tree: FcsTree, level: Level, tables: list[np.ndarray]) -> list:
    """Immediate expected reward ``r[k]`` and next-common-observation law
    ``law[k, o0]`` of each node of ``level`` under each history-domain action
    row ``tables[i][k]``, memoised in ``tree.common_profiles`` by the node and
    its rows; one pass over the level's atoms fills in every missing pair,
    and memoised arrays stay the objects callers share, which none may change.

    Both are the scalar sums bit for bit: the reward adds ``w · R[s, a]``
    atom by atom from 0.0.  The successors come from the batched forward
    step ``histories._successors``: each joint observation's probability
    adds the successor states it admits, in index order, and the law adds
    those atom by atom, each atom's in the order the step first meets them:
    by the first successor admitting each, then by index.
    """
    keys = [(node.seq, table.tobytes()) for node, table in zip(level.nodes, tables)]
    memo = tree.common_profiles
    if all(key in memo for key in keys):
        return [memo[key] for key in keys]
    model, atoms = tree.model, level.atoms
    pairs, _row, entry_pair, entry_atom, actions = _entries(atoms, atoms.columns(), tables)
    joint = actions @ np.array([stride for _size, stride in model._action_strides])
    state, weight = atoms.state[entry_atom], atoms.weight[entry_atom]
    reward = np.bincount(entry_pair, weight * model.reward[state, joint], len(pairs))
    entry, _s_next, obs, p = _successors(model, atoms.state, atoms.weight, entry_atom, actions)
    num_obs, num_common = model.num_joint_obs, len(model.common_obs)
    # Per (entry, o), the successor states in index order; then per entry,
    # the cells in the order their first successor was met.
    cell, first, where = np.unique(entry * num_obs + obs, return_index=True, return_inverse=True)
    per_cell = np.bincount(where, p, len(cell))
    met = np.argsort(first)
    entry, obs = np.divmod(cell[met], num_obs)
    law = np.bincount(
        entry_pair[entry] * num_common + obs // (num_obs // num_common), per_cell[met],
        len(pairs) * num_common,
    ).reshape(len(pairs), num_common)
    bounds = np.cumsum([0] + [len(table) for table in tables]).tolist()
    return [
        memo.setdefault(key, (reward[lo:hi], law[lo:hi]))
        for key, lo, hi in zip(keys, bounds, bounds[1:])
    ]


def _tv(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total variation over the last axis, added left to right as
    :func:`tv_distance` adds the outcomes of two laws over small integers."""
    return 0.5 * np.cumsum(np.abs(p - q), axis=-1)[..., -1]


def measure_common(
    model: DecPomdpModel,
    pc: PrivateCompression,
    cc: CommonCompression,
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
    s = Session.of(model, pc, tree, cc)
    if check and not check_recursive(model, cc, pc=s).passed:
        raise RecursiveCheckError("recursive common update check failed")
    return s.measured("common", budget, lambda cap: _measure_common(s, cap))


def _measure_common(s: Session, budget: int) -> tuple[MeasuredParams, int]:
    model, tree = s.model, s.tree
    sup, spent = {"eps_c": 0.0, "delta_c": 0.0}, 0
    wit: dict = {}
    for t in range(1, model.horizon + 1):
        classes = s.classes(t)
        spent += sum(
            len(nodes) * prescription_count(model, domains) for _z0, nodes, _w, domains in classes
        )
        if spent > budget:
            raise BudgetExceededError(("common measure", t), budget)
        for cls in classes:
            _z0, nodes, _w, domains = cls
            mix_r, mix_law = s.mixture(t, cls)
            profiles = [s.profiles(node) for node in nodes]
            # Deviations per (label row, node), the order the sup scans them in.
            rewards = np.stack([r for r, _law in profiles], axis=1)
            dev = {"eps_c": np.abs(rewards - mix_r[:, None])}
            if t < model.horizon:
                laws = np.stack([law for _r, law in profiles], axis=1)
                dev["delta_c"] = _tv(laws, mix_law[:, None])
            for kind, d in dev.items():
                k, i = divmod(int(d.argmax()), len(nodes))
                if d[k, i] > sup[kind]:
                    row = tree._action_rows(tuple(map(len, domains)))[k]
                    lam = tree._prescription(domains, row)
                    sup[kind], wit[kind] = float(d[k, i]), (kind, t, nodes[i].seq, lam.key)
    return MeasuredParams(eps_c=sup["eps_c"], delta_c=2.0 * sup["delta_c"], witnesses=wit), spent


# -- construction ----------------------------------------------------------


def identity_private(
    model: DecPomdpModel, tree: FcsTree | None = None, budget: int = DEFAULT_BUDGET
) -> PrivateCompression:
    """The lossless private compression: each history is its own label.

    ``budget`` caps the full levels' (node, prescription) pairs, charged a
    depth at a time before that depth is expanded, as the exact sweep does.
    """
    tree = tree or FcsTree(model)
    pc = PrivateCompression(num_agents=model.num_agents, horizon=model.horizon)
    spent = 0
    for t in range(1, model.horizon + 1):
        level = tree.full_level(t)
        spent += sum(prescription_count(model, node.agent_domains) for node in level.nodes)
        if spent > budget:
            raise BudgetExceededError(("identity", t), budget)
        for node in level.nodes:
            for n, domain in enumerate(node.agent_domains):
                for h in domain:
                    pc.theta[(t, node.seq, n, h)] = h
    # A label that is its history fixes its successor: no edge can conflict.
    pc.phi, _conflict = _update_table(_private_edges(Session(tree, pc)))
    return pc


#: A private total variation this close to its tolerance is settled by the
#: scalar ``tv_distance``, whose term order the matrix does not follow.
_TV_MARGIN = 1e-9


class _Blocks:
    """The items of each block with their ``(n, n)`` admission matrix, the
    pairwise compatibility of the block's items with separated pairs
    cleared, and their greedy labels.

    Building a matrix charges its ``n²`` cells to ``budget``.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.cells = 0
        self.items: list[list] = []
        self.admit: list[np.ndarray] = []
        self.labels: list[list[int]] = []
        self._where: dict = {}

    def charge(self, locus, n: int) -> None:
        self.cells += n * n
        if self.cells > self.budget:
            raise BudgetExceededError(locus, self.budget)

    def add(self, items: list, admit: np.ndarray):
        """Add a block; gives ``(item, class index)`` of each of its items."""
        k = len(self.items)
        self._where.update((item, (k, i)) for i, item in enumerate(items))
        self.items.append(items)
        self.admit.append(admit)
        self.labels.append(_greedy_partition(admit))
        return zip(items, self.labels[k])

    def separate(self, pairs) -> list:
        """Clear each pair's cells and partition each block anew from its
        earliest later item of a pair; gives ``(item, class index)`` of every
        item partitioned anew.  An item's class depends only on the cells
        between earlier items and it, so no earlier label can change."""
        start: dict = {}
        for a, b in pairs:
            (k, i), (_k, j) = self._where[a], self._where[b]
            self.admit[k][i, j] = self.admit[k][j, i] = False
            start[k] = min(start.get(k, len(self.items[k])), max(i, j))
        out = []
        for k, b in start.items():
            self.labels[k] = _greedy_partition(self.admit[k], self.labels[k][:b])
            out.extend(zip(self.items[k][b:], self.labels[k][b:]))
        return out


def _greedy_partition(admit: np.ndarray, kept: list[int] | tuple = ()) -> list[int]:
    """Agglomerate items in order: each joins the first class that admits it,
    else opens a new one.  A class admits an item when all its members do, so
    a class's row is the AND of its members' rows of ``admit``.  The first
    items keep their labels ``kept``, which opened classes ``0, 1, ...`` in
    order."""
    labels = list(kept)
    k = max(labels, default=-1) + 1
    rows = np.empty_like(admit)
    if k:
        order = np.argsort(labels, kind="stable")
        heads = np.searchsorted(np.array(labels)[order], np.arange(k))
        rows[:k] = np.logical_and.reduceat(admit[order], heads)
    for i in range(len(labels), len(admit)):
        row = admit[i]
        c = int(rows[:k, i].argmax()) if k else 0
        if k and rows[c, i]:
            rows[c] &= row
        else:
            c = k
            rows[k] = row
            k += 1
        labels.append(c)
    return labels


def _compatibility(rewards, laws, tol_r: float, tol_o: float, scalar_tv=None) -> np.ndarray:
    """``ok[i, j]``: items ``i`` and ``j`` differ at most ``tol_r`` in every
    reward column ``rewards[:, k]`` and at most ``tol_o`` in total variation
    between the laws ``laws[:, k, :]`` (skipped when ``laws`` is ``None``).

    Built one column, and one outcome of a law, at a time, so no temporary
    exceeds ``n × n``.  Given ``scalar_tv``, a total variation within
    ``_TV_MARGIN`` of a positive ``tol_o`` is replaced by ``scalar_tv(i, j,
    k)`` for ``i > j``, the pairwise check's value in its own term order.
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
        if scalar_tv is not None and tol_o > 0.0:
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
    ``_joint_rewards`` and ``_next_obs_distribution``, so they are bit for bit
    the scalar values; absent states add exact zeros.  The laws add the
    successors of the batched forward step, whose entries are ``(item, joint
    action, state)``."""
    S = model.num_states
    rewards = sdist[:, :1] * model.reward[0]
    for s in range(1, S):
        rewards = rewards + sdist[:, s:s + 1] * model.reward[s]
    laws = None
    if with_laws:
        shape = (len(sdist), model.num_joint_actions, model.num_joint_obs)
        item, joint, state = np.indices(shape[:2] + (S,)).reshape(3, -1)
        actions = np.array(np.unravel_index(joint, model.action_sizes)).T
        entry, _s_next, obs, p = _successors(
            model, np.tile(np.arange(S), len(sdist)), sdist.ravel(), item * S + state, actions)
        laws = np.bincount(entry // S * shape[2] + obs, p, np.prod(shape)).reshape(shape)

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
    make the recursive update multivalued are forced apart, and their block
    agglomerated anew from the later one.  At zero tolerance the repair also
    splits classes until the measured parameters are exactly zero, so this
    partition doubles as the exact construction.

    Each block of items, one per ``(t, agent)``, gets its compatibility matrix
    once; ``budget`` caps the total number of matrix cells.
    """
    tree = tree or FcsTree(model)
    blocks = _Blocks(budget)
    pc = PrivateCompression(num_agents=model.num_agents, horizon=model.horizon)
    for t in range(1, model.horizon + 1):
        nodes = tree.full_level(t).nodes
        for n in range(model.num_agents):
            domains = [node.agent_domains[n] for node in nodes]
            items = [(t, node.seq, n, h) for node, dom in zip(nodes, domains) for h in dom]
            blocks.charge(("private block", t, n), len(items))
            if (t, n) not in tree.state_laws:
                tree.state_laws[(t, n)] = _history_state_laws(model, nodes, domains, n)
            sdist = tree.state_laws[(t, n)]
            admit = _private_matrix(model, sdist, t < model.horizon, tol_r, tol_o)
            pc.theta.update(blocks.add(items, admit))

    s = Session(tree, pc)
    # Every round separates items of one class, so clears an admission cell
    # that was set, and no cell is ever set again: the loop ends within as
    # many rounds as there are admitted pairs.
    while True:
        phi, conflict = _update_table(_private_edges(s))
        if conflict is not None:
            split = [conflict[1:]]
        else:
            split = _exactness_split(s) if tol_r == tol_o == 0.0 else []
        if not split:
            pc.phi = phi
            return pc
        s.relabel(blocks.separate(split))


def _exactness_split(s: Session):
    """Pairs to separate to zero the measured parameters, from one witness."""
    mp = measure_private(s.model, s, check=False)
    for kind in ("eps_p", "delta_p"):
        value = getattr(mp, kind)
        if value > ADMISSIBILITY_THRESHOLD:
            _k, t, seq, hjoint, _a = mp.witnesses[kind]
            node = s.tree.full_level(t).by_seq[seq]
            for n, (labels, h) in enumerate(zip(s.labels(node), hjoint)):
                mates = [g for g in labels if g != h and labels[g] == labels[h]]
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
    s = Session.of(model, pc, tree)
    cc = CommonCompression(horizon=model.horizon)
    for t in range(1, model.horizon + 1):
        for node in s.level(t).nodes:
            cc.theta0[(t, node.seq)] = node.seq
    # Node labels fix their successors: no edge can conflict.
    cc.phi0, _conflict = _update_table(_common_edges(s, cc))
    return cc


def bcs_common(
    model: DecPomdpModel, pc: PrivateCompression, tree: FcsTree | None = None
) -> CommonCompression:
    """Label each node by the fingerprint of its belief over compressed states.

    Nodes whose beliefs over (state, private labels) agree to nine decimals
    merge; the recursive update is read off the subtree edges and must be
    single-valued, which the Bayesian-update recursion guarantees.
    """
    s = Session.of(model, pc, tree)
    cc = CommonCompression(horizon=model.horizon)
    for t in range(1, model.horizon + 1):
        for node in s.level(t).nodes:
            labels = s.labels(node)
            fp = compute_bcs(s.tree, node, label_of=lambda n, h: labels[n][h]).fingerprint
            cc.theta0[(t, node.seq)] = fp
    phi0, conflict = _update_table(_common_edges(s, cc))
    if conflict is not None:
        raise ValueError(
            "belief fingerprints do not evolve recursively; "
            f"conflict at {conflict[0]!r}"
        )
    cc.phi0 = phi0
    return cc


def _common_matrix(
    s: Session, nodes: list[FcsNode], with_laws: bool, tol_r: float, tol_o: float
) -> np.ndarray:
    """Compatibility of coordinator nodes: nodes with different private label
    domains never merge; within one domain group, the columns are the group's
    label prescriptions, each with its immediate reward and, when
    ``with_laws``, its next-common-observation law."""
    groups: dict = {}
    for i, node in enumerate(nodes):
        groups.setdefault(s.label_map(node)[0], []).append(i)
    ok = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for index in groups.values():
        profiles = [s.profiles(nodes[i]) for i in index]
        laws = np.stack([law for _r, law in profiles]) if with_laws else None
        # The cells add each |Δ_o| in ``_tv``'s order: no scalar rule is needed.
        ok[np.ix_(index, index)] = _compatibility(
            np.stack([r for r, _law in profiles]), laws, tol_r, tol_o)
    return ok


def build_common_greedy(
    model: DecPomdpModel,
    pc: PrivateCompression,
    tol_r: float = 0.0,
    tol_o: float = 0.0,
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
    s = Session.of(model, pc, tree)
    blocks = _Blocks(budget)
    cc = CommonCompression(horizon=model.horizon)
    for t in range(1, model.horizon + 1):
        nodes = s.level(t).nodes
        blocks.charge(("common block", t), len(nodes))
        admit = _common_matrix(s, nodes, t < model.horizon, tol_r, tol_o)
        cc.theta0.update(blocks.add([(t, node.seq) for node in nodes], admit))

    # Ends as the private repair in ``build_greedy`` does.
    while True:
        phi0, conflict = _update_table(_common_edges(s, cc))
        if conflict is None:
            cc.phi0 = phi0
            return cc
        cc.theta0.update(blocks.separate([conflict[1:]]))


# -- serialization ---------------------------------------------------------


def _dec(text: str):
    # Too deep a nesting overflows the parser's stack (MemoryError) or the
    # evaluator's recursion limit.
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError, RecursionError, MemoryError) as exc:
        raise CompressionFormatError(
            f"unparseable entry {text[:80]!r} ({len(text)} characters)"
        ) from exc
    hash(value)  # a key or a label must be hashable: a TypeError otherwise
    return value


def _table(entries) -> dict:
    """A serialized table: a list of ``[key, value]`` pairs, each key once."""
    table: dict = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise CompressionFormatError(f"entry {entry!r:.80} is not a [key, value] pair")
        key = _dec(entry[0])
        if key in table:
            raise CompressionFormatError(f"entry {entry!r:.80} repeats its key")
        table[key] = _dec(entry[1])
    return table


def serialize_compression(compression, measured: MeasuredParams | None = None) -> str:
    """Lossless structured-text form of a compression (JSON with literal keys)."""
    if isinstance(compression, PrivateCompression):
        doc = {
            "kind": "private",
            "num_agents": compression.num_agents,
            "horizon": compression.horizon,
            "theta": [[repr(k), repr(v)] for k, v in sorted(compression.theta.items(), key=repr)],
            "phi": [[repr(k), repr(v)] for k, v in sorted(compression.phi.items(), key=repr)],
        }
    elif isinstance(compression, CommonCompression):
        doc = {
            "kind": "common",
            "horizon": compression.horizon,
            "mu": REFERENCE_MEASURE,
            "theta0": [[repr(k), repr(v)] for k, v in sorted(compression.theta0.items(), key=repr)],
            "phi0": [[repr(k), repr(v)] for k, v in sorted(compression.phi0.items(), key=repr)],
        }
    else:
        raise TypeError(f"not a compression: {type(compression).__name__}")
    if measured is not None:
        doc["measured"] = {
            "eps_p": measured.eps_p,
            "delta_p": measured.delta_p,
            "eps_c": measured.eps_c,
            "delta_c": measured.delta_c,
            "witnesses": {k: repr(v) for k, v in sorted(measured.witnesses.items())},
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def load_compression(text: str):
    """Inverse of :func:`serialize_compression`; round-trips exactly."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CompressionFormatError(str(exc)) from exc
    except RecursionError:
        raise CompressionFormatError("compression document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise CompressionFormatError("compression document must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "private":
            pc = PrivateCompression(
                num_agents=_json_int(doc, "num_agents"), horizon=_json_int(doc, "horizon")
            )
            pc.theta, pc.phi = _table(doc["theta"]), _table(doc["phi"])
            return pc
        if kind == "common":
            measure = doc.get("mu", REFERENCE_MEASURE)
            if measure != REFERENCE_MEASURE:
                raise CompressionFormatError(f"unknown reference measure {measure!r}")
            cc = CommonCompression(horizon=_json_int(doc, "horizon"))
            cc.theta0, cc.phi0 = _table(doc["theta0"]), _table(doc["phi0"])
            return cc
    except KeyError as exc:
        raise CompressionFormatError(f"missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise CompressionFormatError(f"malformed field: {exc}") from exc
    raise CompressionFormatError(f"unknown compression kind {kind!r}")
