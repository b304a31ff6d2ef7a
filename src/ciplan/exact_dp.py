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
    Atoms,
    FcsKey,
    FcsNode,
    FcsTree,
    JointHist,
    Prescription,
    _columns_by_agent,
    enumerate_prescriptions,
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


@dataclass
class CoordinatorPolicy:
    """Map from coordinator history to the prescription chosen there.

    Prescriptions are stored in history-domain form (compressed solves store
    the extension), so the policy can always be replayed on the real tree.
    """

    prescriptions: dict[FcsKey, Prescription] = field(default_factory=dict)

    def at(self, seq: FcsKey) -> Prescription:
        return self.prescriptions[seq]


#: Cells of the ``(nodes, prescriptions)`` reward block scored at once.
_REWARD_CELLS = 1 << 18
#: Largest ``(node, row, atom)`` expansion the forward pass makes at once.
_BATCH_ENTRIES = 1 << 16


class _Level:
    """The prescription spaces, immediate rewards and children of a list of
    nodes at one depth, as the backward sweep reads them.

    Under ``pc`` a node's prescriptions range over its label domains and
    ``colmaps[i]`` maps each history column to its label column; otherwise
    the two spaces coincide.  ``columns[j]`` holds atom ``j``'s columns in
    its node's action rows, and nodes are grouped by the shape of their
    domains, which fixes their action table.  The prescription counts come
    from the shapes alone; no table is built and nothing is scored before
    the first :meth:`rewards` call.  Once :meth:`link` has given the level
    its edges to the prepared level ``below``, :meth:`children` reads them
    by position; until then it asks the tree's expansion cache.
    """

    below: _Level | None = None

    def __init__(self, solver: _Solver, nodes: list[FcsNode], atoms: Atoms):
        pc = solver.pc
        self.solver, self.nodes, self.atoms = solver, nodes, atoms
        self.hist_domains = [node.agent_domains for node in nodes]
        if pc is None:
            self.domains = self.hist_domains
            self.colmaps = None
            self.columns = atoms.columns()
            sizes = atoms.sizes
        else:
            maps = [pc.label_map(node) for node in nodes]
            self.domains = [domains for domains, _colmap in maps]
            self.colmaps = [colmap for _domains, colmap in maps]
            widths = np.array([len(colmap) for colmap in self.colmaps], dtype=np.intp)
            base = (np.cumsum(widths) - widths)[atoms.node_index()]
            self.columns = np.concatenate(self.colmaps)[base[:, None] + atoms.columns()]
            sizes = np.array([[len(d) for d in domains] for domains in self.domains])
        # Nodes by shape, in node order within a shape.
        self.order = np.lexsort(sizes.T[::-1])
        ordered = sizes[self.order]
        new = np.ones(len(ordered), dtype=bool)
        new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        self.bounds = np.append(np.flatnonzero(new), len(ordered))
        shape_of = np.empty(len(ordered), dtype=np.intp)
        shape_of[self.order] = np.cumsum(new) - 1
        self.shape_of = shape_of.tolist()
        self.shapes = [tuple(shape) for shape in ordered[new].tolist()]
        counts = [solver.count(shape) for shape in self.shapes]
        self.counts = [counts[g] for g in self.shape_of]
        self.q = None

    def table(self, i: int) -> np.ndarray:
        return self.solver.tree._action_rows(self.shapes[self.shape_of[i]])

    def score(self) -> None:
        """Immediate rewards ``Σ w · R[s, γ_k(h)]`` of every node and row.

        ``contrib[c, k]`` is what column ``c`` of row ``k`` adds to the flat
        joint-action index.  Within a block of nodes sharing a shape the atoms
        are added one rank at a time, each node's in stored order, so every
        entry is the scalar sum ``q += w * r`` bit for bit.
        """
        solver = self.solver
        reward = solver.model.reward.ravel()
        num_joint = solver.model.reward.shape[1]
        atoms, columns, order, bounds = self.atoms, self.columns, self.order, self.bounds
        block_of = np.empty(len(order), dtype=np.intp)
        row_of = np.empty(len(order), dtype=np.intp)
        self.q, self.best = [], []
        for g, shape in enumerate(self.shapes):
            contrib = solver.contrib(shape)
            width = contrib.shape[1]
            step = max(1, _REWARD_CELLS // width)
            for lo in range(bounds[g], bounds[g + 1], step):
                block = order[lo:min(lo + step, bounds[g + 1])]
                block_of[block] = len(self.q)
                row_of[block] = np.arange(len(block))
                first = atoms.start[block]
                count = atoms.start[block + 1] - first
                q = np.zeros((len(block), width))
                for rank in range(int(count.max())):
                    sel = np.flatnonzero(count > rank)
                    atom = first[sel] + rank
                    joint = contrib[columns[atom]].sum(axis=1)
                    joint += (atoms.state[atom] * num_joint)[:, None]
                    r = reward[joint]
                    r *= atoms.weight[atom][:, None]
                    q[sel] += r
                self.q.append(q)
                self.best.append(np.argmax(q, axis=1).tolist())
        self.block, self.row = block_of.tolist(), row_of.tolist()

    def rewards(self, i: int) -> list[float]:
        if self.q is None:
            self.score()
        return self.q[self.block[i]][self.row[i]].tolist()

    def best_row(self, i: int) -> int:
        if self.q is None:
            self.score()
        return self.best[self.block[i]][self.row[i]]

    def link(self, below: _Level, gammas: list[list[Prescription]], first: list[int],
             mass: list[float]) -> None:
        """Row ``k`` of node ``i`` is ``gammas[i][k]``, and its children are
        the nodes ``first[pair]:first[pair + 1]`` of ``below``, with the
        masses ``mass[c]``, ``pair`` counting the rows node by node."""
        self.below, self.kept, self.first, self.mass = below, gammas, first, mass
        self.pair0 = np.cumsum([0, *self.counts]).tolist()

    def children(self, i: int, k: int):
        """``(level, position, P(o0))`` of each child of node ``i`` under row
        ``k``, in ``o0`` order; a child no level holds is prepared alone."""
        if self.below is None:
            expand = self.solver.tree.expand(self.nodes[i], self.gamma(i, k))
            return [(_Alone(self.solver, child), 0, p) for _o0, child, p in expand]
        pair = self.pair0[i] + k
        lo, hi = self.first[pair], self.first[pair + 1]
        return zip(itertools.repeat(self.below), range(lo, hi), self.mass[lo:hi])

    def gamma(self, i: int, k: int) -> Prescription:
        """The history-domain prescription of row ``k`` at node ``i``; a
        linked level reads the one the forward pass expanded it under."""
        if self.below is not None:
            return self.kept[i][k]
        row = self.table(i)[k]
        if self.colmaps is not None:
            row = row[self.colmaps[i]]
        return self.solver.tree._prescription(self.hist_domains[i], row)

    def gammas(self, i: int) -> list[Prescription]:
        rows = self.table(i) if self.colmaps is None else self.table(i)[:, self.colmaps[i]]
        tree, domains = self.solver.tree, self.hist_domains[i]
        return [tree._prescription(domains, row) for row in rows]

    def lam(self, i: int, k: int) -> Prescription:
        """The label prescription of row ``k`` at node ``i``."""
        return prescription_from_row(self.domains[i], self.table(i)[k])


class _Alone(_Level):
    """One node prepared by itself, as the sweep meets it below the levels
    the forward pass prepared; its rewards are added atom by atom, the
    scalar sum ``q += w * r`` again."""

    def __init__(self, solver: _Solver, node: FcsNode):
        self.solver, self.nodes, self.q = solver, [node], None
        hist_domains = node.agent_domains
        if solver.pc is None:
            domains, self.colmaps = hist_domains, None
            cols = range(sum(map(len, hist_domains)))
        else:
            domains, colmap = solver.pc.label_map(node)
            self.colmaps, cols = [colmap], colmap.tolist()
        self.columns = _columns_by_agent(hist_domains, cols)
        self.hist_domains, self.domains = [hist_domains], [domains]
        self.shapes, self.shape_of = [tuple(map(len, domains))], [0]
        self.counts = [solver.count(self.shapes[0])]

    def score(self) -> None:
        reward = self.solver.model.reward
        contrib = self.solver.contrib(self.shapes[0])
        q = np.zeros(contrib.shape[1])
        for (s, hjoint), w in self.nodes[0].weights:
            joint = contrib[[self.columns[n][h] for n, h in enumerate(hjoint)]].sum(axis=0)
            q += w * reward[s][joint]
        self.q, self.best = [q[None]], [[int(np.argmax(q))]]
        self.block = self.row = [0]


class _Solver:
    """Per-sweep caches: joint-action contributions and prescription counts
    per domain shape."""

    def __init__(self, model: DecPomdpModel, tree: FcsTree, pc: PrivateCompression | None):
        self.model, self.tree, self.pc = model, tree, pc
        self.strides = [stride for _size, stride in model._action_strides]
        self._contribs: dict[tuple[int, ...], np.ndarray] = {}
        self._counts: dict[tuple[int, ...], int] = {}

    def contrib(self, shape: tuple[int, ...]) -> np.ndarray:
        if shape not in self._contribs:
            acts = self.tree._action_rows(shape)
            self._contribs[shape] = (acts * np.repeat(self.strides, shape)).T
        return self._contribs[shape]

    def count(self, shape: tuple[int, ...]) -> int:
        if shape not in self._counts:
            self._counts[shape] = prescription_count(self.model, tuple(map(range, shape)))
        return self._counts[shape]

    def forward(self, budget: int, depth: int) -> _Level | None:
        """Prepare levels ``1 .. depth`` whole, from the roots down, each
        linked to the next, and return the first.

        The pass stops at the first level whose cumulative prescription count
        passes ``budget``, or whose expansion from the level above would take
        more than ``_BATCH_ENTRIES`` entries; the sweep prepares the nodes
        below one at a time, as it meets them.
        """
        tree, pc = self.tree, self.pc
        top = level = None
        spent = 0
        for t in range(1, depth + 1):
            if t > 1 and (pc is not None or t > len(tree._levels)):
                sizes = np.diff(atoms.start).tolist()
                if sum(c * n for c, n in zip(level.counts, sizes)) > _BATCH_ENTRIES:
                    break
            if pc is None:
                nodes, atoms, *edges = tree.full_level(t)
            elif t == 1:
                nodes = [node for _o0, node, _p in tree.roots()]
                atoms = Atoms.of(nodes)
            else:
                tables = [level.table(i) for i in range(len(nodes))]
                gammas = [level.gammas(i) for i in range(len(nodes))]
                nodes, atoms, first, mass = tree.expand_rows(
                    nodes, atoms, level.columns, tables, gammas)
                edges = gammas, first, mass
            below = _Level(self, nodes, atoms)
            spent += sum(below.counts)
            if spent > budget:
                break
            if level is None:
                top = below
            else:
                level.link(below, *edges)
            level = below
        return top


def generic_solve(
    model: DecPomdpModel,
    tree: FcsTree | None = None,
    *,
    pc: PrivateCompression | None = None,
    key_fn=None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward sweep shared by the exact and compressed dynamic programs.

    A forward pass first prepares whole depths: the tree's full levels (or,
    under ``pc``, the subtree the label prescriptions reach), each with the
    rewards of its rows and its edges to the next, as ``expand_rows`` gave
    them.  The depth-first sweep then visits ``(level, position)`` pairs and
    reads a row's children as a range of positions below, so the first node
    to reach a key fills its entry.  Ties go to the smallest canonical index.
    A ``key_fn`` lets the sweep skip the subtrees below a solved key, so the
    pass then prepares only the full levels the tree already holds; below
    them the children come from ``tree.expand``, each node prepared alone.

    Parameters
    ----------
    pc
        Private compression (or a session for one) whose label domains the
        prescriptions range over.
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
    by_seq = key_fn is None
    if by_seq:
        key_fn = lambda node: node.seq
    solver = _Solver(model, tree, pc)
    depth = model.horizon if by_seq else len(tree._levels) if pc is None else 0
    top = solver.forward(budget, depth)
    table = ValueTable(horizon=model.horizon)
    policy = CoordinatorPolicy()
    evals = 0

    def solve(level: _Level, i: int) -> float:
        nonlocal evals
        node = level.nodes[i]
        key = (node.t, key_fn(node))
        # A node sequence is met once, so only a ``key_fn`` can find an entry.
        entry = None if by_seq else table.entries.get(key)
        if entry is not None:
            best = entry.argmax_index
            policy.prescriptions.setdefault(node.seq, level.gamma(i, best))
            if node.t < model.horizon:
                for child, c, _p in level.children(i, best):
                    solve(child, c)
            return entry.value
        evals += level.counts[i]
        if evals > budget:
            raise BudgetExceededError(node.seq, budget)
        q = level.rewards(i)
        if node.t < model.horizon:
            for k in range(len(q)):
                total = q[k]
                for child, c, p in level.children(i, k):
                    total += p * solve(child, c)
                q[k] = total
            best = q.index(max(q))
        else:
            best = level.best_row(i)
        gamma = level.gamma(i, best)
        lam = gamma if pc is None else level.lam(i, best)
        table.entries[key] = ValueEntry(
            value=q[best],
            argmax_index=best,
            argmax_key=lam.key,
            q_values=tuple(q),
        )
        policy.prescriptions.setdefault(node.seq, gamma)
        return q[best]

    overall = 0.0
    try:
        for j, (_o0, root, p_root) in enumerate(tree.roots()):
            overall += p_root * (solve(top, j) if top else solve(_Alone(solver, root), 0))
    finally:
        # ``solve`` reaches itself through its closure cell; emptying the cell
        # lets the tree and tables go by reference counting instead of
        # waiting for a cyclic collection.
        del solve
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
    prescs = enumerate_prescriptions(model, node.agent_domains)
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
    prescs = enumerate_prescriptions(model, node.agent_domains)
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
