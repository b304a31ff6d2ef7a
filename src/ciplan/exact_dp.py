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
    Level,
    Prescription,
    UnreachableNodeError,
    _collector_paused,
    _columns_by_agent,
    enumerate_prescriptions,
    prescription_count,
    prescription_from_row,
)
from .model import DEFAULT_BUDGET, BudgetExceededError, DecPomdpModel

if TYPE_CHECKING:
    from .compression import Session


class InadmissibleHistoryError(ValueError):
    """A joint private history with zero conditional probability was supplied."""


@dataclass(slots=True)
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
    """The prescription spaces, immediate rewards and children of one
    :class:`~ciplan.histories.Level`'s nodes, as the backward sweep on
    ``tree`` reads them.

    Under ``pc`` a node's prescriptions range over its label domains and
    ``colmaps[i]`` maps each history column to its label column; otherwise
    the two spaces coincide.  Nodes are grouped by the shape of their
    domains, which fixes their action table, and by falling atom count within
    a shape, so the nodes with an atom of a given rank lead their block.  The
    prescription counts come from the shapes alone; no table is built and
    nothing is scored before the first :meth:`score` call.  Without ``pc`` the
    record keeps the layout and the rewards for the next sweep.  Once
    :meth:`link` has given the view below, :meth:`children` reads the record's
    edges by position; until then it expands the node with ``tree.expand``.
    """

    below: _Level | None = None
    chosen: list[Prescription] | None = None

    def __init__(self, tree: FcsTree, pc: Session | None, record: Level):
        self.tree, self.pc, self.record, self.nodes = tree, pc, record, record.nodes
        self.q, self.colmaps = None, None
        if pc is None:
            sizes, layout = record.atoms.sizes, record.layout
        else:
            self.domains, self.colmaps = zip(*map(pc.label_map, self.nodes))
            sizes, layout = np.array([[len(d) for d in domains] for domains in self.domains]), None
        if layout is None:
            # Nodes by shape, then by falling atom count, in node order within both.
            order = np.lexsort((-np.diff(record.atoms.start), *sizes.T[::-1]))
            ordered = sizes[order]
            new = np.ones(len(ordered), dtype=bool)
            new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
            shape_of = np.empty(len(ordered), dtype=np.intp)
            shape_of[order] = np.cumsum(new) - 1
            shapes = [tuple(shape) for shape in ordered[new].tolist()]
            counts = [prescription_count(tree.model, tuple(map(range, shape))) for shape in shapes]
            bounds, shape_of = np.append(np.flatnonzero(new), len(ordered)), shape_of.tolist()
            layout = order, bounds, shape_of, shapes, [counts[g] for g in shape_of]
            if pc is None:
                record.layout = layout
        self.order, self.bounds, self.shape_of, self.shapes, self.counts = layout
        if pc is None and record.rewards is not None:
            self.q, self.best, self.members, self.block, self.row = record.rewards
            self.chosen = record.chosen

    def table(self, i: int) -> np.ndarray:
        """The action table of node ``i``'s shape, which scoring the node, or
        a node its value entry shares a key with, has built."""
        return self.tree._tables[self.shapes[self.shape_of[i]]]

    def score(self) -> None:
        """Immediate rewards ``Σ w · R[s, γ_k(h)]`` of every node and row.

        ``contrib[c, k]`` is what column ``c`` of row ``k`` adds to the flat
        joint-action index.  Within a block of nodes sharing a shape the atoms
        are added one rank at a time, each node's in stored order, to the
        leading rows whose nodes have an atom of that rank, so every entry is
        the scalar sum ``q += w * r`` bit for bit.  Without a compression the
        rewards depend on the tree alone, so the record keeps them for the
        next sweep.
        """
        reward = self.tree.model.reward.ravel()
        num_joint = self.tree.model.reward.shape[1]
        atoms, order, bounds = self.record.atoms, self.order, self.bounds
        columns = atoms.columns(self.colmaps)
        block_of = np.empty(len(order), dtype=np.intp)
        row_of = np.empty(len(order), dtype=np.intp)
        self.q, self.best, self.members = [], [], []
        for g, shape in enumerate(self.shapes):
            contrib = self.tree._contrib(shape)
            width = contrib.shape[1]
            step = max(1, _REWARD_CELLS // width)
            for lo in range(bounds[g], bounds[g + 1], step):
                block = order[lo:min(lo + step, bounds[g + 1])]
                block_of[block] = len(self.q)
                row_of[block] = np.arange(len(block))
                first = atoms.start[block]
                count = atoms.start[block + 1] - first
                q = np.zeros((len(block), width))
                for rank in range(int(count[0])):
                    n = int(np.count_nonzero(count > rank))
                    atom = first[:n] + rank
                    cols = columns[atom]
                    joint = contrib[cols[:, 0]]
                    for agent in range(1, cols.shape[1]):
                        joint += contrib[cols[:, agent]]
                    joint += (atoms.state[atom] * num_joint)[:, None]
                    r = reward[joint]
                    r *= atoms.weight[atom][:, None]
                    q[:n] += r
                self.q.append(q)
                self.best.append(np.argmax(q, axis=1).tolist())
                self.members.append(block)
        self.block, self.row = block_of.tolist(), row_of.tolist()
        if self.pc is None:
            self.record.rewards = (self.q, self.best, self.members, self.block, self.row)

    def rewards(self, i: int) -> list[float]:
        if self.q is None:
            self.score()
        return self.q[self.block[i]][self.row[i]].tolist()

    def best_row(self, i: int) -> int:
        if self.q is None:
            self.score()
        return self.best[self.block[i]][self.row[i]]

    def link(self, below: _Level) -> None:
        """Read each row's children off the record's edges, as positions in
        ``below``, the view of the level the record's edges reach."""
        self.below = below

    def children(self, i: int, k: int):
        """``(level, position, P(o0))`` of each child of node ``i`` under row
        ``k``, in ``o0`` order; a child no level holds is prepared alone."""
        if self.below is None:
            expand = self.tree.expand(self.nodes[i], self.gamma(i, k))
            return [(_Alone(self.tree, self.pc, child), 0, p) for _o0, child, p in expand]
        span = self.record.children(i, k)
        return zip(itertools.repeat(self.below), span, self.record.mass[span.start:span.stop])

    def gamma(self, i: int, k: int) -> Prescription:
        """The history-domain prescription of row ``k`` at node ``i``; a
        linked level reads the one its record was expanded under, a level
        whose record kept its chosen prescriptions reads those."""
        if self.below is not None:
            return self.record.gammas[i][k]
        if self.chosen is not None and k == self.best_row(i):
            return self.chosen[i]
        row = self.table(i)[k]
        if self.colmaps is not None:
            row = row[self.colmaps[i]]
        return self.tree._prescription(self.nodes[i].agent_domains, row)

    def lam(self, i: int, k: int) -> Prescription:
        """The label prescription of row ``k`` at node ``i``."""
        return prescription_from_row(self.domains[i], self.table(i)[k])


class _Alone(_Level):
    """One node prepared by itself, as the sweep meets it below the levels
    the forward pass prepared; its rewards are added atom by atom, the
    scalar sum ``q += w * r`` again."""

    def __init__(self, tree: FcsTree, pc: Session | None, node: FcsNode):
        self.tree, self.pc, self.nodes, self.q = tree, pc, [node], None
        hist_domains = node.agent_domains
        if pc is None:
            domains, self.colmaps = hist_domains, None
            cols = range(sum(map(len, hist_domains)))
        else:
            domains, colmap = pc.label_map(node)
            self.colmaps, cols = [colmap], colmap.tolist()
        self.columns, self.domains = _columns_by_agent(hist_domains, cols), [domains]
        self.shapes, self.shape_of = [tuple(map(len, domains))], [0]
        self.counts = [prescription_count(tree.model, domains)]

    def score(self) -> None:
        reward = self.tree.model.reward
        contrib = self.tree._contrib(self.shapes[0])
        q = np.zeros(contrib.shape[1])
        for (s, hjoint), w in self.nodes[0].weights:
            joint = contrib[[self.columns[n][h] for n, h in enumerate(hjoint)]].sum(axis=0)
            q += w * reward[s][joint]
        self.q, self.best = [q[None]], [[int(np.argmax(q))]]
        self.block = self.row = [0]


def generic_solve(
    model: DecPomdpModel,
    tree: FcsTree | None = None,
    *,
    pc: Session | None = None,
    key_fn=None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward sweep shared by the exact and compressed dynamic programs.

    A forward pass first prepares whole depths from the roots down, each a
    view of one :class:`~ciplan.histories.Level` with the rewards of its
    rows, linked to the next: ``tree.full_level(t)``, or ``pc.level(t)``,
    the subtree the label prescriptions reach.  The pass stops at the first
    depth whose cumulative prescription count passes ``budget``, or that the
    source does not hold yet and whose expansion would take more than
    ``_BATCH_ENTRIES`` entries; a ``key_fn`` lets the sweep skip the subtrees
    below a solved key, so it prepares only the levels the source already
    holds.  A pass that reached the leaves is followed by :func:`_sweep_levels`,
    one depth at a time, unless a keyed sweep would visit other nodes there.
    Otherwise :func:`_sweep_depth_first` visits ``(level, position)`` pairs,
    expanding each node alone below the last prepared depth.  The first node
    to reach a key fills its entry; ties go to the smallest canonical index.
    The cyclic collector is paused: the sweep makes no reference cycle.

    Parameters
    ----------
    pc
        ``compression.Session`` for the private compression whose label
        domains the prescriptions range over.
        Value entries record the label prescription; the policy records its
        extension to the node's histories, which also drives the dynamics.
        Defaults to the uncompressed space where the two coincide.
    key_fn
        Callable giving the hashable keys of a list of nodes of one depth,
        keying value entries per time step; defaults to the node sequences.
        A node whose key is already solved takes that entry's value and
        canonical index, and the nodes below it under that prescription are
        visited too, so the policy covers every node it reaches.
    """
    tree = tree or FcsTree(model)
    with _collector_paused():
        level_at, held = (tree.full_level, tree._levels) if pc is None else (pc.level, pc._levels)
        levels: list[_Level] = []
        spent = 0
        for t in range(1, (model.horizon if key_fn is None else len(held)) + 1):
            if t > 1 and t > len(held):
                above = levels[-1]
                sizes = np.diff(above.record.atoms.start).tolist()
                if sum(c * n for c, n in zip(above.counts, sizes)) > _BATCH_ENTRIES:
                    break
            below = _Level(tree, pc, level_at(t))
            spent += sum(below.counts)
            if spent > budget:
                break
            if levels:
                levels[-1].link(below)
            levels.append(below)
        # Down to the leaves, every evaluation is charged: ``spent`` fits the budget.
        solved = len(levels) == model.horizon and _sweep_levels(model, tree, pc, levels, key_fn)
        return solved or _sweep_depth_first(
            model, tree, pc, key_fn, levels[0] if levels else None, budget)


def _sweep_levels(
    model: DecPomdpModel, tree: FcsTree, pc: Session | None, levels: list[_Level], key_fn
) -> tuple[ValueTable, CoordinatorPolicy] | None:
    """The depth-first pass's entries and policy, keyed ones in its order of writes,
    one depth at a time over linked levels that reach the leaves.  From the leaves
    up, each row adds its children's ``p * v`` in ``o0`` order one child rank at a
    time, as that pass does; a node takes its first maximum, or the value of the
    first node of its depth holding its key.  From the roots down, a visited node
    first holding its key visits the children of every row, any other those of its
    entry's row (:func:`_writes`); ``None`` if that pass would visit other nodes."""
    solved = []  # per depth, from the leaves up: rows, each entry's row, each key's first node
    values = None  # the depth below's values, by position
    for level in reversed(levels):
        if level.q is None:
            level.score()
        rows, best = level.q, level.best
        if values is not None:
            record = level.record
            first = np.array(record.first)
            term = np.multiply(record.mass, values)
            pair0 = np.cumsum(level.counts) - level.counts
            rows, best = [], []
            for q, members in zip(level.q, level.members):
                pairs = pair0[members][:, None] + np.arange(q.shape[1])
                start = first[pairs]
                count = first[pairs + 1] - start
                q = q.copy()
                for rank in range(int(count.max())):
                    sel = count > rank
                    q[sel] += term[start[sel] + rank]
                rows.append(q)
                best.append(np.argmax(q, axis=1))
        values, node_best = np.empty(len(level.order)), np.empty(len(level.order), dtype=np.intp)
        values[level.order] = np.concatenate([q.max(axis=1) for q in rows])
        node_best[level.order] = np.concatenate(best)
        owner = keys = None
        if key_fn is not None:
            held, keys = {}, key_fn(level.nodes)
            owner = np.array([held.setdefault(key, i) for i, key in enumerate(keys)], dtype=np.intp)
            values, node_best = values[owner], node_best[owner]
        solved.append((rows, node_best, owner, keys))
    writes = _writes(levels, solved[::-1])
    if writes is None:
        return None
    at = [(level, level.nodes, level.gamma, level.block, level.row, rows, best.tolist(), keys)
          for level, (rows, best, _owner, keys) in zip(levels, reversed(solved))]
    del solved  # its owner and best arrays, before the dicts are filled
    table, policy = ValueTable(horizon=model.horizon), CoordinatorPolicy()
    for lo in range(0, len(writes[0]), 1024):  # few Python ints at a time
        for d, i, fill in zip(*(column[lo:lo + 1024].tolist() for column in writes)):
            level, nodes, gamma_at, block, row, rows, best, keys = at[d]
            node, k = nodes[i], best[i]
            policy.prescriptions[node.seq] = gamma = gamma_at(i, k)
            if fill:
                q = rows[block[i]][row[i]].tolist()
                lam = gamma if pc is None else level.lam(i, k)
                table.entries[(node.t, node.seq if keys is None else keys[i])] = ValueEntry(
                    q[k], k, lam.key, tuple(q))
    if key_fn is None and pc is None:
        levels[-1].record.chosen = list(policy.prescriptions.values())[-len(levels[-1].nodes):]
    for (_o0, _root, p_root), v in zip(tree.roots(), values.tolist()):
        table.overall_value += p_root * v
    return table, policy


def _writes(levels: list[_Level], solved: list) -> list[np.ndarray] | None:
    """Depth, position and whether it fills its entry of each node the depth-first
    pass visits, keyed ones in its order of writes: by ancestors' and own positions,
    then -1 if a node writes before its children, else past them all.  ``None`` if
    a visited node's key is first held by one not visited; see :func:`_sweep_levels`."""
    visit, past = np.ones(len(levels[0].nodes), dtype=bool), np.iinfo(np.int32).max
    paths = np.arange(len(visit), dtype=np.int32)[:, None]
    marks, events = [], []  # per depth, the visited nodes and which of them fill an entry
    for d, (level, (_rows, best, owner, keys)) in enumerate(zip(levels, solved)):
        if keys is None:  # every node is visited and fills its own entry
            spots, fills = np.arange(len(best)), np.ones(len(best), dtype=bool)
        else:
            if not visit[owner[visit]].all():
                return None
            fills = visit & (owner == np.arange(len(owner)))
            spots = np.flatnonzero(visit)
            pad = np.where(fills[spots], past, np.int32(-1))[:, None]
            events.append(np.hstack([paths[spots], np.repeat(pad, len(levels) - d - 1, axis=1)]))
        marks.append((spots, fills[spots]))
        if keys is None or level.below is None:
            continue
        spread = np.diff(level.record.first)
        on = np.repeat(fills, level.counts)
        hits = np.flatnonzero(visit & ~fills)
        on[(np.cumsum(level.counts) - level.counts)[hits] + best[hits]] = True
        visit = np.repeat(on, spread)
        parent = np.repeat(np.repeat(np.arange(len(fills)), level.counts), spread)
        paths = np.hstack([paths[parent], np.arange(len(visit), dtype=np.int32)[:, None]])
    depths = np.repeat(np.arange(len(levels)), [len(spots) for spots, _fill in marks])
    order = np.lexsort(np.vstack(events).T[::-1]) if events else slice(None)
    return [column[order] for column in (depths, *map(np.concatenate, zip(*marks)))]


def _sweep_depth_first(
    model: DecPomdpModel,
    tree: FcsTree,
    pc: Session | None,
    key_fn,
    top: _Level | None,
    budget: int,
) -> tuple[ValueTable, CoordinatorPolicy]:
    """The backward pass from the roots down, node by node, below ``top``,
    the linked levels the forward pass prepared."""
    by_seq = key_fn is None
    if by_seq:
        key_fn = lambda nodes: [node.seq for node in nodes]
    table = ValueTable(horizon=model.horizon)
    policy = CoordinatorPolicy()
    evals = 0

    def solve(level: _Level, i: int) -> float:
        nonlocal evals
        node = level.nodes[i]
        key = (node.t, key_fn([node])[0])
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
            overall += p_root * (solve(top, j) if top else solve(_Alone(tree, pc, root), 0))
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

    Computed by exact forward trajectory enumeration over node sequences;
    rejects a node ``tree`` did not make, joint histories that are
    inadmissible at ``node`` and a reached node the policy lacks.
    """
    if node.atoms is None or node.atoms[0] is not tree._tag[0]:
        raise UnreachableNodeError(f"node {node.seq!r} was not produced by this tree")
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
    return _supervisor_recurse(model, node.t, node.seq, hjoint, sdist, gamma, policy)


def _supervisor_recurse(model, t, seq, hjoint, sdist, gamma, policy) -> float:
    a = gamma.act(hjoint)
    a_idx = model.joint_action_index(a)
    total = sum(w * float(model.reward[s, a_idx]) for s, w in sorted(sdist.items()))
    if t >= model.horizon:
        return total
    branches: dict[tuple[int, tuple[int, ...]], dict[int, float]] = {}
    for s, w in sorted(sdist.items()):
        for s_next, obs, p in model.step(s, a_idx, w):
            acc = branches.setdefault((obs.common, obs.private), {})
            acc[s_next] = acc.get(s_next, 0.0) + p
    for (o0, opriv), srow in sorted(branches.items()):
        p_branch = sum(srow.values())
        child = seq + (gamma.key, o0)
        if child not in policy.prescriptions:
            raise UnreachableNodeError(f"node {child!r} is not in the policy")
        h_next = tuple(h + (an, on) for h, an, on in zip(hjoint, a, opriv))
        sdist_next = {s: w / p_branch for s, w in srow.items()}
        total += p_branch * _supervisor_recurse(
            model, t + 1, child, h_next, sdist_next, policy.at(child), policy
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


class _TrajectoryCache:
    """Unnormalized (state, joint history) items per coordinator sequence,
    built from the raw model tensors only, plus per-(sequence, prescription)
    expected-reward contributions.  Shared across enumerated policies.  A
    sequence's items grow from its parent's in the order ``items`` holds them."""

    def __init__(self, model: DecPomdpModel):
        self.model = model
        self.items: dict[FcsKey, dict] = {}
        self.contrib: dict[tuple, float] = {}

    def _arrivals(self, seq: FcsKey):
        """``(s, p, prefixes)`` before the observation that ends ``seq``: the
        initial law at a root, else each parent item's step under the
        prescription of ``seq``, its histories extended by the action."""
        m = self.model
        if len(seq) == 1:
            for s in range(m.num_states):
                yield s, float(m.initial[s]), ((),) * m.num_agents
            return
        gamma = Prescription(seq[-2])
        for (s, hjoint), p in self.items_at(seq[:-2]).items():
            a = gamma.act(hjoint)
            a_idx = m.joint_action_index(a)
            prefixes = tuple(h + (an,) for h, an in zip(hjoint, a))
            for s_next in range(m.num_states):
                yield s_next, p * float(m.transition[s, a_idx, s_next]), prefixes

    def items_at(self, seq: FcsKey) -> dict:
        if seq in self.items:
            return self.items[seq]
        m = self.model
        observed = [(obs.private, m.joint_obs_index(obs.common, obs.private))
                    for obs in m.iter_joint_obs() if obs.common == seq[-1]]
        out: dict = {}
        for s, p, prefixes in self._arrivals(seq):
            if p <= ADMISSIBILITY_THRESHOLD:
                continue
            for private, j in observed:
                p2 = p * float(m.observation[s, j])
                if p2 > ADMISSIBILITY_THRESHOLD:
                    key = (s, tuple(h + (o,) for h, o in zip(prefixes, private)))
                    out[key] = out.get(key, 0.0) + p2
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
    """Expected cumulative reward of replaying a fixed policy, read depth by
    depth off the brute-force oracle's trajectory table: per root, in ``o0``
    order, each depth's items sorted by ``(seq, s, h)``."""
    cache = _TrajectoryCache(model)
    common = range(len(model.common_obs))
    total = 0.0
    for o0 in common:
        seqs, value = [(o0,)], 0.0
        for _t in range(model.horizon):
            seqs = sorted(seq for seq in seqs if cache.items_at(seq))
            for seq in seqs:
                # Stored sorted, so that the children's masses add up in this
                # order too.
                cache.items[seq] = items = dict(sorted(cache.items_at(seq).items()))
                gamma = policy.at(seq)
                for (s, hjoint), p in items.items():
                    a_idx = model.joint_action_index(gamma.act(hjoint))
                    value += p * float(model.reward[s, a_idx])
            seqs = [seq + (policy.at(seq).key, o) for seq in seqs for o in common]
        total += value
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
