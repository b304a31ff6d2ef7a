"""Coordinator history tree: common-state nodes, admissible private histories,
and prescription enumeration.

A coordinator node at time ``t`` is identified by the interleaved sequence
``(o0_1, gamma_1, o0_2, ..., o0_t)`` of common observations and past
prescriptions.  Each node caches the exact conditional distribution over
``(state, joint private history)`` pairs given that sequence, computed by
forward enumeration from the initial distribution.  Everything downstream
(the dynamic programs, belief states, compression measurement) reads off
this one distribution.

Private histories are obs-first interleaved tuples ``(o_1, a_1, o_2, ...,
o_t)`` of per-agent indices.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ADMISSIBILITY_THRESHOLD, DecPomdpModel

# A private history for one agent: (o1, a1, o2, ..., ot).
Hist = tuple[int, ...]
# One private history per agent.
JointHist = tuple[Hist, ...]
# Interleaved (o0, prescription key, o0, ...) sequence identifying a node.
FcsKey = tuple


class UnreachableNodeError(ValueError):
    """Raised when an operation is asked about a node this tree never produced,
    or a policy does not cover."""


class PrescriptionDomainError(ValueError):
    """Raised when a prescription's domain does not match a node's reachable set."""


@dataclass(frozen=True, slots=True)
class Prescription:
    """A per-agent table from private-state keys to action indices.

    ``entries[n]`` is a tuple of ``(key, action)`` pairs sorted by key; keys
    are private histories for the uncompressed dynamic program and labels for
    the compressed ones.  The tuple-of-tuples form doubles as the hashable
    canonical identity used inside coordinator sequences.
    """

    entries: tuple[tuple[tuple[object, int], ...], ...]

    @property
    def key(self):
        return self.entries

    def action_for(self, agent: int, key) -> int:
        for k, a in self.entries[agent]:
            if k == key:
                return a
        raise PrescriptionDomainError(
            f"key {key!r} not in agent {agent}'s prescription domain"
        )

    def act(self, keys: tuple) -> tuple[int, ...]:
        """Joint action for one per-agent key tuple."""
        return tuple(self.action_for(n, k) for n, k in enumerate(keys))


@dataclass(frozen=True)
class FpsTuple:
    """An admissible joint private history with its conditional probabilities."""

    histories: JointHist
    probability: float
    # P(s, histories | node), one entry per state in index order.
    state_probabilities: tuple[float, ...]


class FcsNode:
    """One coordinator history, not to be changed once made.  ``weights``, its
    sorted ``((s, joint history), probability)`` atoms given ``seq``, are given
    to a root or a node :meth:`FcsTree.expand` made.  A level-built node reads
    them on first use off ``atoms``: its tree's tag, where each node of its
    level starts, and the level's atom keys and weights as shared lists; its
    own run is node ``index``'s."""

    __slots__ = ("t", "seq", "agent_domains", "_weights", "atoms", "index")

    def __init__(self, t: int, seq: FcsKey, weights, domains=None, atoms=None, index=0):
        if domains is None:  # each agent's sorted reachable private histories
            per_agent = zip(*(hjoint for (_s, hjoint), _w in weights))
            domains = tuple(tuple(sorted(set(hists))) for hists in per_agent)
        self.t, self.seq, self.agent_domains, self._weights = t, seq, domains, weights
        self.atoms, self.index = atoms, index

    def _atom_keys(self) -> tuple:
        """The ``(s, joint history)`` keys and the weights of the atoms, in order."""
        if self._weights is not None:
            return [k for k, _w in self._weights], [w for _k, w in self._weights]
        _owner, start, keys, weight = self.atoms
        lo, hi = start[self.index], start[self.index + 1]
        return keys[lo:hi], weight[lo:hi]

    @property
    def weights(self) -> tuple[tuple[tuple[int, JointHist], float], ...]:
        if self._weights is None:
            self._weights = tuple(zip(*self._atom_keys()))
        return self._weights


def _sorted_weights(raw: dict) -> tuple:
    return tuple(sorted(raw.items()))


def _successor_weights(
    model: DecPomdpModel, weights, gamma: Prescription
) -> dict[int, dict]:
    """Unnormalized ``(s', joint history)`` weights per next common observation.

    ``weights`` holds ``((s, joint key), w)`` atoms; each agent's key grows by
    its prescribed action and its new private observation.
    """
    per_o0: dict[int, dict] = {}
    for (s, hjoint), w in weights:
        a = gamma.act(hjoint)
        for s_next, obs, p in model.step(s, model.joint_action_index(a), w):
            h_next = tuple(h + (an, on) for h, an, on in zip(hjoint, a, obs.private))
            acc = per_o0.setdefault(obs.common, {})
            acc[(s_next, h_next)] = acc.get((s_next, h_next), 0.0) + p
    return per_o0


@dataclass(frozen=True)
class Atoms:
    """The ``((s, joint history), w)`` atoms of a list of nodes as columns.

    The atoms of node ``i`` are rows ``start[i]:start[i + 1]``, in the order
    ``node.weights`` stores them.  ``hist[j, n]`` is the position of atom
    ``j``'s agent-``n`` history in its node's agent domain, and ``sizes[i]``
    holds node ``i``'s agent domain sizes.
    """

    start: np.ndarray
    state: np.ndarray
    weight: np.ndarray
    hist: np.ndarray
    sizes: np.ndarray

    @classmethod
    def of(cls, nodes) -> Atoms:
        start, state, weight, hist, sizes = [0], [], [], [], []
        for node in nodes:
            domains = node.agent_domains
            position = [{h: i for i, h in enumerate(domain)} for domain in domains]
            for (s, hjoint), w in node.weights:
                state.append(s)
                weight.append(w)
                hist.append([pos[h] for pos, h in zip(position, hjoint)])
            start.append(len(state))
            sizes.append([len(domain) for domain in domains])
        agents = len(sizes[0]) if sizes else 0
        return cls(
            start=np.array(start),
            state=np.array(state, dtype=np.intp),
            weight=np.array(weight, dtype=float),
            hist=np.array(hist, dtype=np.intp).reshape(len(state), agents),
            sizes=np.array(sizes, dtype=np.intp).reshape(len(nodes), agents),
        )

    def node_index(self) -> np.ndarray:
        """The node of every atom."""
        return np.repeat(np.arange(len(self.start) - 1), np.diff(self.start))

    def columns(self, colmaps: list[np.ndarray] | None = None) -> np.ndarray:
        """Every atom's columns in its node's history-domain action rows, where
        agent ``n``'s histories follow those of agents ``0 .. n-1``; given
        each node's column map from history to label columns, the columns in
        its label rows instead."""
        node = self.node_index()
        columns = self.hist + (np.cumsum(self.sizes, axis=1) - self.sizes)[node]
        if colmaps is None:
            return columns
        base = _starts(np.array([len(colmap) for colmap in colmaps], dtype=np.intp))
        return np.concatenate(colmaps)[base[node][:, None] + columns]


@dataclass(eq=False)
class Level:
    """One depth's nodes with their atoms and, once the depth below is built,
    the edges that leave them, kept nowhere else: row ``k`` of node ``i`` is
    pair ``_pair0[i] + k`` and stands for the history-domain prescription
    ``gammas[i][k]``; :meth:`children` gives its children in the level below,
    and child ``c`` there has the mass ``mass[c]``.  For the next sweep, a
    level keeps its rows' ``layout`` and ``rewards`` (``q`` in pair order and
    each node's first maximal row) and, with no level below, ``chosen``, the
    unkeyed sweep's prescription at each node; it refers to no tree or session."""

    nodes: list[FcsNode]
    atoms: Atoms
    gammas: list[list[Prescription]] | None = None
    first: list[int] | None = None  # where each (node, row) pair's children start
    mass: list[float] | None = None
    layout: tuple | None = None
    rewards: tuple | None = None
    chosen: list[Prescription] | None = None

    @cached_property
    def _pair0(self) -> list[int]:
        return list(itertools.accumulate(map(len, self.gammas), initial=0))

    @cached_property
    def by_seq(self) -> dict[FcsKey, FcsNode]:
        """The nodes by sequence, for the lookups a subtree level and a
        measurement's witness make; a sweep never builds it."""
        return {node.seq: node for node in self.nodes}

    def children(self, i: int, k: int) -> range:
        """The positions of node ``i``'s children under row ``k``, in ``o0`` order."""
        pair = self._pair0[i] + k
        return range(self.first[pair], self.first[pair + 1])


#: Dense successor cells ``(atom, s', o)`` computed at once by the batch kernel.
_CHUNK_CELLS = 1 << 18


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector and give it back as it was found.

    Building a level and sweeping the tree allocate many tuples but make no
    reference cycle, so the collections they would set off find nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of these lengths starts."""
    return np.cumsum(counts) - counts


def _run_heads(keys: list[np.ndarray]) -> np.ndarray:
    """Which positions of these sorted key columns start a run of equal keys."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return new


def _entries(atoms: Atoms, columns: np.ndarray, tables: list[np.ndarray]):
    """One pair per (node, row of its table) and one entry per (pair, atom of
    its node), pair by pair and atom by atom; with each entry's actions."""
    rows = np.array([len(tbl) for tbl in tables], dtype=np.intp)
    widths = np.array([tbl.shape[1] for tbl in tables], dtype=np.intp)
    pair_node = np.repeat(np.arange(len(tables)), rows)
    pair_row = np.arange(len(pair_node)) - _starts(rows)[pair_node]
    flat = np.concatenate([tbl.ravel() for tbl in tables])
    pair_base = _starts(rows * widths)[pair_node] + pair_row * widths[pair_node]
    per_pair = np.diff(atoms.start)[pair_node]
    entry_pair = np.repeat(np.arange(len(pair_node)), per_pair)
    entry_atom = np.arange(len(entry_pair)) + np.repeat(
        atoms.start[:-1][pair_node] - _starts(per_pair), per_pair)
    actions = flat[pair_base[entry_pair][:, None] + columns[entry_atom]]
    return pair_node, pair_row, entry_pair, entry_atom, actions


def _successors(model: DecPomdpModel, state, weight, entry_atom, actions):
    """The admissible successors ``(entry, s', o, p)`` of every entry, in
    ``(entry, s', o)`` order, where entry ``i`` takes the per-agent
    ``actions[i]`` from atom ``entry_atom[i]`` in ``state`` with ``weight``:
    ``p = (w * P(s'|s,a)) * P(o|s')`` under the two admissibility tests of
    :meth:`DecPomdpModel.step`.  This is the one batched forward step."""
    joint = actions @ np.array([stride for _size, stride in model._action_strides], dtype=np.intp)
    step = max(1, _CHUNK_CELLS // model.observation.size)
    found = []
    for lo in range(0, max(len(entry_atom), 1), step):
        atom = entry_atom[lo:lo + step]
        trans = model.transition[state[atom], joint[lo:lo + step]]
        p = (weight[atom][:, None] * trans)[:, :, None] * model.observation
        keep = (trans > ADMISSIBILITY_THRESHOLD)[:, :, None] & (p > ADMISSIBILITY_THRESHOLD)
        entry, s_next, obs = np.nonzero(keep)
        found.append((entry + lo, s_next, obs, p[keep]))
    return (np.concatenate(parts) for parts in zip(*found))


class FcsTree:
    """Lazily expanded coordinator history tree for one model.

    Nodes are made a level at a time by :meth:`expand_rows`, or one
    expansion at a time by :meth:`expand`, which keeps nothing.
    :meth:`full_level` keeps the full levels and ``compression.Session.level``
    the compressed subtree's, each depth a :class:`Level` that holds the edges
    leaving it once the depth below is built: the one store of a tree's
    nodes, of their edges and of their atoms.

    Besides its nodes, a tree memoises three quantities that depend on the
    common information alone, so every call sharing the tree computes each
    once.  They are keyed by the tree only, never by a compression's labels:

    ``common_profiles``
        ``(node.seq, bytes of a table of history-domain action rows)`` to the
        immediate expected rewards and next-common-observation laws under
        those rows, as arrays; filled and read by
        ``compression._node_profiles`` only.
    ``exact_sweep``
        The alg-1 ``(table, policy, Q evaluations)``; filled and read by
        ``exact_dp.solve_fcs_fps`` only.
    ``state_laws``
        ``(t, agent)`` to ``P(s | node, agent history)`` over the full
        level; filled and read by ``compression.build_greedy`` only.
    """

    def __init__(self, model: DecPomdpModel):
        self.model = model
        self._tag = (object(),)  # what the ``atoms`` of every node it makes start with
        self._root_cache: list[tuple[int, FcsNode, float]] | None = None
        # Full levels 1, 2, ... as ``full_level`` returns them.
        self._levels: list[Level] = []
        # Action tables and their joint-action contributions per domain
        # shape, and one prescription object per (domains, row), shared by
        # the level records' edges and the sweeps' policies.
        self._tables: dict[tuple[int, ...], np.ndarray] = {}
        self._contribs: dict[tuple[int, ...], np.ndarray] = {}
        self._prescriptions: dict[tuple, Prescription] = {}
        self.common_profiles: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.exact_sweep: tuple | None = None
        self.state_laws: dict[tuple[int, int], np.ndarray] = {}

    @classmethod
    def of(cls, model: DecPomdpModel, tree: FcsTree | None = None) -> FcsTree:
        """``tree``, a new tree for ``model`` if ``None``, refused if built for another model."""
        if tree is not None and tree.model is not model:
            raise ValueError("the tree was built for another model")
        return cls(model) if tree is None else tree

    # -- roots ------------------------------------------------------------

    def roots(self) -> list[tuple[int, FcsNode, float]]:
        """All depth-one nodes as ``(o0, node, P(o0))``."""
        if self._root_cache is not None:
            return self._root_cache
        m = self.model
        per_o0: dict[int, dict] = {o0: {} for o0 in range(len(m.common_obs))}
        for s in range(m.num_states):
            p_init = float(m.initial[s])
            if p_init <= ADMISSIBILITY_THRESHOLD:
                continue
            for obs, p in m.emissions(s, p_init):
                hjoint = tuple((o,) for o in obs.private)
                acc = per_o0[obs.common]
                acc[(s, hjoint)] = acc.get((s, hjoint), 0.0) + p
        out = []
        for o0 in range(len(m.common_obs)):
            raw = per_o0[o0]
            mass = sum(raw.values())
            if mass <= ADMISSIBILITY_THRESHOLD:
                continue
            weights = {k: v / mass for k, v in raw.items()}
            node = FcsNode(1, (o0,), _sorted_weights(weights), None, self._tag, len(out))
            out.append((o0, node, mass))
        self._root_cache = out
        return out

    # -- one-step expansion ----------------------------------------------

    def expand(
        self, node: FcsNode, gamma: Prescription
    ) -> list[tuple[int, FcsNode, float]]:
        """Children of ``node`` under ``gamma`` as ``(o0, child, P(o0 | node,
        gamma))``, made afresh on every call and kept nowhere."""
        if node.atoms is None or node.atoms[0] is not self._tag[0]:
            raise UnreachableNodeError(f"node {node.seq!r} was not produced by this tree")
        per_o0 = _successor_weights(self.model, node.weights, gamma)
        result = []
        for o0 in sorted(per_o0):
            raw = per_o0[o0]
            # Left to right, as the batch kernel adds; ``sum`` compensates its
            # rounding from Python 3.12 on.
            mass = 0.0
            for v in raw.values():
                mass += v
            if mass <= ADMISSIBILITY_THRESHOLD:
                continue
            weights = _sorted_weights({k: v / mass for k, v in raw.items()})
            child = FcsNode(node.t + 1, node.seq + (gamma.key, o0), weights, None, self._tag)
            result.append((o0, child, mass))
        return result

    # -- level-synchronous expansion -------------------------------------

    def _action_rows(self, shape: tuple[int, ...]) -> np.ndarray:
        """:func:`prescription_actions` for domains of these sizes, built once."""
        if shape not in self._tables:
            self._tables[shape] = prescription_actions(self.model, tuple(map(range, shape)))
        return self._tables[shape]

    def _contrib(self, shape: tuple[int, ...]) -> np.ndarray:
        """``contrib[c, k]``, what column ``c`` of row ``k`` of
        :meth:`_action_rows` adds to the flat joint-action index, built once."""
        if shape not in self._contribs:
            strides = [stride for _size, stride in self.model._action_strides]
            self._contribs[shape] = (self._action_rows(shape) * np.repeat(strides, shape)).T
        return self._contribs[shape]

    def _prescription(self, domains: tuple[tuple, ...], row: np.ndarray) -> Prescription:
        """:func:`prescription_from_row`, one object per ``(domains, row)``."""
        key = (domains, row.tobytes())
        gamma = self._prescriptions.get(key)
        if gamma is None:
            gamma = self._prescriptions[key] = prescription_from_row(domains, row.tolist())
        return gamma

    def full_level(self, t: int) -> Level:
        """The depth-``t`` nodes under every prescription at every node, in
        creation order: for node, for canonical prescription, for ``o0``.
        Once depth ``t + 1`` is built, it holds the edges under every row of
        their action tables.  Each level is expanded once, from above, with
        the cyclic collector paused."""
        if not self._levels:
            roots = [node for _o0, node, _p in self.roots()]
            self._levels.append(Level(roots, Atoms.of(roots)))
        with _collector_paused():
            while len(self._levels) < t:
                level = self._levels[-1]
                tables = [self._action_rows(tuple(sizes)) for sizes in level.atoms.sizes.tolist()]
                gammas = [
                    [self._prescription(node.agent_domains, row) for row in rows]
                    for node, rows in zip(level.nodes, tables)
                ]
                self._levels.append(self.expand_rows(level, level.atoms.columns(), tables, gammas))
        return self._levels[t - 1]

    def expand_rows(
        self,
        level: Level,
        columns: np.ndarray,
        tables: list[np.ndarray],
        gammas: list[list[Prescription]],
    ) -> Level:
        """Expand every node of ``level`` under every row of its action table
        in one pass; give the level below and write the edges into ``level``.

        Row ``k`` of ``tables[i]`` stands for the history-domain prescription
        ``gammas[i][k]``; agent ``n`` of atom ``j`` takes the action in column
        ``columns[j, n]`` of its node's rows.  The children, bit for bit those
        of :meth:`expand`, go into the level below, for node, for row, for
        ``o0``, with their atoms; each child's mass is the one :meth:`expand`
        gives it.  A child the full level below holds already is that node;
        the others keep their atoms in the new level's columns only.

        The successor weights are summed per ``(s', joint history)`` and then
        per child in the order the scalar expansion meets them.
        """
        m, nodes, atoms = self.model, level.nodes, level.atoms
        level.gammas = gammas
        agents, obs_sizes = m.num_agents, m.private_obs_sizes
        pair_node, pair_row, entry_pair, entry_atom, actions = _entries(atoms, columns, tables)
        entry, s_next, obs, prob = _successors(m, atoms.state, atoms.weight, entry_atom, actions)
        o0, private = np.divmod(obs, int(np.prod(obs_sizes)))
        own_obs = np.unravel_index(private, obs_sizes)
        atom = entry_atom[entry]
        # Agent n's new history h + (a, o), coded in the order of its tuple.
        codes = [
            (atoms.hist[atom, n] * m.action_sizes[n] + actions[entry, n]) * obs_sizes[n]
            + own_obs[n]
            for n in range(agents)
        ]
        num_common = len(m.common_obs)
        slot = entry_pair[entry] * num_common + o0
        # Sum the successors per (slot, s', joint history) in the order they
        # were met, then the sums per slot in the order each was first met.
        order = np.lexsort([*codes[::-1], s_next, slot])
        keys = [key[order] for key in (slot, s_next, *codes)]
        new = _run_heads(keys)
        group = np.empty_like(order)
        group[order] = np.cumsum(new) - 1
        raw = np.zeros(int(new.sum()))
        np.add.at(raw, group, prob)
        heads = np.flatnonzero(new)
        keys = [key[heads] for key in keys]
        child_new = _run_heads(keys[:1])
        group_child = np.cumsum(child_new) - 1
        mass = np.zeros(int(child_new.sum()))
        seen = np.argsort(order[heads], kind="stable")
        np.add.at(mass, group_child[seen], raw[seen])
        # Children whose mass passes the threshold, and their atoms.
        kept = mass > ADMISSIBILITY_THRESHOLD
        child_slot, child_mass = keys[0][child_new][kept], mass[kept]
        g = kept[group_child]
        group_child = (np.cumsum(kept) - 1)[group_child[g]]
        weight = raw[g] / child_mass[group_child]
        group_node = pair_node[keys[0][g] // num_common]
        g_state = keys[1][g]
        g_codes = [key[g] for key in keys[2:]]
        # Per agent: the distinct new histories, each built once, every
        # child's agent domain, and every atom's position in it.
        hist_cols, size_cols, per_agent, per_child = [], [], [], []
        for n in range(agents):
            span = int(g_codes[n].max()) + 1 if len(g_codes[n]) else 1
            uniq, hid = np.unique(group_node * span + g_codes[n], return_inverse=True)
            node_of, code = np.divmod(uniq, span)
            rest, o_n = np.divmod(code, obs_sizes[n])
            r_n, a_n = np.divmod(rest, m.action_sizes[n])
            built = [
                nodes[i].agent_domains[n][r] + (a, o)
                for i, r, a, o in zip(node_of.tolist(), r_n.tolist(), a_n.tolist(), o_n.tolist())
            ]
            per_agent.append([built[h] for h in hid.tolist()])
            span = max(len(uniq), 1)
            own, own_index = np.unique(group_child * span + hid, return_inverse=True)
            own_child, own_hid = np.divmod(own, span)
            lead = np.searchsorted(own_child, np.arange(len(child_slot) + 1))
            hist_cols.append(own_index - lead[:-1][group_child])
            size_cols.append(np.diff(lead))
            hists, marks = [built[h] for h in own_hid.tolist()], lead.tolist()
            per_child.append([tuple(hists[a:b]) for a, b in zip(marks, marks[1:])])
        child_domains = list(zip(*per_child))
        bounds = np.searchsorted(group_child, np.arange(len(child_slot) + 1)).tolist()
        # Materialise the children, for pair, for ``o0``.
        pair_of, o0_of = np.divmod(child_slot, num_common)
        level.first = np.searchsorted(pair_of, np.arange(len(pair_node) + 1)).tolist()
        level.mass = child_mass.tolist()
        pair_node, pair_row = pair_node.tolist(), pair_row.tolist()
        # Every child's atoms as runs of shared keys and weights, behind the tag.
        keys = list(zip(g_state.tolist(), zip(*per_agent)))
        shared = (*self._tag, bounds, keys, weight.tolist())
        t, children = nodes[0].t + 1, []
        # A subtree level takes the full level's node for a sequence both hold.
        held = self._levels[t - 1].by_seq if len(self._levels) >= t else None
        for c, (pair, o0) in enumerate(zip(pair_of.tolist(), o0_of.tolist())):
            i = pair_node[pair]
            seq = nodes[i].seq + (gammas[i][pair_row[pair]].key, o0)
            child = held.get(seq) if held else None
            children.append(child or FcsNode(t, seq, None, child_domains[c], shared, c))
        return Level(children, Atoms(
            start=np.array(bounds, dtype=np.intp),
            state=g_state,
            weight=weight,
            hist=np.stack(hist_cols, axis=1),
            sizes=np.stack(size_cols, axis=1),
        ))

    # -- reachable private structure -------------------------------------

    def reachable_fps(self, node: FcsNode) -> list[FpsTuple]:
        """Admissible joint private histories with conditional probabilities."""
        if node.atoms is None or node.atoms[0] is not self._tag[0]:
            raise UnreachableNodeError(f"node {node.seq!r} was not produced by this tree")
        S = self.model.num_states
        per_h: dict[JointHist, list[float]] = {}
        for (s, hjoint), w in node.weights:
            row = per_h.setdefault(hjoint, [0.0] * S)
            row[s] += w
        out = []
        for hjoint in sorted(per_h):
            row = per_h[hjoint]
            p = sum(row)
            if p > ADMISSIBILITY_THRESHOLD:
                out.append(FpsTuple(hjoint, p, tuple(row)))
        return out


def enumerate_prescriptions(
    model: DecPomdpModel,
    domains: tuple[tuple, ...],
) -> list[Prescription]:
    """All prescriptions over the given per-agent domains, in canonical order.

    Canonical order is lexicographic over (agent, domain position, action);
    the position of a prescription in this list is its canonical index.
    """
    if any(len(d) == 0 for d in domains):
        raise PrescriptionDomainError("empty reachable domain: unreachable node")
    slots = []
    for n, domain in enumerate(domains):
        for key in domain:
            slots.append((n, key, len(model.actions[n])))
    out = []
    for combo in itertools.product(*(range(size) for _n, _k, size in slots)):
        tables: list[list] = [[] for _ in domains]
        for (n, key, _size), action in zip(slots, combo):
            tables[n].append((key, action))
        out.append(Prescription(tuple(tuple(tbl) for tbl in tables)))
    return out


def prescription_actions(model: DecPomdpModel, domains: tuple[tuple, ...]) -> np.ndarray:
    """Action table of every prescription over the given per-agent domains.

    Row ``k`` holds the actions of canonical prescription ``k``; there is one
    column per (agent, domain position) slot, agent by agent, so rows run in
    :func:`enumerate_prescriptions` order.
    """
    if any(len(d) == 0 for d in domains):
        raise PrescriptionDomainError("empty reachable domain: unreachable node")
    sizes = [len(model.actions[n]) for n, domain in enumerate(domains) for _key in domain]
    return np.indices(sizes).reshape(len(sizes), -1).T


def prescription_from_row(domains: tuple[tuple, ...], row) -> Prescription:
    """The prescription one row of :func:`prescription_actions` stands for."""
    actions = map(int, row)
    return Prescription(tuple([tuple(zip(domain, actions)) for domain in domains]))


def prescription_count(model: DecPomdpModel, domains: tuple[tuple, ...]) -> int:
    count = 1
    for n, domain in enumerate(domains):
        count *= len(model.actions[n]) ** len(domain)
    return count


def _columns_by_agent(domains: tuple[tuple, ...], columns) -> list[dict]:
    """Per agent, each history's column, from the columns of every history
    agent by agent in domain order."""
    rest = iter(columns)
    return [dict(zip(domain, rest)) for domain in domains]


def _successor_labels(model: DecPomdpModel, children, gamma: Prescription, theta: dict):
    """The labelled successors of a node under ``gamma``, given its
    ``children`` under ``gamma`` in ``o0`` order, as ``(o0, agent, h, a, o_n,
    label)``: for each child, agent, history ``h`` in domain order and private
    observation ``o_n``, the ``theta`` label of ``h + (a, o_n)`` where
    ``theta`` has one, ``theta`` being keyed ``(t, seq, agent, h)``."""
    sizes = model.private_obs_sizes
    for child in children:
        for n, table in enumerate(gamma.entries):
            for h, a in table:
                for on in range(sizes[n]):
                    key = (child.t, child.seq, n, h + (a, on))
                    if key in theta:
                        yield child.seq[-1], n, h, a, on, theta[key]

