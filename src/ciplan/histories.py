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
    """Raised when an operation is asked about a node this tree never produced."""


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

    def as_maps(self) -> tuple[dict, ...]:
        return tuple(dict(table) for table in self.entries)


@dataclass(frozen=True)
class FpsTuple:
    """An admissible joint private history with its conditional probabilities."""

    histories: JointHist
    probability: float
    # P(s, histories | node), one entry per state in index order.
    state_probabilities: tuple[float, ...]


@dataclass(frozen=True)
class FcsNode:
    """One coordinator history; immutable once created."""

    t: int
    seq: FcsKey
    # Sorted ((s, joint history), probability) pairs; conditional on seq.
    weights: tuple[tuple[tuple[int, JointHist], float], ...]

    @property
    def last_common_obs(self) -> int:
        return self.seq[-1]

    def weight_map(self) -> dict[tuple[int, JointHist], float]:
        return dict(self.weights)

    @cached_property
    def agent_domains(self) -> tuple[tuple[Hist, ...], ...]:
        """Per-agent sorted reachable private histories, computed once."""
        per_agent = zip(*(hjoint for (_s, hjoint), _w in self.weights))
        return tuple(tuple(sorted(set(hists))) for hists in per_agent)


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


class FcsTree:
    """Lazily expanded, memoized coordinator history tree for one model.

    Besides its nodes, a tree memoises two quantities that depend on the
    common information alone, so every call sharing the tree computes each
    once.  Both are keyed by the tree only, never by a compression's labels:

    ``common_profiles``
        ``(node.seq, action row of a history-domain prescription)`` to the
        immediate expected reward and next-common-observation law; filled and
        read by ``compression._node_reward_and_branches`` only.
    ``exact_sweep``
        The alg-1 ``(table, policy, Q evaluations)``; filled and read by
        ``exact_dp.solve_fcs_fps`` only.
    """

    def __init__(self, model: DecPomdpModel):
        self.model = model
        self._nodes: dict[FcsKey, FcsNode] = {}
        self._children: dict[tuple, dict[int, tuple[FcsNode, float]]] = {}
        self._root_cache: list[tuple[int, FcsNode, float]] | None = None
        self.common_profiles: dict[tuple, tuple[float, dict[int, float]]] = {}
        self.exact_sweep: tuple | None = None

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
            node = FcsNode(t=1, seq=(o0,), weights=_sorted_weights(weights))
            self._nodes[node.seq] = node
            out.append((o0, node, mass))
        self._root_cache = out
        return out

    def node(self, seq: FcsKey) -> FcsNode:
        if seq not in self._nodes:
            self._materialize(seq)
        return self._nodes[seq]

    def _materialize(self, seq: FcsKey) -> None:
        if len(seq) == 1:
            self.roots()
            if seq not in self._nodes:
                raise UnreachableNodeError(f"root {seq!r} has zero probability")
            return
        parent_seq, presc_key, o0 = seq[:-2], seq[-2], seq[-1]
        parent = self.node(parent_seq)
        children = self.expand(parent, Prescription(presc_key))
        for o0_child, node, _p in children:
            if o0_child == o0:
                return
        raise UnreachableNodeError(f"node {seq!r} is unreachable")

    # -- one-step expansion ----------------------------------------------

    def expand(
        self, node: FcsNode, gamma: Prescription
    ) -> list[tuple[int, FcsNode, float]]:
        """Children of ``node`` under ``gamma`` as ``(o0, child, P(o0 | node, gamma))``."""
        cache_key = (node.seq, gamma.key)
        if cache_key in self._children:
            return [
                (o0, child, p) for o0, (child, p) in self._children[cache_key].items()
            ]
        if node.seq not in self._nodes:
            raise UnreachableNodeError(f"node {node.seq!r} was not produced by this tree")
        per_o0 = _successor_weights(self.model, node.weights, gamma)
        result: dict[int, tuple[FcsNode, float]] = {}
        for o0 in sorted(per_o0):
            raw = per_o0[o0]
            mass = sum(raw.values())
            if mass <= ADMISSIBILITY_THRESHOLD:
                continue
            weights = {k: v / mass for k, v in raw.items()}
            child = FcsNode(
                t=node.t + 1,
                seq=node.seq + (gamma.key, o0),
                weights=_sorted_weights(weights),
            )
            self._nodes.setdefault(child.seq, child)
            result[o0] = (self._nodes[child.seq], mass)
        self._children[cache_key] = result
        return [(o0, child, p) for o0, (child, p) in result.items()]

    # -- reachable private structure -------------------------------------

    def reachable_fps(self, node: FcsNode) -> list[FpsTuple]:
        """Admissible joint private histories with conditional probabilities."""
        if node.seq not in self._nodes:
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

    def agent_domains(self, node: FcsNode) -> tuple[tuple[Hist, ...], ...]:
        """Per-agent sorted reachable private histories at ``node``."""
        return node.agent_domains


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
    actions = [int(a) for a in row]
    entries, start = [], 0
    for domain in domains:
        entries.append(tuple(zip(domain, actions[start:start + len(domain)])))
        start += len(domain)
    return Prescription(tuple(entries))


def prescription_count(model: DecPomdpModel, domains: tuple[tuple, ...]) -> int:
    count = 1
    for n, domain in enumerate(domains):
        count *= len(model.actions[n]) ** len(domain)
    return count


def level_nodes(tree: FcsTree, t: int, prescriptions_for=None) -> list[FcsNode]:
    """All reachable nodes at depth ``t``, in deterministic creation order.

    The tree is grown under every prescription at every node (optionally
    restricted per node by ``prescriptions_for``, which must return
    history-domain prescriptions), so the result covers the full reachable
    level of the corresponding dynamic program.
    """
    if prescriptions_for is None:

        def prescriptions_for(node):
            return enumerate_prescriptions(tree.model, tree.agent_domains(node))

    current = [node for _o0, node, _p in tree.roots()]
    for _depth in range(1, t):
        nxt: list[FcsNode] = []
        seen: set[FcsKey] = set()
        for node in current:
            for gamma in prescriptions_for(node):
                for _o0, child, _p in tree.expand(node, gamma):
                    if child.seq not in seen:
                        seen.add(child.seq)
                        nxt.append(child)
        current = nxt
    return current
