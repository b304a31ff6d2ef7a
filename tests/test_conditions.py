"""The sufficiency conditions and the supporting lemmas against the scalar
loops they replaced.

``belief.check_spi`` reads a node's atoms once per agent for SPI2 and SPI4
and takes one next-observation law per (joint history, joint action) for
SPI3; ``verify.check_lemmas`` computes each same-label history's Q-values
once per node for lemma 2 and corollary 1, and reads each prescription's
children once for lemma 3.  The loops they replaced, which scanned the atoms
once per (agent, history), recomputed a law per (prescription, history,
preimage member), evaluated every history pair afresh and rescanned the
children once per (history, prescription), are kept here as the oracle, on a
tree of their own.  Every result is compared field by field, the violation
by ``float.hex``.
"""

from collections import Counter
from pathlib import Path

import pytest

from ciplan import verify
from ciplan.approx_dp import solve_fcs_asps
from ciplan.belief import (
    CHECK_TOL,
    ConditionResult,
    _next_obs_distribution,
    check_spi,
    tv_distance,
)
from ciplan.compression import (
    Session,
    build_exact_private,
    build_greedy,
    identity_private,
    measure_private,
)
from ciplan.generate import random_model
from ciplan.histories import FcsNode, FcsTree
from ciplan.model import ADMISSIBILITY_THRESHOLD, load_model
from ciplan.verify import EQ_TOL, check_lemmas

from test_belief import constant_spi, uninformative_model
from test_compression import exactness_split_model

DATA = Path(__file__).parent / "data"

# -- the scalar oracle -----------------------------------------------------


def _state_conditional(node, predicate):
    """P(s | node, predicate over joint history), normalized."""
    raw = {}
    for (s, hjoint), w in node.weights:
        if predicate(hjoint):
            raw[s] = raw.get(s, 0.0) + w
    total = sum(raw.values())
    return {s: w / total for s, w in raw.items()}


def scalar_spi(model, session):
    """SPI2, SPI3 and SPI4, one atom scan per (agent, history) and one law
    per (prescription, history, preimage member)."""
    tree, theta = session.tree, session.pc.theta
    viol2, wit2 = 0.0, None
    viol3, wit3 = 0.0, None
    viol4, wit4 = 0.0, None
    for t in range(1, model.horizon + 1):
        level = tree.full_level(t)
        for i, node in enumerate(level.nodes):
            labels = session.labels(node)
            joint_labels = [
                tuple(lab[h] for lab, h in zip(labels, hjoint)) for (_s, hjoint), _w in node.weights
            ]
            for n, domain in enumerate(node.agent_domains):
                groups = {}
                for h in domain:
                    groups.setdefault(labels[n][h], []).append(h)
                for h in domain:
                    pre = groups[labels[n][h]]
                    sdist_h = _state_conditional(node, lambda hj: hj[n] == h)
                    sdist_z = _state_conditional(node, lambda hj: hj[n] in pre)
                    for a in model.iter_joint_actions():
                        a_idx = model.joint_action_index(a)
                        e_h = sum(w * float(model.reward[s, a_idx]) for s, w in sdist_h.items())
                        e_z = sum(w * float(model.reward[s, a_idx]) for s, w in sdist_z.items())
                        d = abs(e_h - e_z)
                        if d > viol2:
                            viol2, wit2 = d, (node.seq, n, h, a)
                    dist_h, dist_z = {}, {}
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

            if t < model.horizon:
                fps = tree.reachable_fps(node)
                joint_label = {
                    f.histories: tuple(lab[h] for lab, h in zip(labels, f.histories)) for f in fps
                }
                fps_prob = {f.histories: f.probability for f in fps}
                below = tree.full_level(t + 1)
                for k, gamma in enumerate(level.gammas[i]):
                    children = {
                        below.nodes[c].seq[-1]: below.nodes[c] for c in level.children(i, k)
                    }

                    def future_dist(hjoint, a):
                        sdist = _state_conditional(node, lambda hj: hj == hjoint)
                        obs_dist = _next_obs_distribution(
                            model, sdist, model.joint_action_index(a)
                        )
                        out = {}
                        for (o0, opriv), p in obs_dist.items():
                            child = children.get(o0)
                            if child is None:
                                key = (("unreachable", o0), o0)
                            else:
                                z_next = tuple(
                                    theta.get((t + 1, child.seq, m, hjoint[m] + (a[m], opriv[m])))
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
                        pre = [
                            g for g in joint_label if joint_label[g] == z and gamma.act(g) == a
                        ]
                        mass = sum(fps_prob[g] for g in pre)
                        dist_z = {}
                        for g in pre:
                            for key, p in future_dist(g, a).items():
                                dist_z[key] = dist_z.get(key, 0.0) + fps_prob[g] / mass * p
                        d = tv_distance(dist_h, dist_z)
                        if d > viol3:
                            viol3, wit3 = d, (node.seq, h, gamma.key, a)

    note = "evaluated only at consistent (prescription, action) pairs"
    return [
        ConditionResult("SPI2", viol2 <= CHECK_TOL, viol2, wit2),
        ConditionResult("SPI3", viol3 <= CHECK_TOL, viol3, wit3, note=note),
        ConditionResult("SPI4", viol4 <= CHECK_TOL, viol4, wit4),
    ]


def scalar_lemmas(model, session):
    """Lemma 2 and corollary 1 pair by pair, and lemma 3 one children scan
    per (history, prescription) with prefix tests."""
    tree = session.tree
    _table, asps_policy = solve_fcs_asps(model, session)
    mp = measure_private(model, session)
    viol2, wit2 = 0.0, None
    violc, witc = 0.0, None
    for t in range(1, model.horizon + 1):
        bound = verify.gap_bound("lem2", model.horizon - t, model.horizon, model.reward_bound, mp)
        for node in session.level(t).nodes:
            labels = session.labels(node)
            classes = {}
            for f in tree.reachable_fps(node):
                z = tuple(lab[h] for lab, h in zip(labels, f.histories))
                classes.setdefault(z, []).append(f.histories)
            pairs = [
                (hs[i], hs[j])
                for hs in classes.values()
                for i in range(len(hs))
                for j in range(i + 1, len(hs))
            ]
            if not pairs:
                continue
            gammas = [g for _lam, g in session.pairs(node)]
            q = lambda h, gamma: verify.supervisor_q(model, tree, node, h, gamma, asps_policy)
            for h1, h2 in pairs:
                for gamma in gammas:
                    d = abs(q(h1, gamma) - q(h2, gamma))
                    excess = d - bound
                    if excess > viol2:
                        viol2, wit2 = excess, (node.seq, h1, h2, gamma.key, d, bound)
                gamma_star = asps_policy.at(node.seq)
                d = abs(q(h1, gamma_star) - q(h2, gamma_star))
                excess = d - bound
                if excess > violc:
                    violc, witc = excess, (node.seq, h1, h2, d, bound)

    viol3, wit3 = 0.0, None
    for t in range(1, model.horizon):
        level, below = tree.full_level(t), tree.full_level(t + 1)
        for i, node in enumerate(level.nodes):
            for f in tree.reachable_fps(node):
                h = f.histories
                per_action = {}
                for k, gamma in enumerate(level.gammas[i]):
                    a = gamma.act(h)
                    dist = {}
                    for c in level.children(i, k):
                        child, p_branch = below.nodes[c], level.mass[c]
                        for (s_next, h_next), w in child.weights:
                            if all(
                                h_next[n][: len(h[n])] == h[n] and h_next[n][len(h[n])] == a[n]
                                for n in range(model.num_agents)
                            ):
                                incr = tuple(
                                    h_next[n][len(h[n]) + 1] for n in range(model.num_agents)
                                )
                                key = (child.seq[-1], incr, s_next)
                                dist[key] = dist.get(key, 0.0) + p_branch * w
                    mass = sum(dist.values())
                    if mass <= ADMISSIBILITY_THRESHOLD:
                        continue
                    dist = {key: v / mass for key, v in dist.items()}
                    ref = per_action.setdefault(a, dist)
                    d = tv_distance(ref, dist)
                    if d > viol3:
                        viol3, wit3 = d, (node.seq, h, a)

    return [
        ConditionResult("lemma2_same_label_q", viol2 <= EQ_TOL, viol2, wit2),
        ConditionResult("corollary1_same_label_v", violc <= EQ_TOL, violc, witc),
        ConditionResult("lemma3_next_step_invariance", viol3 <= EQ_TOL, viol3, wit3),
    ]


# -- the cases -------------------------------------------------------------

MODELS = {
    "coin2": lambda: load_model((DATA / "coin2.json").read_text()),
    "h3c2": lambda: load_model((DATA / "h3c2_seed1.json").read_text()),
    "uninformative": uninformative_model,
    "r3": lambda: random_model(
        3, num_states=3, horizon=2, private_obs_sizes=(2, 1), action_sizes=(3, 2)
    ),
    "r5": lambda: random_model(5, num_states=2, horizon=3, num_common_obs=2),
    "exactness-split": lambda: exactness_split_model(2),
}

COMPRESSIONS = {
    "identity": identity_private,
    "exact": build_exact_private,
    "greedy 0.5/0.5": lambda model, tree: build_greedy(model, 0.5, 0.5, tree),
    "greedy 0.2/0.1": lambda model, tree: build_greedy(model, 0.2, 0.1, tree),
    # Labels every history 0 and has no recursive update, so check_lemmas,
    # which measures the compression, rejects it.
    "constant": lambda model, _tree: constant_spi(model),
}


def fields(result):
    v = result.max_violation
    return result.condition, result.passed, float(v).hex(), repr(result.witness), result.note


def compressions(model):
    tree = FcsTree(model)
    return tree, {name: build(model, tree) for name, build in COMPRESSIONS.items()}


@pytest.mark.parametrize("name", MODELS)
def test_check_spi_matches_scalar_oracle(name):
    model = MODELS[name]()
    tree, pcs = compressions(model)
    for pc in pcs.values():
        got = check_spi(model, pc, tree).results
        want = scalar_spi(model, Session(FcsTree(model), pc))
        assert [fields(r) for r in got[1:]] == [fields(r) for r in want]


@pytest.mark.parametrize("name", MODELS)
def test_check_lemmas_matches_scalar_oracle(name, monkeypatch):
    # Lemma 1 is evaluated as before and costs one forward enumeration per
    # (node, prescription, history), about 0.5 s per coin2 call: its
    # prescriptions are left out here, and lemma 1 is not compared.
    monkeypatch.setattr(verify, "enumerate_prescriptions", lambda model, domains: [])
    model = MODELS[name]()
    tree, pcs = compressions(model)
    del pcs["constant"]
    for pc in pcs.values():
        got = check_lemmas(model, pc, tree).results
        want = scalar_lemmas(model, Session(FcsTree(model), pc))
        assert [fields(r) for r in got[1:]] == [fields(r) for r in want]


def test_lemma2_witnesses_match_scalar_oracle(coin2, monkeypatch):
    # Every same-label pair exceeds a negative bound, so the witnesses are
    # the pairs of largest Q difference, found in the oracle's scan order.
    monkeypatch.setattr(verify, "enumerate_prescriptions", lambda model, domains: [])
    monkeypatch.setattr(verify, "gap_bound", lambda *args: -1.0)
    tree = FcsTree(coin2)
    for pc in (build_greedy(coin2, 0.5, 0.5, tree), build_greedy(coin2, 0.2, 0.1, tree)):
        got = check_lemmas(coin2, pc, tree).results
        want = scalar_lemmas(coin2, Session(FcsTree(coin2), pc))
        assert not got[1].passed and not got[2].passed
        assert [fields(r) for r in got[1:3]] == [fields(r) for r in want[:2]]


def test_check_spi_reads_each_node_once_per_question(coin2, monkeypatch):
    # SPI2 and SPI4 read a node's atoms in one pass, and SPI3 reads the
    # node's joint histories off ``reachable_fps``: two reads of a full-level
    # node's weights at most, however many histories it holds.
    weights = FcsNode.weights
    for model in (coin2, random_model(5, num_states=2, horizon=3, num_common_obs=2)):
        tree = FcsTree(model)
        pc = identity_private(model, tree)
        reads = Counter()
        counted = property(lambda node: reads.update([node.seq]) or weights.fget(node))
        monkeypatch.setattr(FcsNode, "weights", counted)
        assert check_spi(model, pc, tree).passed
        monkeypatch.undo()
        full = [node for t in range(1, model.horizon + 1) for node in tree.full_level(t).nodes]
        assert {reads[node.seq] for node in full} <= {1, 2}
        assert set(reads) == {node.seq for node in full}
