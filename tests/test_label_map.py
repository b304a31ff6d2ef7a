"""The per-node label map, the session and the batched common profiles
against the scalar code they replaced.

``PrivateCompression.label_map`` is the one way a label prescription reaches a
node's histories; a ``Session`` builds each node's map, the compressed subtree
with its masses, the common classes and their mixtures once, and serves the
common measurement and the alg-3 sweep.  The scalar per-history extension,
the two subtree walks, the three mixture copies and the scalar common profile
they replaced are kept here as the oracle, on a tree of their own, with the
witness re-evaluations; values are compared by ``float.hex``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciplan.approx_dp import solve_ascs_asps, solve_fcs_asps
from ciplan.compression import (
    Session,
    _next_obs_distribution,
    bcs_common,
    build_common_greedy,
    build_greedy,
    check_recursive,
    identity_common,
    identity_private,
    measure_common,
    measure_private,
    serialize_compression,
    tv_distance,
)
from ciplan.exact_dp import BudgetExceededError, solve_fcs_fps
from ciplan.generate import random_model
from ciplan.histories import FcsTree, Prescription, enumerate_prescriptions
from ciplan.model import ADMISSIBILITY_THRESHOLD, DecPomdpModel, validate
from ciplan.verify import verify_gaps
from conftest import node_at

# -- the scalar oracle -----------------------------------------------------


def scalar_joint_reward(model, sdist, a_idx):
    return sum(w * float(model.reward[s, a_idx]) for s, w in sdist.items())


def scalar_node_profile(tree, node, gamma):
    """Immediate expected reward and next-common-observation law at a node
    under a history-domain prescription, one ``_next_obs_distribution`` dict
    per atom; kept per tree, as the tree memoised them."""
    memo = tree.__dict__.setdefault("scalar_profiles", {})
    if (node.seq, gamma.key) not in memo:
        model = tree.model
        r = 0.0
        obs = {}
        for (s, hjoint), w in node.weights:
            a_idx = model.joint_action_index(gamma.act(hjoint))
            r += w * float(model.reward[s, a_idx])
            for key, p in _next_obs_distribution(model, {s: w}, a_idx).items():
                obs[key[0]] = obs.get(key[0], 0.0) + p
        memo[(node.seq, gamma.key)] = (r, obs)
    return memo[(node.seq, gamma.key)]


def scalar_label_domains(pc, node):
    return tuple(
        tuple(sorted({pc.label_of(node.t, node.seq, n, h) for h in domain}))
        for n, domain in enumerate(node.agent_domains)
    )


def scalar_extension(pc, node, lam):
    return Prescription(
        tuple(
            tuple((h, lam.action_for(n, pc.label_of(node.t, node.seq, n, h))) for h in domain)
            for n, domain in enumerate(node.agent_domains)
        )
    )


def scalar_pairs(model, pc, node):
    return [
        (lam, scalar_extension(pc, node, lam))
        for lam in enumerate_prescriptions(model, scalar_label_domains(pc, node))
    ]


def scalar_subtree_levels(model, tree, pc):
    levels = [[node for _o0, node, _p in tree.roots()]]
    for _t in range(1, model.horizon):
        nxt, seen = [], set()
        for node in levels[-1]:
            for _lam, gamma in scalar_pairs(model, pc, node):
                for _o0, child, _p in tree.expand(node, gamma):
                    if child.seq not in seen:
                        seen.add(child.seq)
                        nxt.append(child)
        levels.append(nxt)
    return levels


def scalar_mu_levels(model, tree, pc):
    masses = [{node.seq: p for _o0, node, p in tree.roots()}]
    for _t in range(1, model.horizon):
        nxt = {}
        for node_seq, mass in masses[-1].items():
            node = node_at(tree, node_seq)
            pairs = scalar_pairs(model, pc, node)
            share = mass / len(pairs)
            for _lam, gamma in pairs:
                for _o0, child, p in tree.expand(node, gamma):
                    nxt[child.seq] = nxt.get(child.seq, 0.0) + share * p
        masses.append(nxt)
    return masses


def scalar_history_laws(pc, tree, node):
    """Per admissible joint history at ``node``: the history, its state law
    and the state law of its joint label's same-node preimage."""
    fps = tree.reachable_fps(node)
    jlabel = {
        f.histories: tuple(pc.label_of(node.t, node.seq, n, h) for n, h in enumerate(f.histories))
        for f in fps
    }
    classes = {}
    for f in fps:
        classes.setdefault(jlabel[f.histories], []).append(f)
    for f in fps:
        pre = classes[jlabel[f.histories]]
        mass = sum(g.probability for g in pre)
        sdist_h = {
            s: p / f.probability
            for s, p in enumerate(f.state_probabilities)
            if p > ADMISSIBILITY_THRESHOLD
        }
        sdist_z = {}
        for g in pre:
            for s, p in enumerate(g.state_probabilities):
                if p > ADMISSIBILITY_THRESHOLD:
                    sdist_z[s] = sdist_z.get(s, 0.0) + p / mass
        yield f.histories, sdist_h, sdist_z


def scalar_measure_private(model, pc, tree):
    sup_r, sup_o, wit = 0.0, 0.0, {}
    for t in range(1, model.horizon + 1):
        for node in tree.full_level(t).nodes:
            for hjoint, sdist_h, sdist_z in scalar_history_laws(pc, tree, node):
                for a in model.iter_joint_actions():
                    a_idx = model.joint_action_index(a)
                    d = abs(
                        scalar_joint_reward(model, sdist_h, a_idx)
                        - scalar_joint_reward(model, sdist_z, a_idx)
                    )
                    if d > sup_r:
                        sup_r, wit["eps_p"] = d, ("eps_p", t, node.seq, hjoint, a)
                    if t < model.horizon:
                        d = tv_distance(
                            _next_obs_distribution(model, sdist_h, a_idx),
                            _next_obs_distribution(model, sdist_z, a_idx),
                        )
                        if d > sup_o:
                            sup_o, wit["delta_p"] = d, ("delta_p", t, node.seq, hjoint, a)
    return 4.0 * sup_r, 8.0 * sup_o, wit


def scalar_reevaluate_private(model, pc, witness, tree):
    """The folded value a private-measurement witness attains."""
    kind, _t, seq, hjoint, a = witness
    a_idx = model.joint_action_index(a)
    for h, sdist_h, sdist_z in scalar_history_laws(pc, tree, node_at(tree, seq)):
        if h == hjoint:
            if kind == "eps_p":
                return 4.0 * abs(
                    scalar_joint_reward(model, sdist_h, a_idx)
                    - scalar_joint_reward(model, sdist_z, a_idx)
                )
            return 8.0 * tv_distance(
                _next_obs_distribution(model, sdist_h, a_idx),
                _next_obs_distribution(model, sdist_z, a_idx),
            )
    raise ValueError(f"history {hjoint!r} is not admissible at node {seq!r}")


def scalar_classes(model, tree, pc, cc, t):
    """The class and μ-weight code the three mixture copies shared: the
    level's nodes per common label, their weights and their label domains."""
    levels = scalar_subtree_levels(model, tree, pc)
    masses = scalar_mu_levels(model, tree, pc)
    classes = {}
    for node in levels[t - 1]:
        classes.setdefault(cc.label_of(t, node.seq), []).append(node)
    for z0, members in classes.items():
        total = sum(masses[t - 1][n.seq] for n in members)
        mu_w = {n.seq: masses[t - 1][n.seq] / total for n in members}
        domains = scalar_label_domains(pc, members[0])
        assert all(scalar_label_domains(pc, node) == domains for node in members)
        yield z0, members, mu_w, domains


def scalar_profiles(tree, pc, members, lam):
    return {
        n.seq: scalar_node_profile(tree, n, scalar_extension(pc, n, lam))
        for n in members
    }


def scalar_measure_common(model, pc, cc, tree):
    sup_r, sup_o, wit = 0.0, 0.0, {}
    for t in range(1, model.horizon + 1):
        for _z0, members, mu_w, domains in scalar_classes(model, tree, pc, cc, t):
            for lam in enumerate_prescriptions(model, domains):
                per_node = scalar_profiles(tree, pc, members, lam)
                mix_r = sum(mu_w[seq] * r for seq, (r, _b) in per_node.items())
                mix_obs = {}
                for seq, (_r, branches) in per_node.items():
                    for o0, p in branches.items():
                        mix_obs[o0] = mix_obs.get(o0, 0.0) + mu_w[seq] * p
                for node in members:
                    r, branches = per_node[node.seq]
                    d = abs(r - mix_r)
                    if d > sup_r:
                        sup_r, wit["eps_c"] = d, ("eps_c", t, node.seq, lam.key)
                    if t < model.horizon:
                        d = tv_distance(branches, mix_obs)
                        if d > sup_o:
                            sup_o, wit["delta_c"] = d, ("delta_c", t, node.seq, lam.key)
    return sup_r, 2.0 * sup_o, wit


def scalar_reevaluate_common(model, pc, cc, witness, tree):
    kind, t, seq, lam_key = witness
    levels = scalar_subtree_levels(model, tree, pc)
    masses = scalar_mu_levels(model, tree, pc)
    z0 = cc.label_of(t, seq)
    members = [n for n in levels[t - 1] if cc.label_of(t, n.seq) == z0]
    total = sum(masses[t - 1][n.seq] for n in members)
    per_node = scalar_profiles(tree, pc, members, Prescription(lam_key))
    mix_r = sum(masses[t - 1][s] / total * r for s, (r, _b) in per_node.items())
    mix_obs = {}
    for s, (_r, branches) in per_node.items():
        for o0, p in branches.items():
            mix_obs[o0] = mix_obs.get(o0, 0.0) + masses[t - 1][s] / total * p
    r, branches = per_node[seq]
    return abs(r - mix_r) if kind == "eps_c" else 2.0 * tv_distance(branches, mix_obs)


def scalar_label_sweep(model, pc, cc, tree):
    """The alg-3 recursion: ``(t, label) -> (value, argmax, λ key, Q values)``."""
    entries = {}
    for t in range(model.horizon, 0, -1):
        for label, members, mu_w, domains in scalar_classes(model, tree, pc, cc, t):
            qs, lams = [], enumerate_prescriptions(model, domains)
            for lam in lams:
                q, mix_obs = 0.0, {}
                for node in members:
                    r, branches = scalar_profiles(tree, pc, [node], lam)[node.seq]
                    q += mu_w[node.seq] * r
                    for o0, p in branches.items():
                        mix_obs[o0] = mix_obs.get(o0, 0.0) + mu_w[node.seq] * p
                if t < model.horizon:
                    for o0 in sorted(mix_obs):
                        z_next = cc.phi0[(t, label, lam.key, o0)]
                        q += mix_obs[o0] * entries[(t + 1, z_next)][0]
                qs.append(q)
            best = max(range(len(qs)), key=lambda k: (qs[k], -k))
            entries[(t, label)] = (qs[best], best, lams[best].key, qs)
    return entries


# -- the property ----------------------------------------------------------


def _hex(entries):
    return {
        key: (value.hex(), best, lam_key, [q.hex() for q in qs])
        for key, (value, best, lam_key, qs) in entries.items()
    }


def assert_matches_oracle(model, tols):
    tree, ref = FcsTree(model), FcsTree(model)
    pc = build_greedy(model, *tols, tree=tree)

    s = Session(tree, pc)
    levels = [list(zip(s.level(t).nodes, s.mu(t))) for t in range(1, model.horizon + 1)]
    masses = scalar_mu_levels(model, ref, pc)
    assert [[(node.seq, mass.hex()) for node, mass in level] for level in levels] == [
        [(node.seq, masses[t][node.seq].hex()) for node in level]
        for t, level in enumerate(scalar_subtree_levels(model, ref, pc))
    ]
    for level in levels:
        for node, _mass in level:
            assert [(lam.key, gamma.key) for lam, gamma in s.pairs(node)] == [
                (lam.key, gamma.key) for lam, gamma in scalar_pairs(model, pc, node)
            ]

    mp = measure_private(model, pc, tree=tree)
    eps_p, delta_p, wit = scalar_measure_private(model, pc, ref)
    assert (mp.eps_p.hex(), mp.delta_p.hex(), mp.witnesses) == (eps_p.hex(), delta_p.hex(), wit)
    for kind, witness in mp.witnesses.items():
        assert scalar_reevaluate_private(model, pc, witness, ref).hex() == getattr(mp, kind).hex()

    for cc in (bcs_common(model, pc, tree), build_common_greedy(model, pc, 0.5, 0.5, tree=tree)):
        mc = measure_common(model, pc, cc, tree=tree)
        eps_c, delta_c, wit = scalar_measure_common(model, pc, cc, ref)
        assert (mc.eps_c.hex(), mc.delta_c.hex(), mc.witnesses) == (eps_c.hex(), delta_c.hex(), wit)
        for kind, witness in mc.witnesses.items():
            value = scalar_reevaluate_common(model, pc, cc, witness, ref)
            assert value.hex() == getattr(mc, kind).hex()

        table, policy, label_policy = solve_ascs_asps(model, pc, cc, tree=tree)
        got = {
            key: (e.value, e.argmax_index, e.argmax_key, list(e.q_values))
            for key, e in table.entries.items()
        }
        assert _hex(got) == _hex(scalar_label_sweep(model, pc, cc, ref))
        for t, level in enumerate(levels, start=1):
            for node, _mass in level:
                lam = label_policy[(t, cc.label_of(t, node.seq))]
                assert policy.prescriptions[node.seq] == scalar_extension(pc, node, lam)


SHAPES = st.fixed_dictionaries({
    "num_states": st.sampled_from([2, 3]),
    "private_obs_sizes": st.sampled_from([(1, 1), (2, 1)]),
    "num_common_obs": st.sampled_from([1, 2]),
    "action_sizes": st.sampled_from([(2, 2), (3, 2)]),
})
TOLERANCES = [(0.5, 0.5), (0.2, 0.1)]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), SHAPES, st.sampled_from(TOLERANCES))
def test_label_map_callers_match_scalar_oracle(seed, shape, tols):
    assert_matches_oracle(random_model(seed, horizon=2, **shape), tols)


@pytest.mark.parametrize("tols", TOLERANCES)
def test_label_map_callers_match_scalar_oracle_on_coin2(coin2, tols):
    assert_matches_oracle(coin2, tols)


def test_label_map_callers_match_scalar_oracle_three_deep():
    assert_matches_oracle(random_model(1, num_states=2, horizon=3, num_common_obs=2), (0.5, 0.5))


# -- one builder for the compressed subtree ---------------------------------


def _one_builder_models(coin2):
    return coin2, random_model(1, num_states=2, horizon=3, num_common_obs=2)


def _node_bits(node) -> tuple:
    return node.seq, [w.hex() for _k, w in node.weights]


def test_compressed_subtree_comes_from_the_level_builder(coin2, monkeypatch):
    # On a fresh tree, the subtree, both common builders and the common
    # recursive check read every child off ``Session.level``: no node is
    # expanded alone.
    for model in _one_builder_models(coin2):
        pc = build_greedy(model, 0.5, 0.5)
        want = [serialize_compression(build(model, pc, FcsTree(model)))
                for build in (identity_common, bcs_common)]
        tree = FcsTree(model)
        with monkeypatch.context() as patch:
            patch.setattr(FcsTree, "expand", lambda *args: pytest.fail("expand called"))
            s = Session(tree, pc)
            levels = [list(zip(s.level(t).nodes, s.mu(t))) for t in range(1, model.horizon + 1)]
            commons = [identity_common(model, pc, tree), bcs_common(model, pc, tree)]
            assert all(check_recursive(model, cc, pc=pc, tree=tree).passed for cc in commons)
        assert [serialize_compression(cc) for cc in commons] == want
        # The scalar walk on the same tree expands afresh and makes the
        # level-built nodes' sequences and weights again; on a tree of its
        # own it makes the same nodes and masses.
        scalar = scalar_subtree_levels(model, tree, pc)
        assert [[_node_bits(node) for node, _mass in level] for level in levels] == [
            [_node_bits(node) for node in level] for level in scalar
        ]
        ref = FcsTree(model)
        masses = scalar_mu_levels(model, ref, pc)
        assert [
            [(node.seq, [w.hex() for _k, w in node.weights], mass.hex()) for node, mass in level]
            for level in levels
        ] == [
            [(node.seq, [w.hex() for _k, w in node.weights], masses[t][node.seq].hex())
             for node in level]
            for t, level in enumerate(scalar_subtree_levels(model, ref, pc))
        ]


def _table_bits(table, policy) -> tuple:
    entries = [
        (key, e.value.hex(), e.argmax_index, e.argmax_key, [q.hex() for q in e.q_values])
        for key, e in table.entries.items()
    ]
    return table.overall_value.hex(), entries, list(policy.prescriptions.items())


def test_alg2_expands_nothing_on_a_session_with_its_levels(coin2, monkeypatch):
    calls = []
    expand_rows = FcsTree.expand_rows

    def counted(*args):
        calls.append(args[0])
        return expand_rows(*args)

    for model in _one_builder_models(coin2):
        pc = build_greedy(model, 0.5, 0.5)
        want = _table_bits(*solve_fcs_asps(model, pc))
        s = Session(FcsTree(model), pc)
        s.level(model.horizon)
        with monkeypatch.context() as patch:
            patch.setattr(FcsTree, "expand_rows", counted)
            assert _table_bits(*solve_fcs_asps(model, s)) == want
        assert calls == []


# -- batched common profiles ----------------------------------------------


def assert_profiles_match_scalar(session, ref):
    """Every subtree node's batched reward and law under every label row
    equal the scalar profile of the row's extension, by ``float.hex``; an
    observation the scalar law lacks is an exact 0.0."""
    for t in range(1, session.model.horizon + 1):
        for node in session.level(t).nodes:
            reward, law = session.profiles(node)
            pairs = session.pairs(node)
            assert reward.shape == (len(pairs),) and law.shape[0] == len(pairs)
            for k, (_lam, gamma) in enumerate(pairs):
                r, obs = scalar_node_profile(ref, node, gamma)
                assert reward[k].hex() == r.hex()
                row = law[k].tolist()
                assert {o0: row[o0].hex() for o0 in obs} == {o0: p.hex() for o0, p in obs.items()}
                assert all(p.hex() == "0x0.0p+0" for o0, p in enumerate(row) if o0 not in obs)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), SHAPES, st.sampled_from(TOLERANCES))
def test_batched_profiles_match_scalar_profile(seed, shape, tols):
    model = random_model(seed, horizon=2, **shape)
    tree = FcsTree(model)
    for pc in (build_greedy(model, *tols, tree=tree), identity_private(model, tree)):
        assert_profiles_match_scalar(Session(tree, pc), FcsTree(model))


def sparse_model() -> DecPomdpModel:
    """A model with zeros in its observation rows and inadmissible
    transitions, so that a joint observation can be first admitted by a later
    successor state than one with a higher index."""
    rng = np.random.default_rng(7)
    transition = rng.dirichlet(np.ones(3), size=(3, 4))
    transition[0, 0] = [0.0, 0.6180339887, 0.3819660113]
    transition[1, 3] = [0.7071067812, 0.0, 0.2928932188]
    observation = rng.dirichlet(np.ones(4), size=3)
    observation[0] = [0.0, 0.31415926, 0.4, 0.28584074]
    observation[1] = [0.2718281828, 0.1414213562, 0.0, 0.5867504610]
    reward = rng.uniform(-1, 1, size=(3, 4))
    model = DecPomdpModel(
        num_agents=2,
        states=("s0", "s1", "s2"),
        actions=(("a0", "a1"), ("b0", "b1")),
        common_obs=("c0", "c1"),
        private_obs=(("p0", "p1"), ("q0",)),
        transition=transition,
        observation=observation,
        reward=reward,
        initial=np.array([0.3, 0.45, 0.25]),
        horizon=2,
        reward_bound=float(np.abs(reward).max()),
    )
    validate(model)
    return model


def test_batched_profiles_follow_first_admission_order():
    model = sparse_model()
    # From s1 under joint action 0 the successor s0 admits observations 1-3
    # before s1 admits observation 0, so the scalar law meets them in that order.
    assert list(_next_obs_distribution(model, {1: 1.0}, 0)) == [
        (0, (1, 0)), (1, (0, 0)), (1, (1, 0)), (0, (0, 0)),
    ]
    tree = FcsTree(model)
    for pc in (identity_private(model, tree), build_greedy(model, 0.5, 0.5, tree=tree)):
        assert_profiles_match_scalar(Session(tree, pc), FcsTree(model))


# -- the label map itself --------------------------------------------------


def test_label_map_gathers_label_rows_onto_histories(coin2):
    tree = FcsTree(coin2)
    pc = build_greedy(coin2, 0.5, 0.5, tree=tree)
    for node in tree.full_level(2).nodes:
        domains, colmap = pc.label_map(node)
        assert domains == scalar_label_domains(pc, node)
        keys = [z for domain in domains for z in domain]
        hists = [(n, h) for n, domain in enumerate(node.agent_domains) for h in domain]
        assert len(colmap) == len(hists)
        assert [keys[c] for c in colmap] == [pc.label_of(2, node.seq, n, h) for n, h in hists]


# -- budgets ---------------------------------------------------------------


def test_measurements_charge_the_budget(coin2):
    tree = FcsTree(coin2)
    pc = build_greedy(coin2, 0.5, 0.5, tree=tree)
    cc = build_common_greedy(coin2, pc, 0.5, 0.5, tree=tree)
    private = sum(
        len(tree.reachable_fps(node)) * coin2.num_joint_actions
        for t in range(1, coin2.horizon + 1)
        for node in tree.full_level(t).nodes
    )
    s = Session(tree, pc)
    common = sum(
        len(s.pairs(node)) for t in range(1, coin2.horizon + 1) for node in s.level(t).nodes)
    assert measure_private(coin2, pc, tree=tree, budget=private).eps_p > 0.0
    with pytest.raises(BudgetExceededError) as err:
        measure_private(coin2, pc, tree=tree, budget=private - 1)
    assert err.value.locus == ("private measure", coin2.horizon)
    measure_common(coin2, pc, cc, tree=tree, budget=common)
    with pytest.raises(BudgetExceededError) as err:
        measure_common(coin2, pc, cc, tree=tree, budget=common - 1)
    assert err.value.locus == ("common measure", coin2.horizon)


def _budget_inputs(model):
    tree = FcsTree(model)
    pc = build_greedy(model, 0.5, 0.5, tree=tree)
    cc = build_common_greedy(model, pc, 0.5, 0.5, tree=tree)
    return tree, pc, cc


def test_session_memo_keeps_the_budget(coin2):
    # Each count passes at N and raises at N - 1 where a fresh session does,
    # the second time round after the session has memoised every measurement.
    tree, pc, cc = _budget_inputs(coin2)
    s = Session(tree, pc, cc)
    private = sum(
        len(tree.reachable_fps(node)) * coin2.num_joint_actions
        for t in range(1, coin2.horizon + 1)
        for node in tree.full_level(t).nodes
    )
    common = sum(
        len(s.pairs(node)) for t in range(1, coin2.horizon + 1) for node in s.level(t).nodes)
    classes = [(t, cls) for t in range(coin2.horizon, 0, -1) for cls in s.classes(t)]
    label_rows = sum(len(s.pairs(cls[1][0])) for _t, cls in classes)
    last_t, last = classes[-1]
    for _round in range(2):
        measure_private(coin2, s, budget=private)
        with pytest.raises(BudgetExceededError) as err:
            measure_private(coin2, s, budget=private - 1)
        assert err.value.locus == ("private measure", coin2.horizon)
        measure_common(coin2, s, cc, budget=common)
        with pytest.raises(BudgetExceededError) as err:
            measure_common(coin2, s, cc, budget=common - 1)
        assert err.value.locus == ("common measure", coin2.horizon)
        solve_ascs_asps(coin2, s, cc, budget=label_rows)
        with pytest.raises(BudgetExceededError) as err:
            solve_ascs_asps(coin2, s, cc, budget=label_rows - 1)
        assert err.value.locus == (last_t, last[0])


def test_verify_gap_budget_holds_on_a_session(coin2):
    # ``verify_gaps`` gives its whole budget to each step in turn, so it needs
    # the largest count of them and, one short, raises where the first step
    # with that count raises on a fresh tree.
    tree, pc, cc = _budget_inputs(coin2)
    steps = [
        lambda t, b: measure_private(coin2, pc, tree=t, budget=b),
        lambda t, b: measure_common(coin2, pc, cc, tree=t, budget=b),
        lambda t, b: solve_fcs_fps(coin2, t, budget=b),
        lambda t, b: solve_fcs_asps(coin2, pc, t, budget=b),
        lambda t, b: solve_ascs_asps(coin2, pc, cc, tree=t, budget=b),
    ]

    def count(step):
        low, high = 0, 10**6  # the smallest budget the step passes on
        while low < high:
            mid = (low + high) // 2
            try:
                step(FcsTree(coin2), mid)
                high = mid
            except BudgetExceededError:
                low = mid + 1
        return low

    counts = [count(step) for step in steps]
    need = max(counts)
    with pytest.raises(BudgetExceededError) as first:
        steps[counts.index(need)](FcsTree(coin2), need - 1)
    s = Session(tree, pc, cc)
    for _round in range(2):
        assert verify_gaps(coin2, s, cc, budget=need).passed
        with pytest.raises(BudgetExceededError) as err:
            verify_gaps(coin2, s, cc, budget=need - 1)
        assert err.value.locus == first.value.locus
