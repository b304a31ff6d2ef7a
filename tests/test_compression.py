"""Compression construction, measurement, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciplan.compression import (
    CompressionFormatError,
    MeasuredParams,
    PrivateCompression,
    RecursiveCheckError,
    bcs_common,
    build_common_greedy,
    build_exact_private,
    build_greedy,
    check_recursive,
    identity_common,
    identity_private,
    load_compression,
    measure_common,
    measure_private,
    reevaluate_common_witness,
    reevaluate_private_witness,
    serialize_compression,
    tv_distance,
)
from ciplan.exact_dp import solve_fcs_fps
from ciplan.histories import FcsTree, level_nodes
from ciplan.model import ADMISSIBILITY_THRESHOLD

from test_belief import uninformative_model


# -- total variation -------------------------------------------------------


def test_tv_distance_examples():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)
    assert tv_distance({"x": 1.0}, {"y": 1.0}) == 1.0


def test_tv_distance_mismatched_universe():
    with pytest.raises(ValueError):
        tv_distance([0.5, 0.5], [1.0])


probs = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6).map(
    lambda xs: [x / sum(xs) for x in xs]
)


@settings(max_examples=60, deadline=None)
@given(st.tuples(probs, probs, probs).filter(lambda pq: len({len(x) for x in pq}) == 1))
def test_tv_distance_is_a_metric(pqr):
    p, q, r = pqr
    assert 0.0 <= tv_distance(p, q) <= 1.0 + 1e-12
    assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


# -- recursive-update checking --------------------------------------------


def test_identity_passes_recursive_check(coin2):
    pc = identity_private(coin2)
    assert check_recursive(coin2, pc).passed


def test_swapped_labels_fail_recursive_check(coin2):
    # Relabel one level-2 entry without touching the update table.
    pc = identity_private(coin2)
    keys = [k for k in pc.theta if k[0] == 2]
    pc.theta[keys[0]] = ("swapped",)
    report = check_recursive(coin2, pc)
    assert not report.passed
    assert report.results[0].witness is not None
    with pytest.raises(RecursiveCheckError):
        measure_private(coin2, pc)


def test_constructed_compressions_pass_recursive_check(coin2):
    tree = FcsTree(coin2)
    for pc in (
        identity_private(coin2, tree),
        build_exact_private(coin2, tree),
        build_greedy(coin2, 0.2, 0.2, tree=tree),
    ):
        assert check_recursive(coin2, pc, tree=tree).passed


# -- private measurement ---------------------------------------------------


def test_identity_private_measures_zero(coin2):
    mp = measure_private(coin2, identity_private(coin2))
    assert mp.eps_p == 0.0 and mp.delta_p == 0.0


def test_exact_private_measures_zero_and_merges(coin2):
    pc = build_exact_private(coin2)
    mp = measure_private(coin2, pc)
    assert mp.eps_p <= 1e-9 and mp.delta_p <= 1e-9
    # Globally shared labels merge far below the item count.
    assert len(set(pc.theta.values())) < len(pc.theta)


def test_greedy_zero_tolerance_equals_exact(coin2):
    assert build_greedy(coin2, 0.0, 0.0).theta == build_exact_private(coin2).theta


def test_irrelevant_private_information_collapses_fully():
    model = uninformative_model()
    pc = build_exact_private(model)
    tree = FcsTree(model)
    for t in range(1, model.horizon + 1):
        for node in level_nodes(tree, t):
            for n in range(model.num_agents):
                labels = {
                    pc.label_of(t, node.seq, n, h)
                    for h in tree.agent_domains(node)[n]
                }
                assert len(labels) == 1
    mp = measure_private(model, pc)
    assert mp.eps_p <= 1e-9 and mp.delta_p <= 1e-9


def test_lossy_merge_matches_hand_mixture(coin2):
    # Merge agent 0's two root histories, keep everything else identity, and
    # reproduce the measured reward discrepancy from the raw tensors.
    tree = FcsTree(coin2)
    pc = identity_private(coin2, tree)
    _o0, root, _p = tree.roots()[0]
    for h in tree.agent_domains(root)[0]:
        pc.theta[(1, root.seq, 0, h)] = "merged"
    mp = measure_private(coin2, pc, tree=tree, check=False)

    # Independent computation at the root: P(s, o1, o2) from the tensors.
    joint = {}
    for s in range(2):
        for o1 in range(2):
            for o2 in range(2):
                joint[(s, o1, o2)] = 0.5 * float(
                    coin2.observation[s, coin2.joint_obs_index(0, (o1, o2))]
                )
    total = sum(joint.values())

    def reward_given(fix_o1, o2, a):
        num = {
            s: sum(
                p
                for (ss, o1, oo2), p in joint.items()
                if ss == s and oo2 == o2 and (fix_o1 is None or o1 == fix_o1)
            )
            for s in range(2)
        }
        mass = sum(num.values())
        a_idx = coin2.joint_action_index(a)
        return sum(w / mass * float(coin2.reward[s, a_idx]) for s, w in num.items())

    sup = max(
        abs(reward_given(o1, o2, a) - reward_given(None, o2, a))
        for o1 in range(2)
        for o2 in range(2)
        for a in coin2.iter_joint_actions()
    )
    assert mp.eps_p == pytest.approx(4 * sup, abs=1e-12)
    assert mp.eps_p > 0.1


def test_private_witnesses_reproduce_suprema(coin2):
    pc = build_greedy(coin2, 0.5, 0.5)
    mp = measure_private(coin2, pc)
    if mp.eps_p > 0:
        assert reevaluate_private_witness(coin2, pc, mp.witnesses["eps_p"]) == mp.eps_p
    if mp.delta_p > 0:
        assert (
            reevaluate_private_witness(coin2, pc, mp.witnesses["delta_p"]) == mp.delta_p
        )


def test_greedy_huge_tolerance_gives_one_label_per_time():
    model = uninformative_model()
    pc = build_greedy(model, 10.0, 2.0)
    for t in range(1, model.horizon + 1):
        for n in range(model.num_agents):
            assert len(pc.alphabet(n, t)) == 1


# -- common measurement ----------------------------------------------------


def test_identity_common_measures_zero(coin2):
    pc = identity_private(coin2)
    mc = measure_common(coin2, pc, identity_common(coin2, pc))
    assert mc.eps_c == 0.0 and mc.delta_c == 0.0


def test_bcs_common_measures_zero(coin2):
    # Belief fingerprints form an exact common compression.
    pc = build_exact_private(coin2)
    cc = bcs_common(coin2, pc)
    mc = measure_common(coin2, pc, cc)
    assert mc.eps_c <= 1e-9 and mc.delta_c <= 1e-9
    assert check_recursive(coin2, cc, pc=pc).passed


def test_bcs_common_merges_when_beliefs_coincide():
    # With irrelevant private information every node at a time step carries
    # the same belief over compressed states, so one label per step remains.
    model = uninformative_model()
    pc = build_exact_private(model)
    cc = bcs_common(model, pc)
    for t in range(1, model.horizon + 1):
        assert len({v for (tt, _s), v in cc.theta0.items() if tt == t}) == 1


def test_lossy_common_merge_matches_hand_mixture(small_models):
    # Force two level-2 nodes with different beliefs into one label and
    # recompute the measured reward deviation by hand.  The fully collapsed
    # private compression makes every node expose the same label domains, so
    # any node pair is mergeable.
    import itertools

    from ciplan.compression import (
        _node_reward_and_branches,
        compressed_prescriptions,
        mu_levels,
        subtree_levels,
    )

    model = small_models[0]
    tree = FcsTree(model)
    pc = build_greedy(model, 10.0, 2.0, tree=tree)
    levels = subtree_levels(model, tree, pc)
    masses = mu_levels(model, tree, pc)

    def deviation(n1, n2):
        w1, w2 = masses[1][n1.seq], masses[1][n2.seq]
        sup = 0.0
        for lam, g1 in compressed_prescriptions(model, tree, n1, pc):
            g2 = next(
                g
                for l2, g in compressed_prescriptions(model, tree, n2, pc)
                if l2.key == lam.key
            )
            r1, _ = _node_reward_and_branches(model, n1, g1)
            r2, _ = _node_reward_and_branches(model, n2, g2)
            mix = (w1 * r1 + w2 * r2) / (w1 + w2)
            sup = max(sup, abs(r1 - mix), abs(r2 - mix))
        return sup

    n1, n2 = max(
        itertools.combinations(levels[1], 2), key=lambda ab: deviation(*ab)
    )
    assert deviation(n1, n2) > 1e-6

    cc = identity_common(model, pc, tree)
    cc.theta0[(2, n1.seq)] = "merged"
    cc.theta0[(2, n2.seq)] = "merged"
    mc = measure_common(model, pc, cc, tree=tree, check=False)
    assert mc.eps_c == pytest.approx(deviation(n1, n2), abs=1e-12)
    assert mc.eps_c > 1e-6


def test_common_witnesses_reproduce_suprema(coin2):
    pc = build_exact_private(coin2)
    cc = build_common_greedy(coin2, pc, 0.5, 0.5)
    mc = measure_common(coin2, pc, cc)
    if mc.eps_c > 0:
        assert (
            reevaluate_common_witness(coin2, pc, cc, mc.witnesses["eps_c"]) == mc.eps_c
        )
    if mc.delta_c > 0:
        assert (
            reevaluate_common_witness(coin2, pc, cc, mc.witnesses["delta_c"])
            == mc.delta_c
        )


def test_common_greedy_passes_recursive_check(coin2):
    pc = build_exact_private(coin2)
    for tol in (0.0, 0.1, 1.0):
        cc = build_common_greedy(coin2, pc, tol, tol)
        assert check_recursive(coin2, cc, pc=pc).passed


# -- refinement monotonicity (restricted form) ----------------------------


def _fully_split_private(pc, node_keys):
    """Refinement giving every (node, history) item at the chosen nodes its
    own label; within-node mixtures elsewhere are unchanged."""
    out = PrivateCompression(num_agents=pc.num_agents, horizon=pc.horizon)
    out.theta = dict(pc.theta)
    for key in out.theta:
        t, seq, _n, _h = key
        if (t, seq) in node_keys:
            out.theta[key] = ("singleton",) + key
    return out


def test_private_full_split_refinement_monotone(coin2):
    tree = FcsTree(coin2)
    pc = build_greedy(coin2, 0.6, 0.6, tree=tree)
    base = measure_private(coin2, pc, tree=tree, check=False)
    node_keys = {(2, node.seq) for node in level_nodes(tree, 2)[:8]}
    refined = _fully_split_private(pc, node_keys)
    after = measure_private(coin2, refined, tree=tree, check=False)
    assert after.eps_p <= base.eps_p + 1e-12
    assert after.delta_p <= base.delta_p + 1e-12
    # Identity is the finest refinement and measures zero.
    ident = measure_private(coin2, identity_private(coin2, tree), tree=tree)
    assert ident.eps_p <= base.eps_p and ident.delta_p <= base.delta_p


def test_common_full_split_refinement_monotone(coin2):
    tree = FcsTree(coin2)
    pc = build_exact_private(coin2, tree)
    cc = build_common_greedy(coin2, pc, 1.0, 1.0, tree=tree)
    base = measure_common(coin2, pc, cc, tree=tree, check=False)
    # Split an entire time step into singletons; classes at other steps keep
    # their membership, so no mixture gets new or lost members.
    refined_theta = dict(cc.theta0)
    for t, seq in list(refined_theta):
        if t == 2:
            refined_theta[(t, seq)] = ("singleton", t, seq)
    from ciplan.compression import CommonCompression

    refined = CommonCompression(horizon=cc.horizon, theta0=refined_theta, phi0={})
    after = measure_common(coin2, pc, refined, tree=tree, check=False)
    assert after.eps_c <= base.eps_c + 1e-12
    assert after.delta_c <= base.delta_c + 1e-12


# -- serialization ---------------------------------------------------------


def test_serialization_roundtrip(coin2):
    pc = build_greedy(coin2, 0.3, 0.3)
    mp = measure_private(coin2, pc)
    text = serialize_compression(pc, measured=mp)
    pc2 = load_compression(text)
    assert pc2.theta == pc.theta and pc2.phi == pc.phi
    assert serialize_compression(pc2, measured=mp) == text

    cc = bcs_common(coin2, build_exact_private(coin2))
    cc2 = load_compression(serialize_compression(cc))
    assert cc2.theta0 == cc.theta0 and cc2.phi0 == cc.phi0


def test_malformed_compression_rejected():
    with pytest.raises(CompressionFormatError):
        load_compression("not json")
    with pytest.raises(CompressionFormatError):
        load_compression('{"kind": "mystery"}')
    with pytest.raises(CompressionFormatError):
        load_compression('{"kind": "private"}')
    with pytest.raises(CompressionFormatError):
        load_compression('{"kind": "common", "horizon": 2, "theta0": 5, "phi0": []}')
    with pytest.raises(CompressionFormatError):
        load_compression("[]")


def test_measured_params_merge():
    a = MeasuredParams(eps_p=1.0, witnesses={"eps_p": ("w",)})
    b = MeasuredParams(eps_c=2.0, witnesses={"eps_c": ("v",)})
    c = a.merged(b)
    assert c.eps_p == 1.0 and c.eps_c == 2.0
    assert set(c.witnesses) == {"eps_p", "eps_c"}
