"""Compression construction, measurement, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciplan.approx_dp import solve_ascs_asps, solve_fcs_asps
from ciplan.belief import check_spi
from ciplan.compression import (
    CommonCompression,
    CompressionFormatError,
    MeasuredParams,
    PrivateCompression,
    RecursiveCheckError,
    Session,
    _Blocks,
    _common_edges,
    _common_matrix,
    _compatibility,
    _exactness_split,
    _greedy_partition,
    _history_state_laws,
    _next_obs_distribution,
    _private_matrix,
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
    serialize_compression,
    tv_distance,
)
from ciplan.exact_dp import BudgetExceededError, brute_force_value, solve_fcs_fps
from ciplan.generate import random_model
from ciplan.histories import FcsTree, enumerate_prescriptions, level_nodes, prescription_count
from ciplan.model import ADMISSIBILITY_THRESHOLD, DecPomdpModel, validate

from test_belief import uninformative_model
from test_label_map import (
    scalar_extension,
    scalar_joint_reward,
    scalar_node_profile,
    scalar_reevaluate_common,
    scalar_reevaluate_private,
)


# -- total variation -------------------------------------------------------


def test_tv_distance_examples():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)
    assert tv_distance({"x": 1.0}, {"y": 1.0}) == 1.0


def test_tv_distance_mismatched_universe():
    with pytest.raises(ValueError):
        tv_distance([0.5, 0.5], [1.0])


def probs(size):
    return st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size).map(
        lambda xs: [x / sum(xs) for x in xs]
    )


# Three laws over one universe of 2 to 6 outcomes, drawn without filtering.
@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda size: st.tuples(*[probs(size)] * 3)))
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


def test_identity_private_charges_each_depth_before_expanding_it(coin2):
    # One unit per (node, prescription) pair of the full levels, as alg 1
    # charges them; a depth that does not fit stops the build before the
    # depth below it is expanded.
    pairs = [
        sum(prescription_count(coin2, node.agent_domains) for node in level_nodes(FcsTree(coin2), t))
        for t in (1, 2)
    ]
    assert check_recursive(coin2, identity_private(coin2, budget=sum(pairs))).passed
    for budget, t in ((pairs[0] - 1, 1), (sum(pairs) - 1, 2)):
        tree = FcsTree(coin2)
        with pytest.raises(BudgetExceededError) as info:
            identity_private(coin2, tree, budget=budget)
        assert info.value.locus == ("identity", t)
        assert len(tree._levels) == t
    wide = random_model(1, num_states=2, horizon=3, private_obs_sizes=(2, 2))
    tree = FcsTree(wide)
    with pytest.raises(BudgetExceededError) as info:
        identity_private(wide, tree, budget=1)
    assert info.value.locus == ("identity", 1) and len(tree._levels) == 1


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
                    for h in node.agent_domains[n]
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
    for h in root.agent_domains[0]:
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
    for kind in ("eps_p", "delta_p"):
        if getattr(mp, kind) > 0:
            value = scalar_reevaluate_private(coin2, pc, mp.witnesses[kind], FcsTree(coin2))
            assert value == getattr(mp, kind)


def test_greedy_huge_tolerance_gives_one_label_per_time():
    model = uninformative_model()
    pc = build_greedy(model, 10.0, 2.0)
    for t in range(1, model.horizon + 1):
        for n in range(model.num_agents):
            assert len(pc.alphabet(n, t)) == 1


# -- compatibility matrices against the scalar construction ---------------
#
# The builders decide merges from one boolean matrix per block and repair in
# place.  The scalar pairwise predicates, the agglomeration loop and the full
# edge scan rerun from scratch each round that they replaced are kept here as
# the oracle: every matrix cell must equal its predicate, and both builders
# must separate the same pairs round by round and serialise byte for byte
# what the scalar construction gives.


def _scalar_private_stats(model, tree, levels):
    stats = {}
    for t in range(1, model.horizon + 1):
        for node in levels[t - 1]:
            for n, domain in enumerate(node.agent_domains):
                for h in domain:
                    raw = {}
                    for (s, hjoint), w in node.weights:
                        if hjoint[n] == h:
                            raw[s] = raw.get(s, 0.0) + w
                    mass = sum(raw.values())
                    sdist = {s: w / mass for s, w in raw.items()}
                    rew, obs = {}, {}
                    for a in model.iter_joint_actions():
                        a_idx = model.joint_action_index(a)
                        rew[a] = scalar_joint_reward(model, sdist, a_idx)
                        if t < model.horizon:
                            obs[a] = _next_obs_distribution(model, sdist, a_idx)
                    stats[(t, node.seq, n, h)] = (rew, obs)

    def compatible(i1, i2, tol_r, tol_o):
        rew1, obs1 = stats[i1]
        rew2, obs2 = stats[i2]
        for a in rew1:
            if abs(rew1[a] - rew2[a]) > tol_r:
                return False
            if a in obs1 and tv_distance(obs1[a], obs2[a]) > tol_o:
                return False
        return True

    return compatible


def _scalar_common_stats(model, tree, pc, levels):
    stats = {}
    for t in range(1, model.horizon + 1):
        for node in levels[t - 1]:
            domains = pc.label_map(node)[0]
            profile = {
                lam.key: scalar_node_profile(tree, node, scalar_extension(pc, node, lam))
                for lam in enumerate_prescriptions(model, domains)
            }
            stats[(t, node.seq)] = (domains, profile)

    def compatible(i1, i2, tol_r, tol_o):
        d1, p1 = stats[i1]
        d2, p2 = stats[i2]
        if d1 != d2:
            return False
        for lam_key, (r1, obs1) in p1.items():
            r2, obs2 = p2[lam_key]
            if abs(r1 - r2) > tol_r:
                return False
            if i1[0] < model.horizon and tv_distance(obs1, obs2) > tol_o:
                return False
        return True

    return compatible


def _scalar_partition(items, compatible, separated):
    classes = []
    for item in items:
        for cls in classes:
            if all(
                frozenset((item, other)) not in separated and compatible(item, other)
                for other in cls
            ):
                cls.append(item)
                break
        else:
            classes.append([item])
    return classes


def _scalar_private_edges(tree, pc):
    """Every labelled reachable edge of ``pc`` as ``(phi key, source item,
    successor label)``, node by node in level order, under the scalar
    extension of every label prescription in canonical order."""
    model, theta = tree.model, pc.theta
    for t in range(1, model.horizon):
        for node in level_nodes(tree, t):
            for lam in enumerate_prescriptions(model, pc.label_map(node)[0]):
                gamma = scalar_extension(pc, node, lam)
                for o0, child, _p in tree.expand(node, gamma):
                    for n, table in enumerate(gamma.entries):
                        for h, a in table:
                            for on in range(model.private_obs_sizes[n]):
                                tk = (t + 1, child.seq, n, h + (a, on))
                                if tk in theta:
                                    item = (t, node.seq, n, h)
                                    yield (n, t, theta[item], lam.key, o0, on), item, theta[tk]


def _scalar_update_table(edges):
    first = {}
    for key, item, succ in edges:
        prev = first.setdefault(key, (succ, item))
        if prev[0] != succ:
            return None, (key, prev[1], item)
    return {key: succ for key, (succ, _item) in first.items()}, None


def _scalar_build_greedy(model, tree, tol_r, tol_o):
    """The compression and the pairs each repair round separated."""
    levels = [level_nodes(tree, t) for t in range(1, model.horizon + 1)]
    stats = _scalar_private_stats(model, tree, levels)

    def compatible(a, b):
        return stats(a, b, tol_r, tol_o)

    separated, rounds = set(), []
    while True:
        pc = PrivateCompression(num_agents=model.num_agents, horizon=model.horizon)
        for t in range(1, model.horizon + 1):
            for n in range(model.num_agents):
                items = [
                    (t, node.seq, n, h)
                    for node in levels[t - 1]
                    for h in node.agent_domains[n]
                ]
                for idx, cls in enumerate(_scalar_partition(items, compatible, separated)):
                    for item in cls:
                        pc.theta[item] = idx
        phi, conflict = _scalar_update_table(_scalar_private_edges(tree, pc))
        if conflict is not None:
            split = [conflict[1:]]
        else:
            split = _exactness_split(Session(tree, pc)) if tol_r == tol_o == 0.0 else []
        if not split:
            pc.phi = phi
            return pc, rounds
        rounds.append(split)
        separated.update(frozenset(pair) for pair in split)


def _scalar_build_common_greedy(model, tree, pc, tol_r, tol_o):
    """The compression and the pairs each repair round separated."""
    s = Session(tree, pc)
    levels = [s.level(t).nodes for t in range(1, model.horizon + 1)]
    stats = _scalar_common_stats(model, tree, pc, levels)

    def compatible(a, b):
        return stats(a, b, tol_r, tol_o)

    separated, rounds = set(), []
    while True:
        cc = CommonCompression(horizon=model.horizon)
        for t in range(1, model.horizon + 1):
            items = [(t, node.seq) for node in levels[t - 1]]
            for idx, cls in enumerate(_scalar_partition(items, compatible, separated)):
                for item in cls:
                    cc.theta0[item] = idx
        phi0, conflict = _scalar_update_table(_common_edges(Session(tree, pc), cc))
        if conflict is None:
            cc.phi0 = phi0
            return cc, rounds
        rounds.append([conflict[1:]])
        separated.add(frozenset(conflict[1:]))


def _recorded(build, *args, **kwargs):
    """``build(*args, **kwargs)`` and the pairs each repair round separated."""
    rounds = []
    separate = _Blocks.separate

    def record(blocks, pairs):
        rounds.append(list(pairs))
        return separate(blocks, pairs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Blocks, "separate", record)
        return build(*args, **kwargs), rounds


def _assert_builds_match_scalar(model, tree, tol_r, tol_o, common_tols=None):
    """Both builders separate the scalar construction's pairs round by round
    and serialise its bytes, the common one at ``common_tols`` (by default
    the private tolerances); gives the private compression and the number of
    repair rounds of each build."""
    pc, rounds = _recorded(build_greedy, model, tol_r, tol_o, tree=tree)
    want, want_rounds = _scalar_build_greedy(model, tree, tol_r, tol_o)
    assert rounds == want_rounds
    assert serialize_compression(pc) == serialize_compression(want)
    common_tols = common_tols or (tol_r, tol_o)
    cc, common_rounds = _recorded(build_common_greedy, model, pc, *common_tols, tree=tree)
    want, want_rounds = _scalar_build_common_greedy(model, tree, pc, *common_tols)
    assert common_rounds == want_rounds
    assert serialize_compression(cc) == serialize_compression(want)
    return pc, len(rounds) + 1, len(common_rounds) + 1


def _assert_cells_match(matrix, items, compatible, tol_r, tol_o):
    assert (matrix == matrix.T).all()
    for i in range(len(items)):
        for j in range(i):
            assert matrix[i, j] == compatible(items[i], items[j], tol_r, tol_o), (
                items[i], items[j]
            )


MATRIX_SHAPES = [
    dict(num_states=2, private_obs_sizes=(2, 2)),
    dict(num_states=3, private_obs_sizes=(2, 1), num_common_obs=2),
    dict(num_states=2, num_common_obs=2, action_sizes=(3, 2)),
    dict(num_states=3, private_obs_sizes=(1, 2), num_common_obs=2),
]
MATRIX_TOLERANCES = [(0.0, 0.0), (0.2, 0.1), (0.4, 0.4), (0.5, 0.5)]
SEQUENCE_SEED = 3


@settings(max_examples=12, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(MATRIX_SHAPES),
    st.sampled_from(MATRIX_TOLERANCES),
)
def test_compatibility_matrices_match_scalar_construction(seed, shape, tols):
    tol_r, tol_o = tols
    model = random_model(seed, **shape)
    tree = FcsTree(model)
    levels = [level_nodes(tree, t) for t in range(1, model.horizon + 1)]
    private_compatible = _scalar_private_stats(model, tree, levels)
    for t in range(1, model.horizon + 1):
        nodes = levels[t - 1]
        for n in range(model.num_agents):
            domains = [node.agent_domains[n] for node in nodes]
            items = [(t, node.seq, n, h) for node, dom in zip(nodes, domains) for h in dom]
            sdist = _history_state_laws(model, nodes, domains, n)
            matrix = _private_matrix(model, sdist, t < model.horizon, tol_r, tol_o)
            _assert_cells_match(matrix, items, private_compatible, tol_r, tol_o)

    pc, *_rounds = _assert_builds_match_scalar(model, tree, tol_r, tol_o)
    s = Session(tree, pc)
    common_levels = [s.level(t).nodes for t in range(1, model.horizon + 1)]
    common_compatible = _scalar_common_stats(model, tree, pc, common_levels)
    for t in range(1, model.horizon + 1):
        nodes = common_levels[t - 1]
        matrix = _common_matrix(Session(tree, pc), nodes, t < model.horizon, tol_r, tol_o)
        items = [(t, node.seq) for node in nodes]
        _assert_cells_match(matrix, items, common_compatible, tol_r, tol_o)


@pytest.mark.parametrize("tols", MATRIX_TOLERANCES)
@pytest.mark.parametrize("shape", range(len(MATRIX_SHAPES)))
def test_repair_separates_the_scalar_sequence(shape, tols):
    model = random_model(SEQUENCE_SEED, **MATRIX_SHAPES[shape])
    _assert_builds_match_scalar(model, FcsTree(model), *tols)


def test_repair_resumes_one_block_over_many_rounds():
    # Every private separation of this build falls in one block of time 2,
    # whose relabelled nodes change the edges of their parents at time 1.
    model = random_model(5, num_states=2, horizon=3, num_common_obs=2, action_sizes=(3, 2))
    _pc, rounds, common_rounds = _assert_builds_match_scalar(
        model, FcsTree(model), 0.5, 0.5, common_tols=(0.2, 0.2)
    )
    assert rounds >= 10 and common_rounds >= 5


def test_compatibility_defers_borderline_variation_to_scalar_sum():
    # The summed matrix value sits on the tolerance; the scalar sum decides.
    rewards = np.zeros((2, 1))
    laws = np.array([[[0.3, 0.7]], [[0.5, 0.5]]])
    tol = 0.5 * float(np.abs(laws[0, 0] - laws[1, 0]).sum())
    calls = []

    def scalar_tv(i, j, k):
        calls.append((i, j, k))
        return verdict

    verdict = tol
    assert _compatibility(rewards, laws, 0.0, tol, scalar_tv)[1, 0]
    verdict = np.nextafter(tol, 1.0)
    ok = _compatibility(rewards, laws, 0.0, tol, scalar_tv)
    assert not ok[1, 0] and not ok[0, 1]
    assert calls == [(1, 0, 0), (1, 0, 0)]
    # Far from the tolerance, and at zero tolerance, no scalar sum is needed.
    assert _compatibility(rewards, laws, 0.0, 2 * tol, scalar_tv)[1, 0]
    assert not _compatibility(rewards, laws, 0.0, 0.0, scalar_tv)[1, 0]
    assert len(calls) == 2


def test_greedy_partition_reads_class_rows():
    # Item 2 is compatible with 0 but not with 1, so it cannot join class 0
    # once 1 has; item 3 joins the first class that admits it.
    admit = np.array(
        [
            [1, 1, 1, 0],
            [1, 1, 0, 1],
            [1, 0, 1, 1],
            [0, 1, 1, 1],
        ],
        dtype=bool,
    )
    assert _greedy_partition(admit) == [0, 0, 1, 1]
    admit[0, 1] = admit[1, 0] = False
    assert _greedy_partition(admit) == [0, 1, 0, 1]
    # Resumed after the kept labels of the first two items.
    assert _greedy_partition(admit, [0, 1]) == [0, 1, 0, 1]


def test_builders_charge_matrix_cells_to_budget(coin2):
    tree = FcsTree(coin2)
    cells = sum(
        sum(len(node.agent_domains[n]) for node in level_nodes(tree, t)) ** 2
        for t in range(1, coin2.horizon + 1)
        for n in range(coin2.num_agents)
    )
    build_greedy(coin2, 0.5, 0.5, tree=tree, budget=cells)
    with pytest.raises(BudgetExceededError) as err:
        build_greedy(coin2, 0.5, 0.5, tree=tree, budget=cells - 1)
    assert err.value.locus == ("private block", coin2.horizon, coin2.num_agents - 1)
    with pytest.raises(BudgetExceededError):
        build_exact_private(coin2, tree, budget=cells - 1)

    pc = build_exact_private(coin2, tree)
    s = Session(tree, pc)
    common_cells = sum(len(s.level(t).nodes) ** 2 for t in range(1, coin2.horizon + 1))
    build_common_greedy(coin2, pc, 0.5, 0.5, tree=tree, budget=common_cells)
    with pytest.raises(BudgetExceededError) as err:
        build_common_greedy(coin2, pc, 0.5, 0.5, tree=tree, budget=common_cells - 1)
    assert err.value.locus == ("common block", coin2.horizon)


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

    model = small_models[0]
    tree = FcsTree(model)
    pc = build_greedy(model, 10.0, 2.0, tree=tree)
    s = Session(tree, pc)
    masses = [
        dict(zip([node.seq for node in s.level(t).nodes], s.mu(t)))
        for t in range(1, model.horizon + 1)
    ]

    def deviation(n1, n2):
        w1, w2 = masses[1][n1.seq], masses[1][n2.seq]
        sup = 0.0
        for lam, g1 in s.pairs(n1):
            g2 = next(g for l2, g in s.pairs(n2) if l2.key == lam.key)
            r1, _ = scalar_node_profile(tree, n1, g1)
            r2, _ = scalar_node_profile(tree, n2, g2)
            mix = (w1 * r1 + w2 * r2) / (w1 + w2)
            sup = max(sup, abs(r1 - mix), abs(r2 - mix))
        return sup

    n1, n2 = max(
        itertools.combinations(s.level(2).nodes, 2),
        key=lambda ab: deviation(*ab),
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
    for kind in ("eps_c", "delta_c"):
        if getattr(mc, kind) > 0:
            value = scalar_reevaluate_common(coin2, pc, cc, mc.witnesses[kind], FcsTree(coin2))
            assert value == getattr(mc, kind)


def test_common_greedy_passes_recursive_check(coin2):
    pc = build_exact_private(coin2)
    for tol in (0.0, 0.1, 1.0):
        cc = build_common_greedy(coin2, pc, tol, tol)
        assert check_recursive(coin2, cc, pc=pc).passed


def _common_steps(model, pc, tree_for):
    """``float.hex`` form of the common greedy build, its measurement and the
    label sweep on it, one step at a time; ``tree_for()`` gives the tree of
    each call, and a session as ``pc`` gives its own."""
    cc = build_common_greedy(model, pc, 0.5, 0.5, tree=tree_for())
    yield serialize_compression(cc)
    mc = measure_common(model, pc, cc, tree=tree_for())
    yield mc.eps_c.hex(), mc.delta_c.hex(), sorted(mc.witnesses.items())
    table, policy, _labels = solve_ascs_asps(model, pc, cc, tree=tree_for())
    yield table.overall_value.hex(), sorted(
        (repr(k), e.value.hex(), e.argmax_index, [q.hex() for q in e.q_values])
        for k, e in table.entries.items()
    ), sorted(policy.prescriptions.items())


def _common_session(model, pc, tree_for) -> tuple:
    return tuple(_common_steps(model, pc, tree_for))


class _Unmemoised(dict):
    """A profile memo that stores nothing, so every profile is computed."""

    def __setitem__(self, key, value):
        pass


def _unmemoised_tree(model) -> FcsTree:
    tree = FcsTree(model)
    tree.common_profiles = _Unmemoised()
    return tree


def test_shared_tree_memo_changes_no_bit():
    # Two private compressions with different labels on one tree: the common
    # profiles it memoises are keyed by the tree alone, so neither build sees
    # the other's labels, and every result is the one a fresh tree per call
    # gives with every profile computed anew.
    model = random_model(1, num_states=2, horizon=3, num_common_obs=2)
    shared = FcsTree(model)
    pcs = [build_exact_private(model, shared), build_greedy(model, 0.5, 0.5, tree=shared)]
    assert pcs[0].theta != pcs[1].theta
    fresh = [_common_session(model, pc, lambda: _unmemoised_tree(model)) for pc in pcs]
    for pc, want in zip(pcs, fresh):
        assert _common_session(model, pc, lambda: shared) == want
        assert _common_session(model, pc, lambda: shared) == want
    assert shared.common_profiles

    # The two compressions interleaved step by step on one tree, each through
    # a session of its own.
    steps = [_common_steps(model, Session(shared, pc), lambda: shared) for pc in pcs]
    assert [tuple(outs) for outs in zip(*zip(*steps))] == fresh

    # A compression relabelled after a session read its labels: later calls
    # build their own sessions and see the new labels, as a fresh tree does.
    model = random_model(2, num_states=2, horizon=2, private_obs_sizes=(2, 2))
    shared = FcsTree(model)
    pc = identity_private(model, shared)
    session = Session(shared, pc)
    assert measure_private(model, session, check=False).eps_p == 0.0
    before = _common_session(model, session, lambda: shared)
    _o0, root, _p = shared.roots()[0]
    assert session.label_map(root)[0][0] == root.agent_domains[0]
    for h in root.agent_domains[0]:
        pc.theta[(1, root.seq, 0, h)] = "merged"
    relabelled = measure_private(model, pc, tree=shared, check=False)
    want = measure_private(model, pc, tree=_unmemoised_tree(model), check=False)
    assert relabelled.eps_p > 0.0
    assert (relabelled.eps_p.hex(), relabelled.delta_p.hex(), relabelled.witnesses) == (
        want.eps_p.hex(), want.delta_p.hex(), want.witnesses
    )
    after = _common_session(model, pc, lambda: shared)
    assert after != before
    assert after == _common_session(model, pc, lambda: _unmemoised_tree(model))


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
    common = '{"kind": "common", "horizon": 2, "theta0": [], "phi0": []'
    for measure in ('"gaussian"', "7", "null"):
        with pytest.raises(CompressionFormatError, match="unknown reference measure"):
            load_compression(common + ', "mu": ' + measure + "}")
    assert load_compression(common + "}").theta0 == {}


def test_measured_params_merge():
    a = MeasuredParams(eps_p=1.0, witnesses={"eps_p": ("w",)})
    b = MeasuredParams(eps_c=2.0, witnesses={"eps_c": ("v",)})
    c = a.merged(b)
    assert c.eps_p == 1.0 and c.eps_c == 2.0
    assert set(c.witnesses) == {"eps_p", "eps_c"}


def test_second_builder_reuses_the_state_laws(monkeypatch):
    # The per-(t, agent) state laws depend on the tree alone: a second
    # builder on the same tree computes none, and its labels are the bytes
    # a builder on a fresh tree gives.
    from ciplan import compression

    model = random_model(5, num_states=2, horizon=3, num_common_obs=2)
    tree, calls = FcsTree(model), []
    laws = compression._history_state_laws
    monkeypatch.setattr(
        compression, "_history_state_laws", lambda *args: calls.append(args[-1]) or laws(*args))
    build_exact_private(model, tree)
    assert len(calls) == model.horizon * model.num_agents
    greedy = build_greedy(model, 0.5, 0.5, tree)
    assert len(calls) == model.horizon * model.num_agents
    fresh = build_greedy(model, 0.5, 0.5, FcsTree(model))
    assert serialize_compression(greedy) == serialize_compression(fresh)


def exactness_split_model(horizon):
    """Two states that never change, under a uniform prior.  Agent 0 sees a
    fair coin ``x`` and agent 1 sees ``y = x XOR s``; agent 0 earns 1 when its
    action's index is the state.  Each agent's own history leaves the state
    uniform, yet the joint history fixes it."""
    obs = np.zeros((2, 4))  # (o0, x, y) row-major, one common observation
    for s in range(2):
        for x in range(2):
            obs[s, 2 * x + (x ^ s)] = 0.5
    model = DecPomdpModel(
        num_agents=2,
        states=("s0", "s1"),
        actions=(("a", "b"), ("wait",)),
        common_obs=("c",),
        private_obs=(("x0", "x1"), ("y0", "y1")),
        transition=np.repeat(np.eye(2)[:, None, :], 2, axis=1),
        observation=obs,
        reward=np.eye(2),
        initial=np.full(2, 0.5),
        horizon=horizon,
        reward_bound=1.0,
    )
    validate(model)
    return model


@pytest.mark.parametrize("horizon, value", [(1, 0.5), (2, 1.0)])
def test_zero_tolerance_splits_an_inexact_agent_merge(horizon, value, monkeypatch):
    # Every agent-level law agrees, so the zero-tolerance matrix admits every
    # pair and the closure repair finds no conflict; the merged labels are
    # still not exact, and only the exactness split separates them.
    from ciplan import compression

    model = exactness_split_model(horizon)
    splits = []
    split = compression._exactness_split
    monkeypatch.setattr(
        compression, "_exactness_split", lambda s: splits.append(split(s)) or splits[-1])
    pc = build_exact_private(model)
    assert any(splits)
    mp = measure_private(model, pc)
    assert mp.eps_p == mp.delta_p == 0.0
    assert check_recursive(model, pc).passed
    alg2, _ = solve_fcs_asps(model, pc)
    alg1, _ = solve_fcs_fps(model)
    assert alg2.overall_value == alg1.overall_value == brute_force_value(model) == value
    # An exact compression need not be sufficient private information: at
    # horizon 2, agent 1's label no longer predicts agent 0's.
    report = check_spi(model, pc)
    assert [r.passed for r in report.results] == [True, True, True, horizon == 1]
    assert report.result("SPI4").max_violation == (0.5 if horizon == 2 else 0.0)


def test_private_matrix_decides_borderline_variation_by_scalar_sum(monkeypatch):
    # Its own scalar rule: a pair whose summed total variation sits on
    # ``tol_o`` is decided by ``tv_distance`` of the two scalar laws.  The
    # tolerance is the pair's widest joint action's, so the others pass.
    from ciplan import compression

    model = random_model(3, num_states=3, horizon=2, private_obs_sizes=(2, 1), action_sizes=(3, 2))
    nodes = level_nodes(FcsTree(model), 1)
    sdist = _history_state_laws(model, nodes, [node.agent_domains[0] for node in nodes], 0)
    i, j = 1, 0
    laws = [
        [_next_obs_distribution(model, {s: float(w) for s, w in enumerate(sdist[x]) if w}, a_idx)
         for x in (i, j)]
        for a_idx in range(model.num_joint_actions)
    ]
    summed = [
        0.5 * sum(abs(p.get(o, 0.0) - q.get(o, 0.0)) for o in sorted(set(p) | set(q)))
        for p, q in laws
    ]
    tol_o = max(summed)
    p, q = laws[summed.index(tol_o)]
    calls = []
    monkeypatch.setattr(
        compression,
        "_next_obs_distribution",
        lambda *args: calls.append(args) or _next_obs_distribution(*args),
    )
    cell = _private_matrix(model, sdist, True, np.inf, tol_o)[i, j]
    assert calls
    assert cell == (tv_distance(p, q) <= tol_o)
