"""Belief states, Bayesian updates, belief-keyed sweeps, and the private
sufficiency conditions."""

import numpy as np
import pytest

from ciplan import belief
from ciplan.belief import (
    SpiConditionError,
    ZeroProbabilityBranchError,
    _node_fingerprints,
    _rounded,
    bayes_update,
    check_spi,
    compute_bcs,
    solve_bcs_fps,
    solve_bcs_spi,
    verify_propositions,
)
from ciplan.compression import (
    PrivateCompression,
    Session,
    build_exact_private,
    identity_private,
)
from ciplan.exact_dp import BudgetExceededError, solve_fcs_fps
from ciplan.generate import random_model
from ciplan.histories import FcsTree, enumerate_prescriptions, prescription_count
from ciplan.model import DecPomdpModel


def constant_spi(model):
    """Labels every private history of every agent 0 (no recursive update)."""
    tree = FcsTree(model)
    pc = PrivateCompression(num_agents=model.num_agents, horizon=model.horizon)
    for t in range(1, model.horizon + 1):
        for node in tree.full_level(t).nodes:
            for n, domain in enumerate(node.agent_domains):
                for h in domain:
                    pc.theta[(t, node.seq, n, h)] = 0
    return pc


def uninformative_model(seed=21):
    """Private information is irrelevant: observation rows are uniform and
    transitions ignore the joint action, so no history tells an agent
    anything the common prior does not."""
    base = random_model(seed, num_states=2, private_obs_sizes=(2, 2), horizon=2)
    obs = np.full_like(base.observation, 1.0 / base.num_joint_obs)
    trans = np.repeat(
        base.transition[:, :1, :], base.num_joint_actions, axis=1
    )
    return DecPomdpModel(
        **{
            **{f: getattr(base, f) for f in (
                "num_agents", "states", "actions", "common_obs", "private_obs",
                "reward", "initial", "horizon", "reward_bound",
            )},
            "observation": obs,
            "transition": trans,
        }
    )


def test_recursive_update_matches_direct_bcs(coin2, small_models):
    # Criterion: Bayesian updating a belief along any reachable edge gives the
    # same atoms as computing the child's belief from scratch.
    for model in [coin2] + small_models:
        tree = FcsTree(model)
        for t in range(1, model.horizon):
            for node in tree.full_level(t).nodes:
                belief = compute_bcs(tree, node)
                for gamma in enumerate_prescriptions(model, node.agent_domains):
                    for o0, child, _p in tree.expand(node, gamma):
                        updated = bayes_update(model, belief, gamma, o0)
                        direct = compute_bcs(tree, child)
                        assert set(dict(updated.atoms)) == set(dict(direct.atoms))
                        for k, v in direct.atoms:
                            assert dict(updated.atoms)[k] == pytest.approx(v, abs=1e-9)


def test_zero_probability_branch_rejected(coin2):
    tree = FcsTree(coin2)
    _o0, root, _p = tree.roots()[0]
    belief = compute_bcs(tree, root)
    gamma = enumerate_prescriptions(coin2, root.agent_domains)[0]
    with pytest.raises(ZeroProbabilityBranchError):
        bayes_update(coin2, belief, gamma, o0=7)


def test_fingerprint_rounds_to_nine_decimals(coin2):
    tree = FcsTree(coin2)
    _o0, root, _p = tree.roots()[0]
    b = compute_bcs(tree, root)
    jitter = tuple((k, p + 1e-12) for k, p in b.atoms)
    from ciplan.belief import BeliefState

    assert BeliefState(t=b.t, atoms=jitter).fingerprint == b.fingerprint


def test_node_fingerprint_is_the_belief_fingerprint(coin2, small_models, monkeypatch):
    # The alg-4 keys read the fingerprints straight off the nodes' weights, a
    # whole depth at once or one node at a time; they must be the belief's
    # own fingerprints, tuple for tuple and float for float, roots included.
    def bits(fingerprint):
        t, atoms = fingerprint
        return t, [(key, w.hex()) for key, w in atoms]

    randoms = [random_model(seed, **shape) for seed in (3, 11) for shape in (
        dict(num_states=2, horizon=3, num_common_obs=2),
        dict(num_states=3, private_obs_sizes=(2, 1), num_common_obs=2),
    )]
    batched = []
    monkeypatch.setattr(belief, "_rounded", lambda x: batched.append(len(x)) or _rounded(x))
    for model in (coin2, small_models[1], small_models[3], *randoms):
        tree = FcsTree(model)
        for t in range(1, model.horizon + 1):
            nodes = tree.full_level(t).nodes
            want = [bits(compute_bcs(tree, node).fingerprint) for node in nodes]
            assert [bits(fp) for fp in _node_fingerprints(nodes)] == want
            # One node at a time, as the depth-first pass asks, is rounded by
            # ``round``: numpy on a handful of weights costs more than it saves.
            del batched[:]
            assert [bits(_node_fingerprints([node])[0]) for node in nodes] == want
            assert batched == []
            # Part of a level, and its nodes out of order, are read alike.
            assert [bits(fp) for fp in _node_fingerprints(nodes[1::2])] == want[1::2]
            assert [bits(fp) for fp in _node_fingerprints(nodes[::-1])] == want[::-1]


def test_rounding_helper_is_round_to_nine_decimals():
    rng = np.random.default_rng(9)
    values = np.concatenate([
        rng.random(20_000),
        rng.random(2_000) ** 12,
        np.arange(200_001) / 2e9,  # every exact decimal tie k/2e9 up to 1e-4
        rng.integers(0, 2_000_000_001, 20_000) / 2e9,
        [0.0, 1.0, 0.5, 2.0**-30, 1 - 2.0**-53],
    ])
    got = _rounded(values)
    assert all(isinstance(v, float) for v in got)
    want = [round(v, 9) for v in values.tolist()]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_belief_keyed_sweep_matches_exact(coin2, small_models):
    for model in [coin2] + small_models:
        exact, _ = solve_fcs_fps(model)
        keyed, _ = solve_bcs_fps(model)
        assert keyed.overall_value == pytest.approx(exact.overall_value, abs=1e-9)


def test_belief_values_agree_with_node_values(coin2):
    # Every reachable node's exact value equals the value stored under its
    # belief fingerprint.
    tree = FcsTree(coin2)
    exact, _ = solve_fcs_fps(coin2, tree)
    keyed, _ = solve_bcs_fps(coin2, tree)
    for t in range(1, coin2.horizon + 1):
        for node in tree.full_level(t).nodes:
            fp = compute_bcs(tree, node).fingerprint
            assert keyed.entries[(t, fp)].value == pytest.approx(
                exact.entries[(t, node.seq)].value, abs=1e-9
            )


def test_identity_spi_passes_all_conditions(coin2):
    report = check_spi(coin2, identity_private(coin2))
    assert report.passed
    assert [r.condition for r in report.results] == ["SPI1", "SPI2", "SPI3", "SPI4"]
    for r in report.results:
        assert r.max_violation <= 1e-9


def test_constant_spi_fails_when_signals_matter(coin2):
    # coin2 rewards depend on the private signal, so collapsing histories to
    # one label must violate reward sufficiency with a concrete witness.
    report = check_spi(coin2, constant_spi(coin2))
    assert not report.passed
    spi2 = report.result("SPI2")
    assert not spi2.passed
    assert spi2.witness is not None
    assert spi2.max_violation > 1e-3


def test_constant_spi_valid_on_uninformative_model():
    model = uninformative_model()
    spi = constant_spi(model)
    assert check_spi(model, spi).passed
    exact, _ = solve_fcs_fps(model)
    table, _ = solve_bcs_spi(model, spi)
    assert table.overall_value == pytest.approx(exact.overall_value, abs=1e-9)


def test_identity_spi_sweep_matches_exact(coin2):
    exact, _ = solve_fcs_fps(coin2)
    table, _ = solve_bcs_spi(coin2, identity_private(coin2))
    assert table.overall_value == pytest.approx(exact.overall_value, abs=1e-9)


def test_exact_compression_spi_sweep_matches_exact(coin2):
    spi = build_exact_private(coin2)
    assert check_spi(coin2, spi).passed
    exact, _ = solve_fcs_fps(coin2)
    table, _ = solve_bcs_spi(coin2, spi)
    assert table.overall_value == pytest.approx(exact.overall_value, abs=1e-9)


def test_shared_root_label_fails_spi1(coin2):
    # Agent 0's two root histories share one label while their successors
    # keep their own, so one (label, prescription, increments) update has
    # two successor labels.
    spi = identity_private(coin2)
    roots = [key for key in spi.theta if key[0] == 1 and key[2] == 0]
    assert len({key[3] for key in roots}) == 2
    for key in roots:
        spi.theta[key] = "shared"
    spi1 = check_spi(coin2, spi).result("SPI1")
    assert not spi1.passed
    assert spi1.max_violation == 1.0
    assert spi1.witness == ((0,), 0, (1,), (1, 0, 0), (0, 0, 0), (1, 0, 0))


def test_failing_spi_map_rejected_by_solver(coin2):
    with pytest.raises(SpiConditionError):
        solve_bcs_spi(coin2, constant_spi(coin2))


def test_spi3_report_notes_consistent_pair_restriction(coin2):
    report = check_spi(coin2, identity_private(coin2))
    assert "consistent" in report.result("SPI3").note


def test_verify_propositions_no_counterexamples(coin2):
    pcs = [identity_private(coin2), build_exact_private(coin2)]
    report = verify_propositions(coin2, pcs)
    assert report.passed
    names = [r.condition for r in report.results]
    assert "bcs_is_exact_common" in names
    # Both exact compressions satisfy the premises, so both implications are
    # actually exercised for each.
    assert sum("joint_prediction" in n for n in names) == 2
    assert sum("agent_reward" in n for n in names) == 2


def test_check_spi_honours_the_budget(coin2):
    # One unit per (node, prescription) pair the first and third conditions
    # scan, charged a depth at a time before its scan.
    tree = FcsTree(coin2)
    pc = identity_private(coin2, tree)
    pairs = sum(
        prescription_count(coin2, node.agent_domains)
        for t in range(1, coin2.horizon)
        for node in tree.full_level(t).nodes
    )
    assert check_spi(coin2, pc, tree, budget=pairs).passed
    for budget in (1, pairs - 1):
        with pytest.raises(BudgetExceededError) as info:
            check_spi(coin2, pc, tree, budget=budget)
        assert info.value.locus == ("spi", 1)


def test_verify_propositions_honours_the_budget(coin2):
    with pytest.raises(BudgetExceededError) as info:
        verify_propositions(coin2, [build_exact_private(coin2)], budget=1)
    assert info.value.locus == ("identity", 1)
    # Given the caller's identity session, the first charge is the measurement's.
    tree = FcsTree(coin2)
    identity = Session(tree, identity_private(coin2, tree))
    with pytest.raises(BudgetExceededError) as info:
        verify_propositions(coin2, [build_exact_private(coin2, tree)], tree, 1, identity)
    assert info.value.locus == ("common measure", 1)
