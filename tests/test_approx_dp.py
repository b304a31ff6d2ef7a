"""Compressed-prescription sweeps: extension semantics, pointwise dominance,
and losslessness under exact compressions."""

import pytest

from ciplan.approx_dp import solve_ascs_asps, solve_fcs_asps
from ciplan.compression import (
    Session,
    bcs_common,
    build_exact_private,
    build_greedy,
    identity_common,
    identity_private,
)
from ciplan.exact_dp import (
    BudgetExceededError,
    evaluate_coordinator_policy,
    solve_fcs_fps,
)
from ciplan.histories import FcsTree, enumerate_prescriptions


def test_identity_extension_is_verbatim(coin2):
    # With history-valued labels the label prescription and its extension are
    # the same object up to canonical ordering.
    tree = FcsTree(coin2)
    pc = identity_private(coin2, tree)
    _o0, root, _p = tree.roots()[0]
    pairs = Session(tree, pc).pairs(root)
    assert [lam.key for lam, _gamma in pairs] == [
        lam.key for lam in enumerate_prescriptions(coin2, root.agent_domains)
    ]
    for lam, gamma in pairs:
        assert gamma.key == lam.key


def test_extension_acts_classwise(coin2):
    tree = FcsTree(coin2)
    pc = build_greedy(coin2, 10.0, 2.0, tree=tree)
    _o0, root, _p = tree.roots()[0]
    for lam, gamma in Session(tree, pc).pairs(root):
        for n, domain in enumerate(root.agent_domains):
            for h in domain:
                z = pc.label_of(1, root.seq, n, h)
                assert gamma.action_for(n, h) == lam.action_for(n, z)


def test_restricted_sweep_never_exceeds_exact(coin2, small_models):
    for model in [coin2] + small_models:
        tree = FcsTree(model)
        exact, _ = solve_fcs_fps(model, tree)
        pc = build_greedy(model, 0.4, 0.4, tree=tree)
        restricted, _ = solve_fcs_asps(model, pc, tree=tree)
        for key, entry in restricted.entries.items():
            assert entry.value <= exact.entries[key].value + 1e-9
        assert restricted.overall_value <= exact.overall_value + 1e-9


def test_exact_compression_loses_nothing(coin2, small_models):
    for model in [coin2] + small_models:
        tree = FcsTree(model)
        exact, _ = solve_fcs_fps(model, tree)
        pc = build_exact_private(model, tree)
        restricted, policy = solve_fcs_asps(model, pc, tree=tree)
        assert restricted.overall_value == pytest.approx(
            exact.overall_value, abs=1e-9
        )
        for key, entry in restricted.entries.items():
            assert entry.value == pytest.approx(exact.entries[key].value, abs=1e-9)
        assert evaluate_coordinator_policy(model, policy) == pytest.approx(
            exact.overall_value, abs=1e-9
        )


def test_label_sweep_matches_restricted_under_identity_common(coin2):
    # Singleton common labels reduce the label recursion to the restricted
    # sweep node for node.
    tree = FcsTree(coin2)
    pc = build_greedy(coin2, 0.4, 0.4, tree=tree)
    cc = identity_common(coin2, pc, tree)
    restricted, _ = solve_fcs_asps(coin2, pc, tree=tree)
    table, policy, label_policy = solve_ascs_asps(coin2, pc, cc, tree=tree)
    s = Session(tree, pc)
    for t in range(1, coin2.horizon + 1):
        for node in s.level(t).nodes:
            assert table.entries[(t, cc.label_of(t, node.seq))].value == pytest.approx(
                restricted.entries[(t, node.seq)].value, abs=1e-9
            )
    assert table.overall_value == pytest.approx(restricted.overall_value, abs=1e-9)
    # The replayable policy is the chosen label prescription extended
    # everywhere, so replaying it recovers the same value.
    assert evaluate_coordinator_policy(coin2, policy) == pytest.approx(
        table.overall_value, abs=1e-9
    )
    for (t, label), lam in label_policy.items():
        assert table.entries[(t, label)].argmax_key == lam.key


def test_belief_common_labels_lose_nothing(coin2, small_models):
    for model in [coin2] + small_models:
        tree = FcsTree(model)
        exact, _ = solve_fcs_fps(model, tree)
        pc = build_exact_private(model, tree)
        cc = bcs_common(model, pc, tree)
        table, policy, _lp = solve_ascs_asps(model, pc, cc, tree=tree)
        assert table.overall_value == pytest.approx(exact.overall_value, abs=1e-9)
        assert evaluate_coordinator_policy(model, policy) == pytest.approx(
            exact.overall_value, abs=1e-9
        )


def test_lossy_label_sweep_replay_is_consistent(coin2):
    # Even for a lossy merge the returned policy must replay to a well-defined
    # value computable by the exact evaluator; the label table's own value may
    # differ from it by at most the verified bound (checked elsewhere).
    tree = FcsTree(coin2)
    pc = build_greedy(coin2, 10.0, 2.0, tree=tree)
    from ciplan.compression import build_common_greedy

    cc = build_common_greedy(coin2, pc, 1.0, 1.0, tree=tree)
    table, policy, _lp = solve_ascs_asps(coin2, pc, cc, tree=tree)
    replayed = evaluate_coordinator_policy(coin2, policy)
    assert replayed <= solve_fcs_fps(coin2, tree)[0].overall_value + 1e-9
    assert abs(replayed - table.overall_value) < 10.0  # finite, well-defined


def test_budget_guards(coin2):
    pc = identity_private(coin2)
    with pytest.raises(BudgetExceededError):
        solve_fcs_asps(coin2, pc, budget=3)
    cc = identity_common(coin2, pc)
    with pytest.raises(BudgetExceededError) as err:
        solve_ascs_asps(coin2, pc, cc, budget=2)
    assert err.value.budget == 2
