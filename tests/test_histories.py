"""Coordinator tree construction against a raw trajectory-enumeration oracle."""

import ast
import copy
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ciplan
from ciplan import exact_dp
from ciplan.approx_dp import solve_fcs_asps
from ciplan.belief import solve_bcs_fps
from ciplan.compression import PrivateCompression, Session, build_greedy
from ciplan.generate import random_model
from ciplan.histories import (
    FcsNode,
    FcsTree,
    Prescription,
    PrescriptionDomainError,
    UnreachableNodeError,
    enumerate_prescriptions,
    prescription_count,
)
from ciplan.model import ADMISSIBILITY_THRESHOLD
from conftest import node_at


def oracle_level2_weights(model, gamma, o0_1, o0_2):
    """P(s2, joint histories | o0 sequence, gamma) computed straight from the
    tensors, one trajectory at a time.  Independent of FcsTree internals."""
    raw = {}
    for s1 in range(model.num_states):
        p1 = float(model.initial[s1])
        for obs1 in model.iter_joint_obs():
            if obs1.common != o0_1:
                continue
            p2 = p1 * float(
                model.observation[s1, model.joint_obs_index(obs1.common, obs1.private)]
            )
            if p2 <= ADMISSIBILITY_THRESHOLD:
                continue
            h1 = tuple((o,) for o in obs1.private)
            a = gamma.act(h1)
            a_idx = model.joint_action_index(a)
            for s2 in range(model.num_states):
                p3 = p2 * float(model.transition[s1, a_idx, s2])
                for obs2 in model.iter_joint_obs():
                    if obs2.common != o0_2:
                        continue
                    p4 = p3 * float(
                        model.observation[
                            s2, model.joint_obs_index(obs2.common, obs2.private)
                        ]
                    )
                    if p4 <= ADMISSIBILITY_THRESHOLD:
                        continue
                    h2 = tuple(
                        h + (an, on) for h, an, on in zip(h1, a, obs2.private)
                    )
                    raw[(s2, h2)] = raw.get((s2, h2), 0.0) + p4
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items()}, total


def test_roots_match_direct_computation(coin2):
    tree = FcsTree(coin2)
    roots = tree.roots()
    assert sum(p for _o, _n, p in roots) == pytest.approx(1.0)
    for o0, node, _p in roots:
        assert node.t == 1
        assert node.seq == (o0,)
        assert sum(w for _k, w in node.weights) == pytest.approx(1.0)


def test_child_weights_match_trajectory_oracle(coin2):
    tree = FcsTree(coin2)
    _o0, root, _p = tree.roots()[0]
    for gamma in enumerate_prescriptions(coin2, root.agent_domains):
        for o0, child, p_branch in tree.expand(root, gamma):
            expected, total = oracle_level2_weights(coin2, gamma, root.seq[0], o0)
            got = dict(child.weights)
            assert set(got) == set(expected)
            for k, v in expected.items():
                assert got[k] == pytest.approx(v, abs=1e-12)
            # branch probability = unconditional mass / root mass
            root_mass = sum(pp for _o, _n, pp in tree.roots() if _n is root)
            assert p_branch == pytest.approx(total / root_mass, abs=1e-12)


def test_child_weights_match_oracle_random(small_models):
    for model in small_models:
        tree = FcsTree(model)
        for _o0r, root, _p in tree.roots():
            gamma = enumerate_prescriptions(model, root.agent_domains)[0]
            for o0, child, _pb in tree.expand(root, gamma):
                expected, _tot = oracle_level2_weights(model, gamma, root.seq[0], o0)
                got = dict(child.weights)
                assert set(got) == set(expected)
                for k, v in expected.items():
                    assert got[k] == pytest.approx(v, abs=1e-12)


def test_prescription_canonical_order():
    class FakeModel:
        actions = (("x", "y"), ("x", "y"))

    domains = ((("h1",), ("h2",)), (("g1",),))
    prescs = enumerate_prescriptions(FakeModel, domains)
    assert len(prescs) == prescription_count(FakeModel, domains) == 8
    # Last agent's last slot varies fastest.
    assert prescs[0].entries == (((("h1",), 0), (("h2",), 0)), ((("g1",), 0),))
    assert prescs[1].entries == (((("h1",), 0), (("h2",), 0)), ((("g1",), 1),))
    assert prescs[2].entries == (((("h1",), 0), (("h2",), 1)), ((("g1",), 0),))
    assert prescs[-1].entries == (((("h1",), 1), (("h2",), 1)), ((("g1",), 1),))


def test_empty_domain_rejected():
    class FakeModel:
        actions = (("x", "y"),)

    with pytest.raises(PrescriptionDomainError):
        enumerate_prescriptions(FakeModel, ((),))


def test_prescription_lookup_and_errors():
    p = Prescription((((("h",), 1),), ((("g",), 0),)))
    assert p.action_for(0, ("h",)) == 1
    assert p.act((("h",), ("g",))) == (1, 0)
    assert dict(p.entries[0]) == {("h",): 1}
    with pytest.raises(PrescriptionDomainError):
        p.action_for(0, ("missing",))


def test_level_nodes_cover_and_dedupe(coin2):
    tree = FcsTree(coin2)
    level1 = tree.full_level(1).nodes
    assert [n.seq for n in level1] == [n.seq for _o, n, _p in tree.roots()]
    level2 = tree.full_level(2).nodes
    seqs = [n.seq for n in level2]
    assert len(seqs) == len(set(seqs))
    # coin2 has one root and sixteen level-1 prescriptions over a single
    # common observation, one child each.
    assert len(level2) == 16


def test_reachable_fps_consistency(coin2):
    tree = FcsTree(coin2)
    for node in tree.full_level(2).nodes:
        fps = tree.reachable_fps(node)
        assert sum(f.probability for f in fps) == pytest.approx(1.0)
        for f in fps:
            assert sum(f.state_probabilities) == pytest.approx(f.probability)


def test_extend_by_labels_constant_on_classes(coin2):
    # Every history at the root shares label 0, so the extension must give
    # each agent's whole domain the action the label prescription assigns.
    tree = FcsTree(coin2)
    _o0, root, _p = tree.roots()[0]
    domains = root.agent_domains
    theta = {
        (root.t, root.seq, n, h): 0 for n, domain in enumerate(domains) for h in domain
    }
    pc = PrivateCompression(coin2.num_agents, coin2.horizon, theta=theta)
    lam = Prescription((((0, 1),), ((0, 0),)))
    gamma = dict(Session(tree, pc).pairs(root))[lam]
    assert all(len(domain) > 1 for domain in domains)
    assert all(a == 1 for _h, a in gamma.entries[0])
    assert all(a == 0 for _h, a in gamma.entries[1])
    assert [h for h, _a in gamma.entries[0]] == list(domains[0])


# -- the batch kernel against the scalar expansion -------------------------


def _hex_children(children):
    return [
        (o0, child.seq, [(key, w.hex()) for key, w in child.weights], p.hex())
        for o0, child, p in children
    ]


def assert_batch_matches_scalar(model, pc=None):
    """Every node the batch kernel made, and its children under every
    prescription it was expanded with, equal a fresh tree's scalar
    ``expand``: same sequences, domains, and weights and masses bit for bit,
    both through a scalar ``expand`` on the batch tree, which returns the
    nodes the kernel made, and through each level record's edges.  Under
    ``pc`` the kernel expands the label-prescription subtree, from the
    forward pass of alg 2."""
    tree = FcsTree(model)
    if pc is None:
        records = [tree.full_level(t) for t in range(1, model.horizon + 1)]

        def gammas(node):
            return enumerate_prescriptions(model, node.agent_domains)
    else:
        solve_fcs_asps(model, pc, tree)
        s = Session(tree, pc)
        records = [s.level(t) for t in range(1, model.horizon + 1)]

        def gammas(node):
            return [gamma for _lam, gamma in s.pairs(node)]
    scalar = FcsTree(model)
    for record, below in zip(records, records[1:]):
        made = []
        for i, node in enumerate(record.nodes):
            ref = node_at(scalar, node.seq)
            assert node.agent_domains == ref.agent_domains
            assert [w.hex() for _k, w in node.weights] == [w.hex() for _k, w in ref.weights]
            assert record.gammas[i] == gammas(node)
            for k, gamma in enumerate(gammas(node)):
                want = scalar.expand(ref, gamma)
                assert _hex_children(tree.expand(node, gamma)) == _hex_children(want)
                edges = [(below.nodes[c], record.mass[c]) for c in record.children(i, k)]
                got = [(child.seq[-1], child, p) for child, p in edges]
                assert _hex_children(got) == _hex_children(want)
                made += [child.seq for _o0, child, _p in want]
        # The level holds the children for node, for prescription, for o0.
        assert [node.seq for node in below.nodes] == made


SHAPES = st.fixed_dictionaries({
    "num_states": st.sampled_from([2, 3]),
    "private_obs_sizes": st.sampled_from([(1, 1), (2, 1)]),
    "num_common_obs": st.sampled_from([1, 2]),
    "action_sizes": st.sampled_from([(2, 2), (3, 2)]),
})


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), SHAPES)
def test_batch_expansion_matches_scalar_expand(seed, shape):
    model = random_model(seed, horizon=2, **shape)
    assert_batch_matches_scalar(model)
    assert_batch_matches_scalar(model, build_greedy(model, 0.5, 0.5))


def test_batch_expansion_matches_scalar_expand_three_deep():
    assert_batch_matches_scalar(random_model(5, num_common_obs=2, horizon=3))


def test_batch_expansion_matches_scalar_expand_on_coin2(coin2):
    assert_batch_matches_scalar(coin2)
    tree = FcsTree(coin2)
    pc = build_greedy(coin2, 0.5, 0.5, tree=tree)
    s = Session(tree, pc)
    # The labels merge histories, so label and history columns differ.
    assert any(
        len(labels) < len(hists)
        for t in range(1, coin2.horizon + 1)
        for node in s.level(t).nodes
        for labels, hists in zip(pc.label_map(node)[0], node.agent_domains)
    )
    assert_batch_matches_scalar(coin2, pc)


# -- one forward step ------------------------------------------------------


def _scopes(path: Path, found) -> set[str]:
    """The functions, as dotted scopes, that hold an AST node for which
    ``found`` holds, in one source file."""
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if found(child):
                scopes.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return scopes


def _dynamics_readers(path: Path) -> set[str]:
    """The scopes that read ``.transition`` or ``.observation``."""
    return _scopes(path, lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr in ("transition", "observation")
        and isinstance(node.ctx, ast.Load)
    ))


def _callers(method: str, owner: str | None = None) -> set[tuple[str, str]]:
    """``(module, scope)`` of every call of a method of this name in
    ``ciplan``; given an ``owner``, of ``owner.method`` only."""
    return {
        (path.stem, scope)
        for path in Path(ciplan.__file__).parent.glob("*.py")
        for scope in _scopes(path, lambda node: (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
            and (owner is None or getattr(node.func.value, "id", None) == owner)
        ))
    }


def test_only_the_forward_step_and_the_oracle_read_the_dynamics():
    # Outside the model itself, the batched forward step is the one code that
    # multiplies the transition by the observation tensor; the brute-force
    # oracle keeps its own scalar reads so that it stays independent of it.
    allowed = {
        ("histories", "_successors"),
        ("exact_dp", "_TrajectoryCache._arrivals"),
        ("exact_dp", "_TrajectoryCache.items_at"),
    }
    readers = {
        (path.stem, scope)
        for path in Path(ciplan.__file__).parent.glob("*.py")
        if path.name != "model.py"
        for scope in _dynamics_readers(path)
    }
    assert ("histories", "_successors") in readers
    assert readers <= allowed


def test_one_builder_expands_the_levels():
    # The full levels and the compressed subtree's levels are the only two
    # level expansions; the sweep's forward pass reads them and expands
    # nothing, and the μ masses, the common and private edges and the
    # condition checks walk their records.
    assert _callers("expand_rows") == {
        ("histories", "FcsTree.full_level"),
        ("compression", "Session.level"),
    }
    walkers = {("exact_dp", "generic_solve"), ("compression", "Session.mu"),
               ("compression", "Session.mu.build"), ("compression", "_common_edges"),
               ("compression", "_private_edges"), ("belief", "check_spi"),
               ("verify", "check_lemmas")}
    assert not walkers & (_callers("expand_rows") | _callers("expand"))
    assert not hasattr(exact_dp._Level, "gammas")


def _child_bits(child, mass) -> tuple:
    return child.seq, [(k, w.hex()) for k, w in child.weights], mass.hex()


def _snapshot(tree) -> dict:
    """The tree's attributes, with a copy of each dict and list."""
    return {
        name: copy.copy(value) if isinstance(value, (dict, list)) else value
        for name, value in vars(tree).items()
    }


def test_scalar_expand_serves_only_the_fallback_and_the_oracle(coin2):
    # The level records are the one store of nodes and edges: the scalar
    # expansion computes children afresh for the sweep below its prepared
    # depths and for the brute-force oracle, and keeps none of them.
    assert _callers("expand") == {
        ("exact_dp", "_Level.children"),
        ("exact_dp", "_count_policies"),
        ("exact_dp", "_iter_policies"),
    }
    tree = FcsTree(coin2)
    _o0, root, _p = tree.roots()[0]
    gamma = enumerate_prescriptions(coin2, root.agent_domains)[0]
    before = _snapshot(tree)
    first = tree.expand(root, gamma)
    again = tree.expand(root, gamma)
    # Each expansion makes the same children again and stores nothing.
    assert [_child_bits(child, p) for _o0, child, p in again] == [
        _child_bits(child, p) for _o0, child, p in first
    ]
    assert _snapshot(tree) == before
    assert not hasattr(tree, "_children")


def test_only_the_full_levels_build_atom_columns():
    # A level built below keeps its nodes' atoms as columns, and a subtree's
    # first depth is the full one: ``Atoms.of`` builds the roots' only.
    assert _callers("of", owner="Atoms") == {("histories", "FcsTree.full_level")}


# -- one store for a level-built node's atoms -------------------------------


def test_sweeps_derive_no_level_built_weights(coin2, monkeypatch):
    # Algs 1 and 2 on a fresh tree, then alg 4, read every level-built
    # node's atoms off its level's columns: none derives its ``weights``.
    # After alg 1 every depth is prepared, so algs 2 and 4 run the level
    # pass, alg 4's keys read off each level's shared lists; alg 4 right
    # after alg 1, on a tree of its own, does the same.
    reads = []
    weights = FcsNode.weights

    def counted(node):
        if len(node.atoms) > 1:  # a level-built node, which holds columns
            reads.append(node.seq)
        return weights.fget(node)

    for model in (coin2, random_model(5, num_states=2, horizon=3, num_common_obs=2)):
        pc = build_greedy(model)
        tree, alone = FcsTree(model), FcsTree(model)
        with monkeypatch.context() as patch:
            patch.setattr(FcsNode, "weights", property(counted))
            exact_dp.solve_fcs_fps(model, tree)
            exact_dp.solve_fcs_fps(model, alone)
            patch.setattr(exact_dp, "_sweep_depth_first", lambda *args: pytest.fail("depth-first"))
            solve_fcs_asps(model, pc, tree)
            solve_bcs_fps(model, tree)
            solve_bcs_fps(model, alone)
        assert len(tree._levels) == model.horizon
        assert reads == []
        # Derived on demand, they are the scalar expansion's, bit for bit.
        scalar = FcsTree(model)
        for node in tree.full_level(model.horizon).nodes:
            want = node_at(scalar, node.seq).weights
            assert [(k, w.hex()) for k, w in node.weights] == [(k, w.hex()) for k, w in want]


def test_expand_accepts_level_built_nodes_of_its_own_tree(coin2):
    # ``expand`` works on a level-built node and makes the level's children
    # again, bit for bit; a node of another model's tree is refused.
    model = random_model(5, num_states=2, horizon=3, num_common_obs=2)
    tree, other = FcsTree(model), FcsTree(coin2)
    level, below = tree.full_level(2), tree.full_level(3)
    foreign = other.full_level(2).nodes[0]
    for i, node in enumerate(level.nodes):
        for k, gamma in enumerate(level.gammas[i]):
            children = [_child_bits(child, p) for _o0, child, p in tree.expand(node, gamma)]
            assert children == [
                _child_bits(below.nodes[c], level.mass[c]) for c in level.children(i, k)
            ]
        assert tree.reachable_fps(node)
    for method in (lambda node: tree.expand(node, level.gammas[0][0]), tree.reachable_fps):
        with pytest.raises(UnreachableNodeError):
            method(foreign)
