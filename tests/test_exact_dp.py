"""Exact backward sweep vs brute-force policy enumeration, plus the
omniscient per-history Q function."""

import collections
import dataclasses
import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciplan import exact_dp
from ciplan.approx_dp import solve_fcs_asps
from ciplan.belief import (
    _node_fingerprints,
    check_spi,
    compute_bcs,
    solve_bcs_fps,
    solve_bcs_spi,
)
from ciplan.compression import Session, build_exact_private
from ciplan.exact_dp import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    InadmissibleHistoryError,
    brute_force_value,
    evaluate_coordinator_policy,
    solve_fcs_fps,
    solve_report,
    supervisor_q,
)
from ciplan.generate import random_model
from ciplan.histories import (
    FcsTree,
    enumerate_prescriptions,
    level_nodes,
    prescription_actions,
    prescription_from_row,
)
from ciplan.model import DecPomdpModel


def test_coin2_value_matches_hand_derivation(coin2):
    # Guessing along one's own current signal is optimal at both steps:
    # per step 0.25*0.8 + 0.25*0.7 + 0.5*(0.8*0.7) = 0.655.
    table, _ = solve_fcs_fps(coin2)
    assert table.overall_value == pytest.approx(2 * 0.655, abs=1e-9)


def test_coin2_matches_brute_force(coin2):
    table, _ = solve_fcs_fps(coin2)
    assert table.overall_value == pytest.approx(brute_force_value(coin2), abs=1e-9)


def test_random_models_match_brute_force(small_models):
    for model in small_models:
        table, _ = solve_fcs_fps(model)
        assert table.overall_value == pytest.approx(
            brute_force_value(model), abs=1e-9
        )


def test_policy_replay_reproduces_value(small_models):
    for model in small_models:
        table, policy = solve_fcs_fps(model)
        assert evaluate_coordinator_policy(model, policy) == pytest.approx(
            table.overall_value, abs=1e-9
        )


def test_value_entries_cover_all_reachable_nodes(coin2):
    tree = FcsTree(coin2)
    table, _ = solve_fcs_fps(coin2, tree)
    times = sorted({t for t, _k in table.entries})
    assert times == [1, 2]
    for (t, key), entry in table.entries.items():
        assert entry.q_values[entry.argmax_index] == pytest.approx(entry.value)
        assert max(entry.q_values) == pytest.approx(entry.value)


def test_argmax_prefers_smallest_canonical_index():
    # All-zero rewards tie every prescription; the first canonical index wins.
    model = random_model(5, num_states=2, private_obs_sizes=(1, 1), horizon=2)
    zero = DecPomdpModel(
        **{
            **{f: getattr(model, f) for f in (
                "num_agents", "states", "actions", "common_obs", "private_obs",
                "transition", "observation", "initial", "horizon",
            )},
            "reward": np.zeros_like(model.reward),
            "reward_bound": 0.0,
        }
    )
    table, _ = solve_fcs_fps(zero)
    assert all(e.argmax_index == 0 for e in table.entries.values())
    assert table.overall_value == pytest.approx(0.0)


def test_budget_guard_fails_loudly(coin2):
    with pytest.raises(BudgetExceededError) as err:
        solve_fcs_fps(coin2, budget=3)
    assert err.value.budget == 3
    with pytest.raises(BudgetExceededError):
        brute_force_value(coin2, budget=10)


def test_supervisor_q_mixture_identity(coin2):
    # The coordinator Q of a prescription equals the history-probability
    # mixture of per-history omniscient Q values.
    tree = FcsTree(coin2)
    table, policy = solve_fcs_fps(coin2, tree)
    _o0, root, _p = tree.roots()[0]
    prescs = enumerate_prescriptions(coin2, root.agent_domains)
    entry = table.entries[(1, root.seq)]
    fps = tree.reachable_fps(root)
    for idx, gamma in enumerate(prescs):
        mixture = sum(
            f.probability * supervisor_q(coin2, tree, root, f.histories, gamma, policy)
            for f in fps
        )
        assert mixture == pytest.approx(entry.q_values[idx], abs=1e-9)


def test_supervisor_q_rejects_inadmissible_history(coin2):
    tree = FcsTree(coin2)
    _table, policy = solve_fcs_fps(coin2, tree)
    _o0, root, _p = tree.roots()[0]
    gamma = enumerate_prescriptions(coin2, root.agent_domains)[0]
    bogus = (((9,),) * coin2.num_agents)
    with pytest.raises(InadmissibleHistoryError):
        supervisor_q(coin2, tree, root, bogus, gamma, policy)


def test_solve_report_shape(coin2):
    table, _ = solve_fcs_fps(coin2)
    report = solve_report(table, algorithm="alg1")
    assert report["algorithm"] == "alg1"
    assert report["overall_value"] == pytest.approx(table.overall_value)
    assert len(report["rows"]) == len(table.entries)
    assert report["rows"] == sorted(
        report["rows"], key=lambda r: (r["t"], r["state_key"])
    )


# -- the vectorised Q kernel against the scalar sweep ----------------------

# random_model shapes small enough for ten examples per run.
KERNEL_SHAPES = [
    dict(num_states=2, private_obs_sizes=(2, 2)),
    dict(num_states=3, private_obs_sizes=(2, 1), num_common_obs=2),
    dict(num_states=2, private_obs_sizes=(1, 1), num_common_obs=2, horizon=3),
    dict(num_states=2, private_obs_sizes=(2, 1), action_sizes=(3, 2)),
]


def scalar_sweep(model, tree, pairs, key_fn) -> dict:
    """The scalar backward sweep the kernel replaced, as ``(t, key) -> (Q
    list, (label prescription, extension) pairs)``.

    One prescription at a time, ``q += w * R[s, joint_action_index(gamma.act(h))]``
    over the atoms in stored order, then the children in canonical order;
    ``pairs(node)`` gives ``(label prescription, extension)`` pairs in
    canonical order and the first node reaching a key fills its entry.
    """
    entries: dict = {}

    def solve(node):
        key = (node.t, key_fn(node))
        if key in entries:
            return max(entries[key][0])
        qs, node_pairs = [], pairs(node)
        for _lam, gamma in node_pairs:
            q = 0.0
            for (s, hjoint), w in node.weights:
                q += w * float(model.reward[s, model.joint_action_index(gamma.act(hjoint))])
            if node.t < model.horizon:
                for _o0, child, p in tree.expand(node, gamma):
                    q += p * solve(child)
            qs.append(q)
        entries[key] = qs, node_pairs
        return max(qs)

    for _o0, root, _p in tree.roots():
        solve(root)
    return entries


def scalar_specs(model, tree, pc) -> dict:
    """``name -> (pairs, key_fn)`` of the scalar sweep that each of algs 1, 2,
    4 and 5 reproduces, with alg 2 and alg 5 on ``pc``."""
    session = Session(tree, pc)

    def identity(node):
        return [(g, g) for g in enumerate_prescriptions(model, node.agent_domains)]

    def seq(node):
        return node.seq

    def belief(node):
        return compute_bcs(tree, node).fingerprint

    def label_belief(node):
        label_of = lambda n, h: pc.label_of(node.t, node.seq, n, h)
        return compute_bcs(tree, node, label_of=label_of).fingerprint

    return {
        "alg1": (identity, seq),
        "alg2": (session.pairs, seq),
        "alg4": (identity, belief),
        "alg5": (session.pairs, label_belief),
    }


def kernel_solves(model):
    """``name -> (table, policy, scalar entries)`` for algs 1, 2, 4 and 5, with
    alg 2 and alg 5 on the exact private compression."""
    tree = FcsTree(model)
    pc = build_exact_private(model, tree)
    specs = scalar_specs(model, tree, pc)
    solves = {
        "alg1": lambda: solve_fcs_fps(model, tree),
        "alg2": lambda: solve_fcs_asps(model, pc, tree),
        "alg4": lambda: solve_bcs_fps(model, tree),
        "alg5": lambda: solve_bcs_spi(model, pc, tree),
    }
    return {
        name: (*solve(), scalar_sweep(model, tree, *specs[name]))
        for name, solve in solves.items()
    }


def assert_kernel_matches_scalar(model):
    assert_solves_match_scalar(kernel_solves(model))


def assert_solves_match_scalar(solves):
    exact = solves["alg1"][0].overall_value
    for name, (table, policy, scalar) in solves.items():
        # Lossless compression and belief keys keep the exact value.
        assert table.overall_value == pytest.approx(exact, abs=1e-9), name
        assert table.entries.keys() == scalar.keys(), name
        for key, entry in table.entries.items():
            ref, pairs = scalar[key]
            best = ref.index(max(ref))
            assert [q.hex() for q in entry.q_values] == [q.hex() for q in ref], (name, key)
            assert entry.argmax_index == best, (name, key)
            assert entry.value.hex() == max(ref).hex(), (name, key)
            # Entries record the label prescription, policies its extension.
            lam, gamma = pairs[best]
            assert entry.argmax_key == lam.key, (name, key)
            if name in ("alg1", "alg2"):
                assert policy.at(key[1]) == gamma, (name, key)


def test_kernel_matches_scalar_sweep_on_coin2(coin2):
    assert_kernel_matches_scalar(coin2)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KERNEL_SHAPES))
def test_kernel_matches_scalar_sweep(seed, shape):
    assert_kernel_matches_scalar(random_model(seed, **{"horizon": 2, **shape}))


def with_zeroed_entries(model, seed):
    """``model`` with about a third of its transition and observation entries
    set to zero, each row renormalised (a row left empty becomes uniform)."""
    rng = np.random.default_rng(seed)
    rows = {}
    for name in ("transition", "observation"):
        arr = getattr(model, name).copy()
        arr[rng.random(arr.shape) < 0.3] = 0.0
        arr[arr.sum(-1) == 0] = 1.0
        rows[name] = arr / arr.sum(-1, keepdims=True)
    return dataclasses.replace(model, **rows)


def test_kernel_matches_scalar_sweep_with_uneven_atom_counts():
    # About a third of the transition and observation entries set to zero
    # leave depth-2 nodes of one shape with different numbers of atoms, in
    # the full tree and in the exact compression's labels alike.
    model = with_zeroed_entries(random_model(5, private_obs_sizes=(2, 1)), 5)
    tree = FcsTree(model)
    for pc in (None, Session(tree, build_exact_private(model, tree))):
        level = exact_dp._Level(tree, pc, (tree.full_level if pc is None else pc.level)(2))
        counts = np.diff(level.record.atoms.start)
        assert any(len(set(counts[level.order[lo:hi]])) > 1
                   for lo, hi in zip(level.bounds, level.bounds[1:])), pc
    assert_kernel_matches_scalar(model)


def test_sweeps_keep_the_scalar_bits_across_the_hand_over(coin2, monkeypatch):
    # With a small batch limit the forward pass stops above the leaves: at
    # depth 1 on the horizon-2 models and at depth 2 on the horizon-3 one.
    # Algs 1, 2 and 4 walk the edges of every linked level by position, then
    # expand each node afresh below the last prepared one; alg 5 prepares no
    # level, so it expands at every node.
    monkeypatch.setattr(exact_dp, "_BATCH_ENTRIES", 64)
    calls = collections.Counter()

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(exact_dp._Level, "link", counted("link", exact_dp._Level.link))
    monkeypatch.setattr(FcsTree, "expand", counted("expand", FcsTree.expand))

    def crossing(solve):
        calls.clear()
        return (*solve(), calls["link"], calls["expand"] > 0)

    shallow = random_model(7, **{"horizon": 2, **KERNEL_SHAPES[1]})
    for model in (coin2, shallow, random_model(7, **KERNEL_SHAPES[2])):
        tree = FcsTree(model)
        alg1 = crossing(lambda: solve_fcs_fps(model, tree))
        alg4 = crossing(lambda: solve_bcs_fps(model, tree))
        assert len(tree._levels) == model.horizon - 1
        pc = build_exact_private(model, tree)
        solved = {
            "alg1": alg1,
            "alg2": crossing(lambda: solve_fcs_asps(model, pc, tree)),
            "alg4": alg4,
            "alg5": crossing(lambda: solve_bcs_spi(model, pc, tree)),
        }
        for name, (*_solve, links, expanded) in solved.items():
            assert (links, expanded) == (0 if name == "alg5" else model.horizon - 2, True)
        specs = scalar_specs(model, tree, pc)
        assert_solves_match_scalar({
            name: (table, policy, scalar_sweep(model, tree, *specs[name]))
            for name, (table, policy, *_crossing) in solved.items()
        })


def table_bits(table, policy) -> tuple:
    """Everything a sweep returns, floats as ``float.hex``, in entry order."""
    entries = [
        (key, e.value.hex(), e.argmax_index, e.argmax_key, [q.hex() for q in e.q_values])
        for key, e in table.entries.items()
    ]
    return table.overall_value.hex(), entries, list(policy.prescriptions.items())


def test_prepared_levels_make_no_cache_lookups(coin2, monkeypatch):
    # Once every level is prepared, algs 1, 2 and 4 walk the level edges by
    # position and never call the scalar expansion.
    for model in (coin2, random_model(5, **KERNEL_SHAPES[2])):
        pc = build_exact_private(model)
        want = [
            table_bits(*solve_fcs_fps(model)),
            table_bits(*solve_fcs_asps(model, pc)),
            table_bits(*solve_bcs_fps(model)),
        ]
        tree = FcsTree(model)
        pc = build_exact_private(model, tree)
        for t in range(1, model.horizon + 1):
            level_nodes(tree, t)
        with monkeypatch.context() as patch:
            patch.setattr(FcsTree, "expand", lambda *args: pytest.fail("expand called"))
            got = [
                table_bits(*solve_fcs_fps(model, tree)),
                table_bits(*solve_fcs_asps(model, pc, tree)),
                table_bits(*solve_bcs_fps(model, tree)),
            ]
        assert got == want


def test_prescription_rows_follow_canonical_order(coin2):
    wide = random_model(3, num_states=2, action_sizes=(3, 2), private_obs_sizes=(2, 1))
    for model in (coin2, wide):
        tree = FcsTree(model)
        for node in level_nodes(tree, 2):
            domains = node.agent_domains
            rows = prescription_actions(model, domains)
            prescs = enumerate_prescriptions(model, domains)
            assert rows.shape == (len(prescs), sum(len(d) for d in domains))
            for row, gamma in zip(rows.tolist(), prescs):
                assert row == [a for tbl in gamma.entries for _key, a in tbl]
                assert prescription_from_row(domains, row) == gamma


def test_budget_counts_every_q_evaluation(coin2, small_models):
    pc = build_exact_private(coin2)
    for solve in (
        lambda budget: solve_fcs_fps(coin2, budget=budget),
        lambda budget: solve_fcs_asps(coin2, pc, budget=budget),
        lambda budget: solve_bcs_fps(small_models[2], budget=budget),
    ):
        table, _ = solve(DEFAULT_BUDGET)
        evals = sum(len(e.q_values) for e in table.entries.values())
        solve(evals)
        with pytest.raises(BudgetExceededError):
            solve(evals - 1)


def test_alg1_memo_honours_the_budget(small_models):
    model = small_models[3]
    fresh_table, _ = solve_fcs_fps(model, FcsTree(model))
    evals = sum(len(e.q_values) for e in fresh_table.entries.values())
    with pytest.raises(BudgetExceededError) as fresh_err:
        solve_fcs_fps(model, FcsTree(model), budget=evals - 1)

    tree = FcsTree(model)
    table, policy = solve_fcs_fps(model, tree, budget=evals)
    for budget in (evals, DEFAULT_BUDGET):
        again, again_policy = solve_fcs_fps(model, tree, budget=budget)
        assert again is table and again_policy is policy
    with pytest.raises(BudgetExceededError) as err:
        solve_fcs_fps(model, tree, budget=evals - 1)
    assert err.value.locus == fresh_err.value.locus
    assert solve_report(table, "alg1") == solve_report(fresh_table, "alg1")


@pytest.mark.parametrize("solve", [solve_fcs_fps, solve_bcs_fps], ids=["alg1", "alg4"])
def test_budget_stops_at_a_node_too_large_to_tabulate(coin2, solve):
    # At horizon 4 a depth-4 node of coin2 has 2**32 prescriptions, far more
    # than an action table could hold.  The sweep meets the first one along
    # canonical prescription 0 and the first common observation, and must
    # charge it to the budget before it builds anything for it.
    deep = dataclasses.replace(coin2, horizon=4)
    tree = FcsTree(deep)
    node = tree.roots()[0][1]
    for _ in range(3):
        zeros = prescription_from_row(node.agent_domains, [0] * sum(map(len, node.agent_domains)))
        node = tree.expand(node, zeros)[0][1]
    with pytest.raises(BudgetExceededError) as err:
        solve(deep, budget=10**5)
    assert err.value.locus == node.seq


def test_alg4_expands_only_the_nodes_its_memo_visits():
    # Observations that do not depend on the state make the first common
    # observation uninformative, so beliefs merge across it and alg 4 visits
    # a solved belief's children under its chosen prescription only.  On a
    # fresh tree it creates those nodes and no others: 56 of the 146.
    model = random_model(5, num_states=2, horizon=3, num_common_obs=2)
    model = dataclasses.replace(
        model, observation=np.tile(model.observation[0], (model.num_states, 1)))
    tree = FcsTree(model)
    table, _ = solve_bcs_fps(model, tree)
    assert len(tree._nodes) == 56
    full = FcsTree(model)
    assert sum(len(level_nodes(full, t)) for t in range(1, 4)) == 146
    assert table.overall_value == pytest.approx(solve_fcs_fps(model)[0].overall_value, abs=1e-12)


@pytest.mark.parametrize("alg", ["1", "2", "4", "4-after-1"])
def test_sweeps_leave_no_reference_cycle(coin2, alg):
    # The tree must go as soon as the caller drops it, without a cyclic
    # collection: the automatic collector is off for the whole check.  Alg 4
    # after alg 1 runs the level pass on the levels and layouts alg 1 kept.
    pc = build_exact_private(coin2) if alg == "2" else None
    solve = {
        "1": lambda tree: solve_fcs_fps(coin2, tree),
        "2": lambda tree: solve_fcs_asps(coin2, pc, tree),
        "4": lambda tree: solve_bcs_fps(coin2, tree),
        "4-after-1": lambda tree: (solve_fcs_fps(coin2, tree), solve_bcs_fps(coin2, tree))[1],
    }[alg]
    gc.collect()
    gc.disable()
    try:
        tree = FcsTree(coin2)
        alive = weakref.ref(tree)
        table, policy = solve(tree)
        assert table.overall_value == pytest.approx(1.31, abs=1e-9)
        del tree, table, policy
        assert alive() is None
    finally:
        gc.enable()


def test_alg4_after_alg1_reuses_the_leaf_prescriptions(coin2, monkeypatch):
    # The leaf level keeps the prescriptions alg 1 chose, so alg 4 on the
    # same tree builds no prescription, and its policy holds alg 1's objects.
    for model in (coin2, random_model(5, num_states=2, horizon=4, num_common_obs=2)):
        tree = FcsTree(model)
        _table, policy = solve_fcs_fps(model, tree)
        leaves = tree.full_level(model.horizon)
        assert leaves.chosen == [policy.prescriptions[node.seq] for node in leaves.nodes]
        with monkeypatch.context() as patch:
            patch.setattr(FcsTree, "_prescription", lambda *args: pytest.fail("built again"))
            _table4, policy4 = solve_bcs_fps(model, tree)
        assert all(policy4.prescriptions.get(node.seq, gamma) is gamma
                   for node, gamma in zip(leaves.nodes, leaves.chosen))


def test_prepared_trees_are_solved_by_level(coin2, monkeypatch):
    # Once the forward pass has prepared every depth, algs 1, 2, 4 and 5
    # solve one depth at a time; the keyed sweeps find each key's first node
    # without a fallback here.  A tree the forward pass does not prepare down
    # to its leaves is solved depth-first.
    calls = collections.Counter()
    for name in ("_sweep_levels", "_sweep_depth_first"):
        def counted(*args, name=name, sweep=getattr(exact_dp, name)):
            calls[name] += 1
            return sweep(*args)
        monkeypatch.setattr(exact_dp, name, counted)
    by_level, depth_first = {"_sweep_levels": 1}, {"_sweep_depth_first": 1}
    for model in (coin2, random_model(5, **KERNEL_SHAPES[2])):
        tree = FcsTree(model)
        pc = Session(tree, build_exact_private(model, tree))
        tree.full_level(model.horizon)
        pc.level(model.horizon)
        for want, solve in (
            (by_level, lambda: solve_fcs_fps(model, tree)),
            (by_level, lambda: solve_fcs_asps(model, pc)),
            (by_level, lambda: solve_bcs_fps(model, tree)),
            (by_level, lambda: solve_bcs_spi(model, pc)),
        ):
            calls.clear()
            solve()
            assert calls == want
        with monkeypatch.context() as patch:
            patch.setattr(exact_dp, "_BATCH_ENTRIES", 64)
            calls.clear()
            solve_fcs_fps(model, FcsTree(model))
            assert calls == depth_first


def parent_keys(nodes):
    """An adversarial key: the roots share one key, and so do the children of
    one node with domains of one shape.  Below a node that takes a solved
    entry whose row is not its first, a child of its first row can hold the
    key of the children the depth-first pass visits, unvisited itself."""
    return [(node.seq[:-2], tuple(map(len, node.agent_domains))) for node in nodes]


def first_holder_unvisited(tree, key_fn, policy) -> bool:
    """Whether a node the depth-first pass visits, with this ``policy``, has
    its key first held in its depth's position order by a node it does not."""
    for t in range(1, tree.model.horizon + 1):
        nodes, first = tree.full_level(t).nodes, {}
        for node, key in zip(nodes, key_fn(nodes)):
            holder = first.setdefault(key, node)
            if node.seq in policy.prescriptions and holder.seq not in policy.prescriptions:
                return True
    return False


def keyed_by_level_and_depth_first(model):
    """``name -> (level pass bits, depth-first bits, fell back, expected to)``
    of alg 4, of alg 4 under :func:`parent_keys` and, where the exact
    compression passes its conditions, of alg 5, on a prepared tree and
    session."""
    tree = FcsTree(model)
    tree.full_level(model.horizon)
    pc = Session(tree, build_exact_private(model, tree))
    pc.level(model.horizon)
    solves = {
        "alg4": (lambda: solve_bcs_fps(model, tree), _node_fingerprints),
        "parent keys": (lambda: exact_dp.generic_solve(model, tree, key_fn=parent_keys), parent_keys),
    }
    if check_spi(model, pc).passed:
        solves["alg5"] = (lambda: solve_bcs_spi(model, pc), None)
    out = {}
    for name, (solve, key_fn) in solves.items():
        with mock.patch.object(
            exact_dp, "_sweep_depth_first", wraps=exact_dp._sweep_depth_first
        ) as depth_first:
            by_level = solve()
        with mock.patch.object(exact_dp, "_sweep_levels", lambda *args: None):
            table, policy = solve()
        expected = key_fn and first_holder_unvisited(tree, key_fn, policy)
        out[name] = table_bits(*by_level), table_bits(table, policy), depth_first.called, expected
    return out


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KERNEL_SHAPES), st.booleans())
def test_keyed_level_pass_matches_the_depth_first_pass(seed, shape, zeroed):
    # On a prepared tree and session the keyed sweeps run one depth at a
    # time and give the depth-first pass's bits, in its order, policies
    # included; they hand the tree to that pass exactly where a node it
    # visits has its key first held by a node it does not visit.
    model = random_model(seed, **{"horizon": 2, **shape})
    if zeroed:
        model = with_zeroed_entries(model, seed)
    for name, (by_level, depth_first, fell_back, expected) in keyed_by_level_and_depth_first(
        model
    ).items():
        assert by_level == depth_first, name
        if expected is not None:
            assert fell_back == expected, name


def test_keyed_level_pass_falls_back_to_the_depth_first_pass():
    for model in (random_model(5, **{"horizon": 2, **KERNEL_SHAPES[1]}),
                  random_model(7, **KERNEL_SHAPES[2])):
        by_level, depth_first, fell_back, expected = keyed_by_level_and_depth_first(model)[
            "parent keys"]
        assert fell_back and expected
        assert by_level == depth_first


def test_full_levels_keep_their_rewards(coin2, monkeypatch):
    # Without a compression the rewards depend on the tree alone, so each
    # full level is scored once per tree; label rows are scored by every sweep.
    scored = collections.Counter()
    score = exact_dp._Level.score

    def counted(level):
        scored["full" if level.pc is None else "label"] += 1
        score(level)

    monkeypatch.setattr(exact_dp._Level, "score", counted)
    level_view = exact_dp._Level
    tree = FcsTree(coin2)
    solve_fcs_fps(coin2, tree)
    layouts = [tree.full_level(t).layout for t in range(1, coin2.horizon + 1)]
    views = []
    monkeypatch.setattr(exact_dp, "_Level", lambda *args: views.append(level_view(*args)) or views[-1])
    solve_bcs_fps(coin2, tree)
    assert scored == {"full": coin2.horizon}
    # Nor is a full level laid out again: alg 4 reads alg 1's layout.
    assert len(views) == coin2.horizon and None not in layouts
    assert all(view.record.layout is layout and view.order is layout[0]
               for view, layout in zip(views, layouts))
    pc = Session(tree, build_exact_private(coin2, tree))
    solve_fcs_asps(coin2, pc)
    solve_fcs_asps(coin2, pc)
    assert scored == {"full": coin2.horizon, "label": 2 * coin2.horizon}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_sweeps_give_the_collector_back_as_they_found_it(coin2, monkeypatch, enabled):
    # ``full_level`` and ``generic_solve`` pause the cyclic collector while
    # they work and restore the caller's setting on success and on error.
    seen = []

    def failing(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("stop")

    sweep = exact_dp._sweep_levels

    def watched(*args):
        seen.append(gc.isenabled())
        return sweep(*args)

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        FcsTree(coin2).full_level(coin2.horizon)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(exact_dp, "_sweep_levels", watched)
        solve_fcs_fps(coin2, FcsTree(coin2))
        assert gc.isenabled() is enabled
        with pytest.raises(BudgetExceededError):
            solve_fcs_fps(coin2, FcsTree(coin2), budget=3)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(FcsTree, "expand_rows", failing)
        with pytest.raises(RuntimeError):
            FcsTree(coin2).full_level(coin2.horizon)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


# -- policies cover every node they reach ----------------------------------


def assert_policy_covers_its_nodes(model, policy) -> None:
    """Walk every node the policy reaches from the roots; ``policy.at``
    raises on a node without an entry."""
    tree = FcsTree(model)
    frontier = [node for _o0, node, _p in tree.roots()]
    while frontier:
        node = frontier.pop()
        gamma = policy.at(node.seq)
        if node.t < model.horizon:
            frontier.extend(child for _o0, child, _p in tree.expand(node, gamma))


def test_memo_hits_record_complete_policies(coin2):
    # Six of coin2's 17 nodes share their label belief with a node solved
    # before them; each still gets a policy entry, and replaying the policy
    # from every node gives that node's table value.
    tree = FcsTree(coin2)
    pc = build_exact_private(coin2, tree)
    table, policy = solve_bcs_spi(coin2, pc, tree)
    nodes = [node for t in (1, 2) for node in level_nodes(tree, t)]
    assert len(nodes) == 17 and len(table.entries) == 11
    assert set(policy.prescriptions) == {node.seq for node in nodes}
    for node in nodes:
        label_of = lambda n, h: pc.label_of(node.t, node.seq, n, h)
        key = compute_bcs(tree, node, label_of=label_of).fingerprint
        replay = sum(
            f.probability
            * supervisor_q(coin2, tree, node, f.histories, policy.at(node.seq), policy)
            for f in tree.reachable_fps(node)
        )
        assert replay == pytest.approx(table.entries[(node.t, key)].value, abs=1e-9)


def test_compressed_and_belief_policies_replay_to_their_values(coin2, small_models):
    for model in (coin2, *small_models):
        pc = build_exact_private(model)
        for table, policy in (
            solve_fcs_asps(model, pc),
            solve_bcs_fps(model),
            solve_bcs_spi(model, pc),
        ):
            assert_policy_covers_its_nodes(model, policy)
            assert evaluate_coordinator_policy(model, policy) == pytest.approx(
                table.overall_value, abs=1e-9
            )
