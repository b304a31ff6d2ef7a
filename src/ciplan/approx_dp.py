"""Dynamic programs over compressed prescription spaces.

The first solver keeps the full coordinator tree but restricts the
prescription space to extensions of label-domain prescriptions, so its value
can only fall below the exact sweep.  The second additionally merges
coordinator nodes through a common compression and runs the recursion on
labels, with rewards and transitions taken as reference-measure mixtures over
each label's preimage nodes.
"""

from __future__ import annotations

from .compression import (
    CommonCompression,
    PrivateCompression,
    _node_reward_and_branches,
    extension,
    mu_levels,
    subtree_levels,
)
from .exact_dp import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CoordinatorPolicy,
    ValueEntry,
    ValueTable,
    generic_solve,
)
from .histories import FcsTree, enumerate_prescriptions
from .model import DecPomdpModel


def solve_fcs_asps(
    model: DecPomdpModel,
    pc: PrivateCompression,
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward sweep over the coordinator tree with extended prescriptions.

    Identical recursion to the exact sweep, with the maximization running
    over extensions of label-domain prescriptions only; value entries are
    keyed by node sequence and satisfy V̂ ≤ V pointwise.
    """
    return generic_solve(model, tree, pc=pc, budget=budget)


def solve_ascs_asps(
    model: DecPomdpModel,
    pc: PrivateCompression,
    cc: CommonCompression,
    mu: str = "uniform",
    tree: FcsTree | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ValueTable, CoordinatorPolicy, dict]:
    """Backward sweep keyed by common labels with mixture dynamics.

    Rewards and next-common-observation laws are reference-measure mixtures
    over each label's preimage nodes (the same semantics the common
    measurement uses); successor labels come from the compression's recursive
    update.  Returns the label-keyed value table, a replayable
    history-domain policy (the chosen label prescription extended at every
    preimage node), and the raw ``(t, label) -> prescription`` choice.
    """
    tree = tree or FcsTree(model)
    levels = subtree_levels(model, tree, pc)
    masses = mu_levels(model, tree, pc, mu)
    table = ValueTable(horizon=model.horizon)
    label_policy: dict = {}
    evals = 0

    for t in range(model.horizon, 0, -1):
        classes: dict = {}
        for node in levels[t - 1]:
            classes.setdefault(cc.label_of(t, node.seq), []).append(node)
        for label, members in classes.items():
            total = sum(masses[t - 1][n.seq] for n in members)
            mu_w = {n.seq: masses[t - 1][n.seq] / total for n in members}
            domains = pc.label_domains(members[0], tree.agent_domains(members[0]))
            for node in members[1:]:
                if pc.label_domains(node, tree.agent_domains(node)) != domains:
                    raise ValueError(
                        f"common label {label!r} merges nodes with different "
                        "private label domains"
                    )
            best_val, best_idx, best_key, best_lam = None, -1, None, None
            qs = []
            for idx, lam in enumerate(enumerate_prescriptions(model, domains)):
                evals += 1
                if evals > budget:
                    raise BudgetExceededError((t, label), budget)
                q = 0.0
                mix_obs: dict[int, float] = {}
                for node in members:
                    r, branches = _node_reward_and_branches(
                        tree, node, extension(tree, node, pc, lam)
                    )
                    q += mu_w[node.seq] * r
                    for o0, p in branches.items():
                        mix_obs[o0] = mix_obs.get(o0, 0.0) + mu_w[node.seq] * p
                if t < model.horizon:
                    for o0 in sorted(mix_obs):
                        z_next = cc.next_label(t, label, lam.key, o0)
                        q += mix_obs[o0] * table.entries[(t + 1, z_next)].value
                qs.append(q)
                # Ties resolve to the smallest canonical index.
                if best_val is None or q > best_val:
                    best_val, best_idx, best_key, best_lam = q, idx, lam.key, lam
            table.entries[(t, label)] = ValueEntry(
                value=best_val,
                argmax_index=best_idx,
                argmax_key=best_key,
                q_values=tuple(qs),
            )
            label_policy[(t, label)] = best_lam

    policy = CoordinatorPolicy()
    for t in range(1, model.horizon + 1):
        for node in levels[t - 1]:
            lam = label_policy[(t, cc.label_of(t, node.seq))]
            policy.prescriptions[node.seq] = extension(tree, node, pc, lam)

    overall = 0.0
    for _o0, root, p in tree.roots():
        overall += p * table.entries[(1, cc.label_of(1, root.seq))].value
    table.overall_value = overall
    return table, policy, label_policy
