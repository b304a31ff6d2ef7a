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
    _common_classes,
    _mixture,
    compressed_subtree,
    extension,
)
from .exact_dp import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CoordinatorPolicy,
    ValueEntry,
    ValueTable,
    generic_solve,
)
from .histories import FcsTree
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
    levels = compressed_subtree(model, tree, pc, mu)
    table = ValueTable(horizon=model.horizon)
    label_policy: dict = {}
    evals = 0

    for t in range(model.horizon, 0, -1):
        for label, nodes, weights, domains, colmaps in _common_classes(pc, cc, t, levels[t - 1]):
            rows = tree._action_rows(tuple(map(len, domains)))
            best, qs = 0, []
            for idx, row in enumerate(rows):
                evals += 1
                if evals > budget:
                    raise BudgetExceededError((t, label), budget)
                _profiles, q, mix_obs = _mixture(tree, nodes, weights, colmaps, row)
                if t < model.horizon:
                    lam_key = tree._prescription(domains, row).key
                    for o0 in sorted(mix_obs):
                        z_next = cc.next_label(t, label, lam_key, o0)
                        q += mix_obs[o0] * table.entries[(t + 1, z_next)].value
                qs.append(q)
                # Ties resolve to the smallest canonical index.
                if q > qs[best]:
                    best = idx
            lam = tree._prescription(domains, rows[best])
            table.entries[(t, label)] = ValueEntry(
                value=qs[best],
                argmax_index=best,
                argmax_key=lam.key,
                q_values=tuple(qs),
            )
            label_policy[(t, label)] = lam

    policy = CoordinatorPolicy()
    for t in range(1, model.horizon + 1):
        for node, _mass in levels[t - 1]:
            lam = label_policy[(t, cc.label_of(t, node.seq))]
            policy.prescriptions[node.seq] = extension(tree, node, pc, lam)

    overall = 0.0
    for _o0, root, p in tree.roots():
        overall += p * table.entries[(1, cc.label_of(1, root.seq))].value
    table.overall_value = overall
    return table, policy, label_policy
