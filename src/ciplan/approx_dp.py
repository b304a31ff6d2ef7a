"""Dynamic programs over compressed prescription spaces.

The first solver keeps the full coordinator tree but restricts the
prescription space to extensions of label-domain prescriptions, so its value
can only fall below the exact sweep.  The second additionally merges
coordinator nodes through a common compression and runs the recursion on
labels, with rewards and transitions taken as reference-measure mixtures over
each label's preimage nodes.
"""

from __future__ import annotations

import numpy as np

from .compression import CommonCompression, PrivateCompression, Session
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
    s = Session.of(model, pc, tree)
    return generic_solve(model, s.tree, pc=s, budget=budget)


def solve_ascs_asps(
    model: DecPomdpModel,
    pc: PrivateCompression,
    cc: CommonCompression,
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
    s = Session.of(model, pc, tree, cc)
    tree = s.tree
    table = ValueTable(horizon=model.horizon)
    label_policy: dict = {}
    chosen: dict = {}
    evals = 0

    for t in range(model.horizon, 0, -1):
        for cls in s.classes(t):
            label, _nodes, _weights, domains = cls
            rows = tree._action_rows(tuple(map(len, domains)))
            evals += len(rows)
            if evals > budget:
                raise BudgetExceededError((t, label), budget)
            q, law = s.mixture(t, cls)
            q = q.copy()
            if t < model.horizon:
                keys = [tree._prescription(domains, row).key for row in rows]
                # Row by row, the successors in ascending o0 with positive mass.
                for o0 in range(law.shape[1]):
                    for k in np.flatnonzero(law[:, o0] > 0.0).tolist():
                        z_next = cc.next_label(t, label, keys[k], o0)
                        q[k] += law[k, o0] * table.entries[(t + 1, z_next)].value
            # Ties resolve to the smallest canonical index.
            best = int(np.argmax(q))
            lam = tree._prescription(domains, rows[best])
            qs = q.tolist()
            table.entries[(t, label)] = ValueEntry(
                value=qs[best],
                argmax_index=best,
                argmax_key=lam.key,
                q_values=tuple(qs),
            )
            label_policy[(t, label)] = lam
            chosen[(t, label)] = rows[best]

    policy = CoordinatorPolicy()
    for t in range(1, model.horizon + 1):
        for node in s.level(t).nodes:
            row = chosen[(t, cc.label_of(t, node.seq))]
            policy.prescriptions[node.seq] = tree._prescription(
                node.agent_domains, row[s.label_map(node)[1]])

    overall = 0.0
    for _o0, root, p in tree.roots():
        overall += p * table.entries[(1, cc.label_of(1, root.seq))].value
    table.overall_value = overall
    return table, policy, label_policy
