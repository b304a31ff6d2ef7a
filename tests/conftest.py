from pathlib import Path

import pytest

from ciplan.generate import random_model
from ciplan.histories import Prescription
from ciplan.model import load_model

DATA = Path(__file__).parent / "data"

# Shapes kept small enough that brute-force policy enumeration stays cheap.
SMALL_SHAPES = [
    (11, dict(num_states=2, private_obs_sizes=(2, 2), num_common_obs=1)),
    (12, dict(num_states=3, private_obs_sizes=(2, 2), num_common_obs=1)),
    (13, dict(num_states=2, private_obs_sizes=(1, 1), num_common_obs=2)),
    (14, dict(num_states=3, private_obs_sizes=(2, 1), num_common_obs=2)),
    (15, dict(num_states=3, private_obs_sizes=(2, 2), num_common_obs=1)),
]


@pytest.fixture(scope="session")
def coin2():
    return load_model((DATA / "coin2.json").read_text())


@pytest.fixture(scope="session")
def small_models():
    return [random_model(seed, horizon=2, **kw) for seed, kw in SMALL_SHAPES]


def node_at(tree, seq):
    """The node of ``seq``, walked from the tree's roots through ``expand``:
    a tree keeps no node registry."""
    node = next(node for o0, node, _p in tree.roots() if o0 == seq[0])
    for key, o0 in zip(seq[1::2], seq[2::2]):
        node = next(child for c, child, _p in tree.expand(node, Prescription(key)) if c == o0)
    return node
