"""Model container, validation, serialization, and one-step kernels."""

import json

import numpy as np
import pytest

from ciplan.model import (
    ADMISSIBILITY_THRESHOLD,
    DecPomdpModel,
    ModelFormatError,
    ModelValidationError,
    from_dict,
    load_model,
    serialize,
    to_dict,
    validate,
)


def tiny_model(**overrides):
    """Two states, one agent pair of binary actions, deterministic sensing."""
    doc = {
        "num_agents": 2,
        "states": ["s0", "s1"],
        "actions": [["a", "b"], ["a", "b"]],
        "common_obs": ["c0"],
        "private_obs": [["o0"], ["o0"]],
        # transition[s][a1][a2][s'], uniform rows
        "transition": [[[[0.5, 0.5]] * 2] * 2] * 2,
        # observation[s][o0][o1][o2], deterministic single symbol
        "observation": [[[[1.0]]], [[[1.0]]]],
        "reward": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        "initial": [0.5, 0.5],
        "horizon": 2,
    }
    doc.update(overrides)
    return doc


def test_roundtrip_through_dict():
    m = from_dict(tiny_model())
    again = from_dict(to_dict(m))
    assert np.allclose(m.transition, again.transition)
    assert np.allclose(m.observation, again.observation)
    assert again.states == m.states
    assert json.loads(serialize(m)) == to_dict(m)


def test_load_model_rejects_bad_json():
    with pytest.raises(ModelFormatError):
        load_model("{not json")


def test_missing_field_is_format_error():
    doc = tiny_model()
    del doc["transition"]
    with pytest.raises(ModelFormatError):
        from_dict(doc)


def test_agent_axes_in_the_wrong_order_are_format_error():
    # With action sizes (2, 3) the agent axes in the wrong order flatten to the
    # same (S, 6, S) transition and (S, 6) reward, so only the nested shape
    # tells them apart; likewise the private observation axes.
    doc = tiny_model(actions=[["a", "b"], ["a", "b", "c"]])
    doc["transition"] = [[[[0.5, 0.5]] * 2] * 3] * 2
    doc["reward"] = [[[0.0] * 3] * 2] * 2
    with pytest.raises(ModelFormatError) as err:
        from_dict(doc)
    assert str(err.value) == (
        "transition: expected nested shape (2, 2, 3, 2), got (2, 3, 2, 2)"
    )
    doc["transition"] = [[[[0.5, 0.5]] * 3] * 2] * 2
    doc["reward"] = [[[0.0] * 2] * 3] * 2
    with pytest.raises(ModelFormatError, match=r"^reward: .* \(2, 2, 3\), got"):
        from_dict(doc)
    doc["reward"] = [[[0.0] * 3] * 2] * 2
    assert from_dict(doc).transition.shape == (2, 6, 2)
    doc = tiny_model(private_obs=[["o0", "o1"], ["o0"]])
    doc["observation"] = [[[[0.5, 0.5]]]] * 2
    with pytest.raises(ModelFormatError, match=r"^observation: expected"):
        from_dict(doc)


@pytest.mark.parametrize(
    "field, value",
    [("num_agents", None), ("horizon", {"k": 1}), ("private_obs", [1.5]),
     ("states", None), ("reward_bound", []), ("reward_bound", "x")],
)
def test_wrongly_typed_field_is_format_error(field, value):
    with pytest.raises(ModelFormatError):
        from_dict(tiny_model(**{field: value}))


def test_validation_collects_all_violations():
    doc = tiny_model()
    doc["transition"] = [[[[0.9, 0.0]] * 2] * 2] * 2  # rows sum to 0.9
    doc["initial"] = [0.9, 0.0]
    with pytest.raises(ModelValidationError) as err:
        from_dict(doc)
    # Every bad transition row plus the initial row is named.
    assert len(err.value.violations) == 9
    assert any("initial" in v for v in err.value.violations)


def test_negative_probability_rejected():
    doc = tiny_model(initial=[1.5, -0.5])
    with pytest.raises(ModelValidationError) as err:
        from_dict(doc)
    assert any("negative" in v for v in err.value.violations)


def test_reward_bound_must_cover_rewards():
    doc = tiny_model(reward_bound=0.5)
    with pytest.raises(ModelValidationError):
        from_dict(doc)
    with pytest.raises(ModelValidationError) as err:
        load_model(json.dumps(tiny_model(reward_bound=float("inf"))))
    assert err.value.violations == ["reward_bound must be finite"]


def test_non_finite_entries_rejected():
    # abs(nan - 1) > tol is False, so the row-sum check alone lets NaN through.
    with pytest.raises(ModelValidationError) as err:
        load_model(json.dumps(tiny_model(initial=[float("nan"), 1.0])))
    assert "initial has a non-finite entry" in err.value.violations
    doc = tiny_model()
    doc["reward"] = [[[float("inf"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
    with pytest.raises(ModelValidationError) as err:
        from_dict(doc)
    assert "reward has a non-finite entry" in err.value.violations


def test_reward_bound_defaults_to_max_magnitude():
    m = from_dict(tiny_model())
    assert m.reward_bound == pytest.approx(1.0)


def test_joint_indexing_row_major():
    m = from_dict(tiny_model())
    assert m.joint_action_index((0, 0)) == 0
    assert m.joint_action_index((0, 1)) == 1
    assert m.joint_action_index((1, 0)) == 2
    assert m.joint_obs_index(0, (0, 0)) == 0
    assert [a for a in m.iter_joint_actions()] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_joint_action_index_matches_numpy_and_rejects_bad_tuples():
    # Three agents with unequal alphabets, so every stride differs.
    doc = tiny_model(
        num_agents=3,
        actions=[["a", "b", "c"], ["a"], ["a", "b"]],
        private_obs=[["o0"], ["o0"], ["o0"]],
        transition=np.full((2, 3, 1, 2, 2), 0.5).tolist(),
        observation=np.ones((2, 1, 1, 1, 1)).tolist(),
        reward=np.zeros((2, 3, 1, 2)).tolist(),
    )
    m = from_dict(doc)
    for a in m.iter_joint_actions():
        assert m.joint_action_index(a) == np.ravel_multi_index(a, (3, 1, 2))
    assert m.joint_action_index(np.array([2, 0, 1])) == 5
    for bad in [(3, 0, 0), (0, 1, 0), (-1, 0, 0), (0, 0, 2), (0, 0), (0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            m.joint_action_index(bad)


def test_next_joint_distribution_product_rule():
    # Uniform transition over two states with deterministic sensing gives
    # two atoms of mass one half.
    m = from_dict(tiny_model())
    dist = {(s_next, obs): p for s_next, obs, p in m.step(0, m.joint_action_index((0, 0)), 1.0)}
    assert len(dist) == 2
    for p in dist.values():
        assert p == pytest.approx(0.5)
    assert sum(dist.values()) == pytest.approx(1.0)


def test_next_joint_distribution_prunes_null_atoms():
    doc = tiny_model()
    doc["transition"] = [[[[1.0, 0.0]] * 2] * 2] * 2
    m = from_dict(doc)
    dist = [p for _s_next, _obs, p in m.step(1, m.joint_action_index((1, 1)), 1.0)]
    assert all(p > ADMISSIBILITY_THRESHOLD for p in dist)
    assert len(dist) == 1


def test_tensors_are_frozen():
    m = from_dict(tiny_model())
    with pytest.raises(ValueError):
        m.transition[0, 0, 0] = 0.3


def test_validate_direct_call_on_valid(coin2):
    validate(coin2)  # should not raise


def test_coin2_shape(coin2):
    assert coin2.num_agents == 2
    assert coin2.horizon == 2
    assert coin2.num_joint_actions == 4
    assert coin2.num_joint_obs == 4
    assert isinstance(coin2, DecPomdpModel)
