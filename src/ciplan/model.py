"""Dec-POMDP model container, validation, and one-step stochastic kernels.

The model is a finite tuple: states, per-agent action sets, a common
observation alphabet plus per-agent private alphabets, a transition kernel
``P(s' | s, joint action)``, an observation kernel ``P(o0, o1..oN | s)``
that depends on the current state only, an expected-reward table, a horizon,
and an initial state distribution.

Joint actions and joint observations are flattened to single indices
internally (row-major over the per-agent alphabets); all tensors are numpy
arrays indexed by those flat indices.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

#: Distribution rows must sum to one within this tolerance.
SUM_TOL = 1e-9
#: Probabilities at or below this threshold are treated as unreachable.
ADMISSIBILITY_THRESHOLD = 1e-12
#: Default cap on Q evaluations (or enumerated policies) for every solver.
DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """The configured cap on Q evaluations (or enumerated policies) was hit."""

    def __init__(self, locus, budget: int):
        self.locus = locus
        self.budget = budget
        super().__init__(f"budget of {budget} exceeded at {locus!r}")


class ModelFormatError(ValueError):
    """Raised when a model document cannot be parsed into the expected shape."""


class ModelValidationError(ValueError):
    """Raised when a structurally well-formed model violates its invariants.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("model validation failed:\n" + "\n".join(self.violations))


class JointObservation(NamedTuple):
    """Common observation index plus per-agent private indices."""

    common: int
    private: tuple[int, ...]


@dataclass(frozen=True)
class DecPomdpModel:
    """Immutable Dec-POMDP tuple with flattened kernels.

    Attributes
    ----------
    states, actions, common_obs, private_obs
        Label sets; ``actions`` and ``private_obs`` hold one tuple per agent.
    transition
        Array of shape ``(S, A, S)`` where ``A`` is the joint-action count.
    observation
        Array of shape ``(S, O)`` where ``O = |O0| * prod(|On|)``; the joint
        observation index is row-major over ``(o0, o1, ..., oN)``.
    reward
        Expected-reward array of shape ``(S, A)``.
    initial
        Initial state distribution of shape ``(S,)``.
    """

    num_agents: int
    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    common_obs: tuple[str, ...]
    private_obs: tuple[tuple[str, ...], ...]
    transition: np.ndarray
    observation: np.ndarray
    reward: np.ndarray
    initial: np.ndarray
    horizon: int
    reward_bound: float

    def __post_init__(self):
        for name in ("transition", "observation", "reward", "initial"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- index arithmetic -------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @cached_property
    def action_sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.actions)

    @cached_property
    def private_obs_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.private_obs)

    @property
    def num_joint_actions(self) -> int:
        return int(np.prod(self.action_sizes))

    @property
    def num_joint_obs(self) -> int:
        return len(self.common_obs) * int(np.prod(self.private_obs_sizes))

    @cached_property
    def _action_strides(self) -> tuple[tuple[int, int], ...]:
        """``(size, stride)`` per agent of the row-major joint-action index."""
        strides, stride = [], 1
        for size in reversed(self.action_sizes):
            strides.append((size, stride))
            stride *= size
        return tuple(reversed(strides))

    def joint_action_index(self, a: tuple[int, ...]) -> int:
        """Row-major flat index of a per-agent action tuple; ``ValueError`` for
        a tuple of the wrong length or an index out of range."""
        strides = self._action_strides
        if len(a) != len(strides):
            raise ValueError(f"joint action {tuple(a)!r} has {len(a)} entries, "
                             f"expected {len(strides)}")
        idx = 0
        for an, (size, stride) in zip(a, strides):
            if not 0 <= an < size:
                raise ValueError(f"action index {an!r} out of range in {tuple(a)!r}")
            idx += an * stride
        return int(idx)

    def joint_obs_index(self, o0: int, opriv: tuple[int, ...]) -> int:
        dims = (len(self.common_obs),) + self.private_obs_sizes
        return int(np.ravel_multi_index((o0,) + tuple(opriv), dims))

    def iter_joint_actions(self) -> Iterator[tuple[int, ...]]:
        yield from itertools.product(*(range(k) for k in self.action_sizes))

    def iter_joint_obs(self) -> Iterator[JointObservation]:
        for o0 in range(len(self.common_obs)):
            for opriv in itertools.product(*(range(k) for k in self.private_obs_sizes)):
                yield JointObservation(o0, opriv)

    # -- forward-step kernel ----------------------------------------------

    @cached_property
    def _kernel(self) -> tuple[list, list]:
        """Tables read once from the read-only tensors: per ``(s, a)`` the
        admissible ``(s', P(s'|s,a))`` and per state the nonzero
        ``(o, P(o|s))``, both in index order.  Zero observation atoms are
        dropped here because every product with them fails the admissibility
        test anyway."""
        joint_obs = list(self.iter_joint_obs())
        moves = [
            [
                [(s_next, p) for s_next, p in enumerate(row) if p > ADMISSIBILITY_THRESHOLD]
                for row in per_action
            ]
            for per_action in self.transition.tolist()
        ]
        emits = [
            [(obs, p) for obs, p in zip(joint_obs, row) if p != 0.0]
            for row in self.observation.tolist()
        ]
        return moves, emits

    def emissions(self, s: int, w: float) -> Iterator[tuple[JointObservation, float]]:
        """Admissible ``(o, w * P(o|s))`` in joint-observation index order."""
        for obs, p_obs in self._kernel[1][s]:
            p = w * p_obs
            if p > ADMISSIBILITY_THRESHOLD:
                yield obs, p

    def step(
        self, s: int, a_idx: int, w: float
    ) -> Iterator[tuple[int, JointObservation, float]]:
        """One step of the dynamics from weight ``w`` on state ``s`` under the
        flat joint action ``a_idx``: the admissible atoms ``(s', o, p)`` with
        ``p = (w * P(s'|s,a)) * P(o|s')``, in ``(s', o)`` index order.

        A successor state is admissible when ``P(s'|s,a)`` exceeds
        :data:`ADMISSIBILITY_THRESHOLD`, an atom when ``p`` does.
        """
        moves, emits = self._kernel
        for s_next, p_trans in moves[s][a_idx]:
            base = w * p_trans
            for obs, p_obs in emits[s_next]:
                p = base * p_obs
                if p > ADMISSIBILITY_THRESHOLD:
                    yield s_next, obs, p


def validate(model: DecPomdpModel) -> None:
    """Check every model invariant, raising with the full violation list."""
    violations: list[str] = []
    if model.num_agents < 1:
        violations.append("num_agents must be >= 1")
    if model.horizon < 1:
        violations.append("horizon must be >= 1")
    for name, labels in [("states", model.states), ("common_obs", model.common_obs)]:
        if len(labels) == 0:
            violations.append(f"{name} must be nonempty")
    if len(model.actions) != model.num_agents:
        violations.append("actions must list one alphabet per agent")
    if len(model.private_obs) != model.num_agents:
        violations.append("private_obs must list one alphabet per agent")
    for n, alpha in enumerate(model.actions):
        if len(alpha) == 0:
            violations.append(f"actions[{n}] must be nonempty")
    for n, alpha in enumerate(model.private_obs):
        if len(alpha) == 0:
            violations.append(f"private_obs[{n}] must be nonempty")
    if violations:
        raise ModelValidationError(violations)

    S, A, O = model.num_states, model.num_joint_actions, model.num_joint_obs
    if model.transition.shape != (S, A, S):
        violations.append(
            f"transition has shape {model.transition.shape}, expected {(S, A, S)}"
        )
    if model.observation.shape != (S, O):
        violations.append(
            f"observation has shape {model.observation.shape}, expected {(S, O)}"
        )
    if model.reward.shape != (S, A):
        violations.append(f"reward has shape {model.reward.shape}, expected {(S, A)}")
    if model.initial.shape != (S,):
        violations.append(f"initial has shape {model.initial.shape}, expected {(S,)}")
    if violations:
        raise ModelValidationError(violations)

    def check_rows(arr: np.ndarray, what: str):
        rows = arr.reshape(-1, arr.shape[-1])
        for i, row in enumerate(rows):
            idx = np.unravel_index(i, arr.shape[:-1]) if arr.ndim > 1 else ()
            locus = f"{what}{list(idx)}" if idx else what
            if (row < 0).any():
                violations.append(f"{locus} has a negative entry")
            total = float(row.sum())
            if abs(total - 1.0) > SUM_TOL:
                violations.append(f"{locus} sums to {total:.12g}, expected 1")

    for name in ("transition", "observation", "reward", "initial"):
        if not np.isfinite(getattr(model, name)).all():
            violations.append(f"{name} has a non-finite entry")
    check_rows(model.transition, "transition")
    check_rows(model.observation, "observation")
    check_rows(model.initial[None, :], "initial")
    if not np.isfinite(model.reward_bound):
        violations.append("reward_bound must be finite")
    elif model.reward_bound < 0:
        violations.append("reward_bound must be nonnegative")
    else:
        worst = float(np.abs(model.reward).max()) if model.reward.size else 0.0
        if worst > model.reward_bound + SUM_TOL:
            violations.append(
                f"reward magnitude {worst:.12g} exceeds reward_bound {model.reward_bound:.12g}"
            )
    if violations:
        raise ModelValidationError(violations)


def _nested_to_flat_actions(model_dims: tuple[int, ...], nested, what: str) -> np.ndarray:
    arr = np.asarray(nested, dtype=float)
    if arr.shape != model_dims:
        raise ModelFormatError(f"{what}: expected nested shape {model_dims}, got {arr.shape}")
    return arr


def _json_int(doc: dict, field: str) -> int:
    """``doc[field]``, which must be a JSON integer, neither a float nor a bool."""
    value = doc[field]
    if type(value) is not int:
        # An array or object may be nested too deeply to write back.
        kind = {list: "an array", dict: "an object"}.get(type(value))
        raise TypeError(f"{field} must be an integer, not {kind or json.dumps(value)[:80]}")
    return value


def from_dict(doc: dict) -> DecPomdpModel:
    """Build and validate a model from a parsed document dictionary."""
    try:
        num_agents = _json_int(doc, "num_agents")
        states = tuple(doc["states"])
        actions = tuple(tuple(a) for a in doc["actions"])
        common_obs = tuple(doc["common_obs"])
        private_obs = tuple(tuple(o) for o in doc["private_obs"])
        horizon = _json_int(doc, "horizon")
    except KeyError as exc:
        raise ModelFormatError(f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed field: {exc}") from exc

    S = len(states)
    act_sizes = tuple(len(a) for a in actions)
    obs_sizes = tuple(len(o) for o in private_obs)
    try:
        transition = _nested_to_flat_actions(
            (S,) + act_sizes + (S,), doc["transition"], "transition"
        ).reshape(S, -1, S)
        observation = _nested_to_flat_actions(
            (S, len(common_obs)) + obs_sizes, doc["observation"], "observation"
        ).reshape(S, -1)
        reward = _nested_to_flat_actions(
            (S,) + act_sizes, doc["reward"], "reward"
        ).reshape(S, -1)
        initial = np.asarray(doc["initial"], dtype=float)
    except KeyError as exc:
        raise ModelFormatError(f"missing field {exc.args[0]!r}") from exc
    except ModelFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed tensor: {exc}") from exc

    reward_bound = doc.get("reward_bound")
    if reward_bound is None:
        reward_bound = float(np.abs(reward).max()) if reward.size else 0.0
    try:
        reward_bound = float(reward_bound)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed reward_bound: {exc}") from exc
    model = DecPomdpModel(
        num_agents=num_agents,
        states=states,
        actions=actions,
        common_obs=common_obs,
        private_obs=private_obs,
        transition=transition,
        observation=observation,
        reward=reward,
        initial=initial,
        horizon=horizon,
        reward_bound=reward_bound,
    )
    validate(model)
    return model


def load_model(text: str) -> DecPomdpModel:
    """Parse a JSON model document and validate it.

    Raises
    ------
    ModelFormatError
        On malformed JSON or missing/misshapen fields.
    ModelValidationError
        When the parsed model violates any invariant; all violations are listed.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ModelFormatError("model document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    return from_dict(doc)


def to_dict(model: DecPomdpModel) -> dict:
    """Canonical document form; inverse of :func:`from_dict`."""
    S = model.num_states
    act_sizes = model.action_sizes
    obs_sizes = model.private_obs_sizes
    return {
        "num_agents": model.num_agents,
        "states": list(model.states),
        "actions": [list(a) for a in model.actions],
        "common_obs": list(model.common_obs),
        "private_obs": [list(o) for o in model.private_obs],
        "transition": model.transition.reshape((S,) + act_sizes + (S,)).tolist(),
        "observation": model.observation.reshape(
            (S, len(model.common_obs)) + obs_sizes
        ).tolist(),
        "reward": model.reward.reshape((S,) + act_sizes).tolist(),
        "initial": model.initial.tolist(),
        "horizon": model.horizon,
        "reward_bound": model.reward_bound,
    }


def serialize(model: DecPomdpModel) -> str:
    return json.dumps(to_dict(model), indent=2, sort_keys=True)
