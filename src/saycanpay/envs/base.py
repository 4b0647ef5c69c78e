"""Environment interface: symbolic states, episodes, and a generic BFS."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass

from ..core import ActionInstance, ContractError, GoalSpec, InfeasibleActionError

DEFAULT_MAX_STEPS = 20
SPLITS = ("train", "test", "test-generalize")


class SymbolicState:
    """Base class for immutable per-environment symbolic states."""

    env_id: str = ""


@dataclass(frozen=True)
class EpisodeSpec:
    """One planning problem: goal, initial observation, hidden start state."""

    env_id: str
    goal: GoalSpec
    init_obs: str
    init_state: SymbolicState
    split: str
    seed: int
    max_steps: int = DEFAULT_MAX_STEPS

    @property
    def episode_id(self) -> str:
        return f"{self.env_id}-{self.split}-{self.seed:08d}"


class Environment(ABC):
    """Deterministic text-world with symbolic transitions.

    All methods are pure; one shared instance per environment id is safe to
    use from concurrent workers.
    """

    env_id: str = ""

    def __init__(self):
        self._vocab_cache: dict = {}

    def __init_subclass__(cls, **kwargs):
        # perfbench's tracer wraps step and precondition_holds in each env
        # class's own __dict__, so each subclass holds its own binding.
        super().__init_subclass__(**kwargs)
        for name in ("step", "precondition_holds"):
            setattr(cls, name, getattr(cls, name))

    @abstractmethod
    def sample_episode(self, seed: int, split: str) -> EpisodeSpec: ...

    @abstractmethod
    def _vocabulary(self, spec: EpisodeSpec) -> list[ActionInstance]: ...

    @abstractmethod
    def _move_violation(
        self, state: SymbolicState, action: ActionInstance
    ) -> str | None:
        """The condition a non-done `action` violates in `state`, or None when
        it applies; an action foreign to this env raises ContractError."""

    @abstractmethod
    def _apply(self, state: SymbolicState, action: ActionInstance) -> SymbolicState:
        """The successor of `state` under a feasible non-done `action`."""

    @abstractmethod
    def is_goal(self, state: SymbolicState, goal: GoalSpec) -> bool: ...

    def violation(
        self, state: SymbolicState, goal: GoalSpec, action: ActionInstance
    ) -> str | None:
        """The precondition `action` violates in `state`, or None when it
        holds: done needs the goal, a move the env's own rule."""
        if action.is_done:
            return None if self.is_goal(state, goal) else "goal not reached"
        return self._move_violation(state, action)

    def precondition_holds(
        self, state: SymbolicState, goal: GoalSpec, action: ActionInstance
    ) -> bool:
        return self.violation(state, goal, action) is None

    def applicable(
        self, state: SymbolicState, goal: GoalSpec, actions: list[ActionInstance]
    ) -> list[ActionInstance]:
        """The actions whose precondition holds in `state`, in the given order;
        a foreign action raises ContractError, as in precondition_holds."""
        return [a for a in actions if self.precondition_holds(state, goal, a)]

    def step(
        self, state: SymbolicState, goal: GoalSpec, action: ActionInstance
    ) -> SymbolicState:
        """The successor of `state`; an infeasible action raises
        InfeasibleActionError carrying its violation."""
        violated = self.violation(state, goal, action)
        if violated is not None:
            raise InfeasibleActionError(action.text, violated)
        return state if action.is_done else self._apply(state, action)

    @abstractmethod
    def render_observation(self, state: SymbolicState) -> str: ...

    @abstractmethod
    def state_to_json(self, state: SymbolicState) -> dict: ...

    @abstractmethod
    def state_from_json(self, payload: dict) -> SymbolicState: ...

    def admissible_actions(self, spec: EpisodeSpec) -> list[ActionInstance]:
        """Episode-level action vocabulary (feasible and otherwise), sorted."""
        key = (spec.goal, spec.init_state)
        cached = self._vocab_cache.get(key)
        if cached is None:
            cached = sorted(self._vocabulary(spec), key=lambda a: a.text)
            self._vocab_cache[key] = cached
        return list(cached)

    def action_from_text(self, spec: EpisodeSpec, text: str) -> ActionInstance:
        for action in self.admissible_actions(spec):
            if action.text == text:
                return action
        raise ContractError(f"{text!r} is not in the episode vocabulary")

    def check_seed_split(self, seed: int, split: str) -> None:
        if seed < 0:
            raise ContractError("seed must be >= 0")
        if split not in SPLITS:
            raise ContractError(f"unknown split {split!r}")


def breadth_first_plan(
    env: Environment, spec: EpisodeSpec, start_state: SymbolicState | None = None
) -> list[ActionInstance] | None:
    """Minimal action sequence (including the done action) to the goal.

    Expansion follows lexicographic action order, so the result is
    deterministic. Each expanded state asks the env once for its applicable
    moves. Returns None when no plan of length <= max_steps exists.
    """
    vocab = env.admissible_actions(spec)
    done = next(a for a in vocab if a.is_done)
    moves = [a for a in vocab if not a.is_done]
    goal = spec.goal
    state = spec.init_state if start_state is None else start_state
    if env.is_goal(state, goal):
        return [done]
    frontier = deque([(state, 0)])
    parents: dict = {state: None}
    max_moves = spec.max_steps - 1
    while frontier:
        current, depth = frontier.popleft()
        if depth >= max_moves:
            continue
        for action in env.applicable(current, goal, moves):
            nxt = env.step(current, goal, action)
            if nxt in parents:
                continue
            parents[nxt] = (current, action)
            if env.is_goal(nxt, goal):
                path = [done]
                node = nxt
                while parents[node] is not None:
                    prev, act = parents[node]
                    path.append(act)
                    node = prev
                path.reverse()
                return path
            frontier.append((nxt, depth + 1))
    return None
