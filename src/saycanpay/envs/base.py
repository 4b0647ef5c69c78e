"""Environment interface: symbolic states, episodes, and a generic BFS."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, fields

from ..core import ActionInstance, ContractError, GoalSpec, InfeasibleActionError

DEFAULT_MAX_STEPS = 20
SPLITS = ("train", "test", "test-generalize")


class SymbolicState:
    """Base class for immutable per-environment symbolic states: frozen
    dataclasses whose fields are JSON values, with tuples for lists."""


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

    An env states its domain: its state type, the draw of an episode, its
    moves, their precondition rule and effect, the goal test and the
    rendering. This class owns the rest: the seeded draw stream, the episode
    record, the done action and the state's JSON form.

    All methods are pure; one shared instance per environment id is safe to
    use from concurrent workers.
    """

    env_id: str = ""
    done_text: str = ""  # the text of the env's one done action
    state_type: type = SymbolicState  # the env's frozen state dataclass

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
    def _moves(self, state: SymbolicState) -> list[ActionInstance]:
        """Every move of an episode that starts in `state`, feasible or not."""

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
        holds: done needs the goal, a move the env's own rule. Another env's
        done action is foreign and raises ContractError."""
        if action.is_done:
            if action.text != self.done_text:
                raise ContractError(f"{action.text!r} is not {self.env_id}'s done action")
            return None if self.is_goal(state, goal) else "goal not reached"
        return self._move_violation(state, action)

    def precondition_holds(
        self, state: SymbolicState, goal: GoalSpec, action: ActionInstance
    ) -> bool:
        return self.violation(state, goal, action) is None

    def relevant_moves(
        self, goal: GoalSpec, moves: list[ActionInstance]
    ) -> list[ActionInstance]:
        """The moves a shortest plan to `goal` may take, in the given order.

        The default keeps them all; an env overrides it only with a rule under
        which breadth_first_plan returns the same plan from every state.
        """
        return moves

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

    def state_to_json(self, state: SymbolicState) -> dict:
        """The state's fields by name; JSON stores their tuples as lists."""
        return {f.name: getattr(state, f.name) for f in fields(state)}

    def state_from_json(self, payload: dict) -> SymbolicState:
        """The state a `state_to_json` payload holds, its lists as tuples;
        one the env's state rule refuses raises ContractError."""
        state = self.state_type(
            **{f.name: _tuples(payload[f.name]) for f in fields(self.state_type)}
        )
        problem = self._state_violation(state)
        if problem is not None:
            raise ContractError(f"impossible {self.env_id} state: {problem}")
        return state

    def _state_violation(self, state: SymbolicState) -> str | None:
        """What makes a stored `state` impossible, or None. Checked where
        split rows are read, not on the successors the env builds itself;
        the default accepts every state."""
        return None

    def admissible_actions(self, spec: EpisodeSpec) -> list[ActionInstance]:
        """Episode-level action vocabulary (feasible and otherwise), sorted:
        the env's moves and its done action."""
        key = (spec.goal, spec.init_state)
        cached = self._vocab_cache.get(key)
        if cached is None:
            done = ActionInstance.from_text(self.done_text, op=("done",), is_done=True)
            cached = sorted(
                [*self._moves(spec.init_state), done], key=lambda a: a.text
            )
            self._vocab_cache[key] = cached
        return list(cached)

    def action_from_text(self, spec: EpisodeSpec, text: str) -> ActionInstance:
        for action in self.admissible_actions(spec):
            if action.text == text:
                return action
        raise ContractError(f"{text!r} is not in the episode vocabulary")

    def _rng(self, seed: int, split: str) -> random.Random:
        """The draw stream of episode (`seed`, `split`)."""
        if seed < 0:
            raise ContractError("seed must be >= 0")
        if split not in SPLITS:
            raise ContractError(f"unknown split {split!r}")
        return random.Random(f"{self.env_id}|{split}|{seed}")

    def _episode(
        self, state: SymbolicState, goal: GoalSpec, split: str, seed: int
    ) -> EpisodeSpec:
        """The episode drawn as (`seed`, `split`) that starts in `state`."""
        return EpisodeSpec(
            env_id=self.env_id, goal=goal, init_obs=self.render_observation(state),
            init_state=state, split=split, seed=seed,
        )


def _tuples(value):
    """`value` with every list in it, nested ones too, turned into a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def breadth_first_plan(
    env: Environment, spec: EpisodeSpec, start_state: SymbolicState | None = None
) -> list[ActionInstance] | None:
    """Minimal action sequence (including the done action) to the goal.

    Expansion follows lexicographic action order, so the result is
    deterministic. Only the env's relevant moves are tried, each expanded
    state filtering them by precondition. Returns None when no plan of
    length <= max_steps exists.
    """
    vocab = env.admissible_actions(spec)
    done = next(a for a in vocab if a.is_done)
    goal = spec.goal
    moves = env.relevant_moves(goal, [a for a in vocab if not a.is_done])
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
        for action in [a for a in moves if env.precondition_holds(current, goal, a)]:
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
