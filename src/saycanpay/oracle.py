"""Optimal BFS planner and the oracle feasibility/payoff scorers built on it."""

from __future__ import annotations

from dataclasses import dataclass

from .core import ActionInstance, History, InfeasibleActionError, UnsolvableError
from .envs import Environment, EpisodeSpec, breadth_first_plan
from .envs.base import SymbolicState

DELTA = 0.6


@dataclass(frozen=True)
class Trajectory:
    """Expert episode: the minimal plan ending in the done action."""

    episode: EpisodeSpec
    actions: tuple[ActionInstance, ...]
    reward: int = 1


def bfs_plan(env: Environment, spec: EpisodeSpec) -> Trajectory:
    """Minimal-length expert trajectory, deterministic via lexicographic expansion."""
    plan = breadth_first_plan(env, spec)
    if plan is None:
        raise UnsolvableError(f"{spec.episode_id}: no plan within {spec.max_steps} steps")
    return Trajectory(episode=spec, actions=tuple(plan))


class ReplayCache:
    """The per-episode oracle: the state each history reaches, and the
    optimal plan from each state.

    A history that contains an infeasible action maps to None; everything
    downstream of it is treated as broken.
    """

    def __init__(self, env: Environment, spec: EpisodeSpec):
        self.env = env
        self.spec = spec
        self._states: dict[tuple[str, ...], SymbolicState | None] = {
            (): spec.init_state
        }
        self._plans: dict[SymbolicState, tuple[ActionInstance, ...] | None] = {}

    def state_for(self, history: History) -> SymbolicState | None:
        key = tuple(a.text for a in history.actions)
        if key in self._states:
            return self._states[key]
        state = self._states[()]
        for i, action in enumerate(history.actions):
            prefix = key[: i + 1]
            if prefix not in self._states:
                try:
                    self._states[prefix] = self.env.step(state, self.spec.goal, action)
                except InfeasibleActionError:
                    self._states[prefix] = None
            state = self._states[prefix]
            if state is None:
                return None
        return state

    def plan_from(self, state: SymbolicState) -> tuple[ActionInstance, ...] | None:
        """breadth_first_plan from `state` (done action included), memoized.

        A suffix of the shortest, lexicographically first plan is the
        shortest, lexicographically first plan from the state it starts in,
        and it fits max_steps, so every suffix of a found plan is stored.
        A search that finds no plan stores None for `state` only.
        """
        if state in self._plans:
            return self._plans[state]
        found = breadth_first_plan(self.env, self.spec, start_state=state)
        if found is None:
            self._plans[state] = None
            return None
        plan = tuple(found)
        for i, action in enumerate(plan):
            self._plans[state] = plan[i:]
            if not action.is_done:
                state = self.env.step(state, self.spec.goal, action)
        return plan


class OracleCan:
    """Exact feasibility: 1.0 iff the action's precondition holds."""

    def __init__(self, oracle: ReplayCache):
        self.oracle = oracle

    def __call__(self, history: History, actions: list[ActionInstance]) -> list[float]:
        state = self.oracle.state_for(history)
        if state is None:
            return [0.0] * len(actions)
        env, goal = self.oracle.env, self.oracle.spec.goal
        return [
            1.0 if env.precondition_holds(state, goal, a) else 0.0 for a in actions
        ]


class OraclePay:
    """Discounted distance-to-goal payoff: delta ** (remaining actions after a)."""

    def __init__(self, oracle: ReplayCache, delta: float = DELTA):
        self.oracle = oracle
        self.delta = delta

    def __call__(self, history: History, actions: list[ActionInstance]) -> list[float]:
        state = self.oracle.state_for(history)
        return [0.0 if state is None else self._payoff(state, a) for a in actions]

    def _payoff(self, state: SymbolicState, action: ActionInstance) -> float:
        try:
            nxt = self.oracle.env.step(state, self.oracle.spec.goal, action)
        except InfeasibleActionError:
            return 0.0
        if action.is_done:
            return 1.0
        plan = self.oracle.plan_from(nxt)
        return 0.0 if plan is None else self.delta ** len(plan)
