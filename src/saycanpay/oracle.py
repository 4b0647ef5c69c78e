"""Optimal BFS planner and the oracle feasibility/payoff scorers built on it."""

from __future__ import annotations

from dataclasses import dataclass

from .core import ActionInstance, History, InfeasibleActionError, UnsolvableError
from .envs import EpisodeSpec, breadth_first_plan, get_env
from .envs.base import SymbolicState

DELTA = 0.6


@dataclass(frozen=True)
class Trajectory:
    """Expert episode: the minimal plan ending in the done action."""

    episode: EpisodeSpec
    actions: tuple[ActionInstance, ...]
    reward: int = 1


def bfs_plan(spec: EpisodeSpec) -> Trajectory:
    """Minimal-length expert trajectory in `spec`'s env, by lexicographic BFS."""
    plan = breadth_first_plan(get_env(spec.env_id), spec)
    if plan is None:
        raise UnsolvableError(f"{spec.episode_id}: no plan within {spec.max_steps} steps")
    return Trajectory(episode=spec, actions=tuple(plan))


class ReplayCache:
    """The episode's one cache, read by every backend of every cell that
    plans it: the spec, its env and its one vocabulary list; the state each
    history reaches and the optimal plan from each state (the oracle); and
    `memo`, the trained scores (Say distributions under (scorer, history),
    `featurize` rows under (profile, history, candidates) and Can/Pay scores
    under (model, history, candidates)).

    A history that contains an infeasible action maps to None; everything
    downstream of it is treated as broken.
    """

    def __init__(self, spec: EpisodeSpec):
        self.env = get_env(spec.env_id)
        self.spec = spec
        self.vocab = self.env.admissible_actions(spec)
        self.memo: dict = {}
        self._states: dict[tuple[str, ...], SymbolicState | None] = {
            (): spec.init_state
        }
        self._plans: dict[SymbolicState, tuple[ActionInstance, ...] | None] = {}

    def state_for(self, history: History) -> SymbolicState | None:
        return self._state(tuple([a.text for a in history.actions]), history.actions)

    def _state(self, key: tuple, actions: tuple) -> SymbolicState | None:
        """The state the action texts `key` reach, replayed from the longest
        stored prefix; None from the first infeasible action on."""
        if key not in self._states:
            state = self._state(key[:-1], actions[:-1])
            if state is not None:
                try:
                    state = self.env.step(state, self.spec.goal, actions[-1])
                except InfeasibleActionError:
                    state = None
            self._states[key] = state
        return self._states[key]

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
    """Exact feasibility: 1.0 iff the history and then the action replay."""

    def __init__(self, episode: ReplayCache):
        self.episode = episode

    def __call__(self, history: History, actions: list[ActionInstance]) -> list[float]:
        state_for = self.episode.state_for
        return [0.0 if state_for(history.extended(a)) is None else 1.0 for a in actions]


class OraclePay:
    """Discounted distance-to-goal payoff: delta ** (remaining actions after a)."""

    def __init__(self, episode: ReplayCache, delta: float = DELTA):
        self.episode = episode
        self.delta = delta

    def __call__(self, history: History, actions: list[ActionInstance]) -> list[float]:
        return [self._payoff(history.extended(a)) for a in actions]

    def _payoff(self, extended: History) -> float:
        state = self.episode.state_for(extended)
        if state is None:
            return 0.0
        if extended.actions[-1].is_done:
            return 1.0
        plan = self.episode.plan_from(state)
        return 0.0 if plan is None else self.delta ** len(plan)
