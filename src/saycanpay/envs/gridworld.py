"""Room-level pickup task: reach and pick up a goal object behind locked doors.

Rooms form a chain; adjacent rooms are joined by a colored door. Locked doors
are toggled open with a matching-color key, and the agent's single hand forces
"drop key in void" before carrying anything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core import ActionInstance, ContractError, GoalSpec
from .base import (
    DEFAULT_MAX_STEPS,
    Environment,
    EpisodeSpec,
    SymbolicState,
    breadth_first_plan,
)

COLORS = ("yellow", "purple", "red", "green", "blue", "grey")
GOAL_KINDS = ("ball", "box")
CARRIED = -1
DONE_TEXT = "done picking up"


@dataclass(frozen=True)
class GridState(SymbolicState):
    """Chain of rooms with doors, objects (room index or carried), and the agent."""

    n_rooms: int
    doors: tuple[tuple[str, bool], ...]  # (color, locked), door i joins rooms i, i+1
    objects: tuple[tuple[str, str, int], ...]  # (color, kind, location)
    agent_room: int

    env_id = "gridworld"

    def __post_init__(self):
        if self.objects != tuple(sorted(self.objects)):
            raise ContractError("objects must be kept in sorted order")

    @property
    def carried(self) -> tuple[str, str] | None:
        for color, kind, loc in self.objects:
            if loc == CARRIED:
                return (color, kind)
        return None

    def reachable_rooms(self) -> set[int]:
        rooms = {self.agent_room}
        changed = True
        while changed:
            changed = False
            for i, (_, locked) in enumerate(self.doors):
                if locked:
                    continue
                if i in rooms and i + 1 not in rooms:
                    rooms.add(i + 1)
                    changed = True
                if i + 1 in rooms and i not in rooms:
                    rooms.add(i)
                    changed = True
        return rooms


class GridworldEnv(Environment):
    env_id = "gridworld"

    def sample_episode(self, seed: int, split: str) -> EpisodeSpec:
        self.check_seed_split(seed, split)
        rng = random.Random(f"gridworld|{split}|{seed}")
        while True:
            spec = self._draw(rng, split, seed)
            if breadth_first_plan(self, spec) is not None:
                return spec

    def _draw(self, rng: random.Random, split: str, seed: int) -> EpisodeSpec:
        generalize = split == "test-generalize"
        n_rooms = 4 if generalize else rng.randint(2, 3)
        door_colors = rng.sample(COLORS, n_rooms - 1)
        n_locked = rng.randint(0, min(2, n_rooms - 1))
        locked_idx = set(rng.sample(range(n_rooms - 1), n_locked))
        doors = tuple(
            (door_colors[i], i in locked_idx) for i in range(n_rooms - 1)
        )
        agent_room = rng.randrange(n_rooms)
        used: set[tuple[str, str]] = set()
        objects: list[tuple[str, str, int]] = []

        goal_color = rng.choice(COLORS)
        goal_kind = rng.choice(GOAL_KINDS)
        used.add((goal_color, goal_kind))
        objects.append((goal_color, goal_kind, rng.randrange(n_rooms)))
        for i in locked_idx:
            key = (door_colors[i], "key")
            if key not in used:
                used.add(key)
                objects.append((key[0], "key", rng.randrange(n_rooms)))
        n_distractors = rng.randint(2, 5) if generalize else rng.randint(0, 3)
        for _ in range(n_distractors):
            color = rng.choice(COLORS)
            kind = rng.choice(("key", "ball", "box"))
            if (color, kind) in used:
                continue
            used.add((color, kind))
            objects.append((color, kind, rng.randrange(n_rooms)))

        state = GridState(
            n_rooms=n_rooms,
            doors=doors,
            objects=tuple(sorted(objects)),
            agent_room=agent_room,
        )
        goal = GoalSpec(
            text=f"pick up the {goal_color} {goal_kind}",
            predicate=("holding", goal_color, goal_kind),
        )
        return EpisodeSpec(
            env_id=self.env_id,
            goal=goal,
            init_obs=self.render_observation(state),
            init_state=state,
            split=split,
            seed=seed,
            max_steps=DEFAULT_MAX_STEPS,
        )

    def _vocabulary(self, spec: EpisodeSpec) -> list[ActionInstance]:
        state: GridState = spec.init_state
        actions = [
            ActionInstance.from_text(
                f"pick up {color} {kind}", op=("pickup", color, kind)
            )
            for color, kind, _ in state.objects
        ]
        for color in dict.fromkeys(color for color, _ in state.doors):
            actions.append(
                ActionInstance.from_text(f"toggle {color} door", op=("toggle", color))
            )
        actions.append(ActionInstance.from_text("drop key in void", op=("drop",)))
        actions.append(ActionInstance.from_text(DONE_TEXT, op=("done",), is_done=True))
        return actions

    def _move_violation(self, state: GridState, action: ActionInstance) -> str | None:
        op = action.op[0]
        if op == "pickup":
            color, kind = action.op[1], action.op[2]
            if state.carried is not None:
                return "the agent's hand is not empty"
            reachable = state.reachable_rooms()
            for c, k, loc in state.objects:
                if (c, k) == (color, kind):
                    if loc in reachable:
                        return None
                    return f"{color} {kind} is not in a reachable room"
            # vocabulary objects can be destroyed by an earlier drop
            return f"there is no {color} {kind} left"
        if op == "toggle":
            color = action.op[1]
            if state.carried != (color, "key"):
                return f"the agent is not holding the {color} key"
            reachable = state.reachable_rooms()
            for i, (c, locked) in enumerate(state.doors):
                if c == color and locked and (i in reachable or i + 1 in reachable):
                    return None
            return f"no locked {color} door is adjacent to a reachable room"
        if op == "drop":
            if state.carried is None:
                return "the agent is not holding anything"
            return None
        raise ContractError(f"foreign action {action.text!r}")

    def _apply(self, state: GridState, action: ActionInstance) -> GridState:
        op = action.op[0]
        if op == "pickup":
            color, kind = action.op[1], action.op[2]
            objects = []
            room = state.agent_room
            for c, k, loc in state.objects:
                if (c, k) == (color, kind):
                    room = loc
                    objects.append((c, k, CARRIED))
                else:
                    objects.append((c, k, loc))
            return GridState(
                n_rooms=state.n_rooms,
                doors=state.doors,
                objects=tuple(sorted(objects)),
                agent_room=room,
            )
        if op == "toggle":
            color = action.op[1]
            reachable = state.reachable_rooms()
            doors = list(state.doors)
            for i, (c, locked) in enumerate(state.doors):
                if c == color and locked and (i in reachable or i + 1 in reachable):
                    doors[i] = (c, False)
                    break
            return GridState(
                n_rooms=state.n_rooms,
                doors=tuple(doors),
                objects=state.objects,
                agent_room=state.agent_room,
            )
        # drop: the held object is discarded permanently
        objects = tuple(
            sorted((c, k, loc) for c, k, loc in state.objects if loc != CARRIED)
        )
        return GridState(
            n_rooms=state.n_rooms,
            doors=state.doors,
            objects=objects,
            agent_room=state.agent_room,
        )

    def is_goal(self, state, goal) -> bool:
        _, color, kind = goal.predicate
        return state.carried == (color, kind)

    def render_observation(self, state: GridState) -> str:
        sentences = []
        for room in range(state.n_rooms):
            items = [
                f"{c} {k}" for c, k, loc in state.objects if loc == room
            ]
            if room == state.agent_room:
                items.append("agent")
            contents = ", ".join(items) if items else "nothing"
            sentences.append(f"room {room + 1} has {contents}.")
        for i, (color, locked) in enumerate(state.doors):
            status = "locked" if locked else "open"
            sentences.append(
                f"the {color} door connecting room {i + 1} and room {i + 2} is {status}."
            )
        carried = state.carried
        if carried is not None:
            sentences.append(f"the agent carries the {carried[0]} {carried[1]}.")
        return " ".join(sentences)

    def state_to_json(self, state: GridState) -> dict:
        return {
            "n_rooms": state.n_rooms,
            "doors": [list(d) for d in state.doors],
            "objects": [list(o) for o in state.objects],
            "agent_room": state.agent_room,
        }

    def state_from_json(self, payload: dict) -> GridState:
        return GridState(
            n_rooms=payload["n_rooms"],
            doors=tuple((c, bool(x)) for c, x in payload["doors"]),
            objects=tuple(sorted((c, k, int(loc)) for c, k, loc in payload["objects"])),
            agent_room=payload["agent_room"],
        )
