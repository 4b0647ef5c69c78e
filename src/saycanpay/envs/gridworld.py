"""Room-level pickup task: reach and pick up a goal object behind locked doors.

Rooms form a chain; adjacent rooms are joined by a colored door. Locked doors
are toggled open with a matching-color key, and the agent's single hand forces
"drop key in void" before carrying anything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..core import ActionInstance, ContractError, GoalSpec
from .base import Environment, EpisodeSpec, SymbolicState, breadth_first_plan

COLORS = ("yellow", "purple", "red", "green", "blue", "grey")
GOAL_KINDS = ("ball", "box")
CARRIED = -1
VOID = -2  # a dropped object's location: no room, so never rendered or reached


@dataclass(frozen=True)
class GridState(SymbolicState):
    """Chain of rooms with doors, objects (room index, carried or void), and
    the agent. A dropped object stays at VOID, so every state holds the
    episode's object set and a pickup of any other object is foreign."""

    n_rooms: int
    doors: tuple[tuple[str, bool], ...]  # (color, locked), door i joins rooms i, i+1
    objects: tuple[tuple[str, str, int], ...]  # (color, kind, location)
    agent_room: int

    @property
    def carried(self) -> tuple[str, str] | None:
        for color, kind, loc in self.objects:
            if loc == CARRIED:
                return (color, kind)
        return None

    def reachable_rooms(self) -> set[int]:
        """The run of rooms around the agent's that locked doors bound."""
        low = high = self.agent_room
        while low > 0 and not self.doors[low - 1][1]:
            low -= 1
        while high < self.n_rooms - 1 and not self.doors[high][1]:
            high += 1
        return set(range(low, high + 1))

    def door_to_open(self, color: str) -> int | None:
        """The door a toggle with the `color` key opens: the first locked
        `color` door next to a reachable room, or None."""
        reachable = self.reachable_rooms()
        return next(
            (i for i, (c, locked) in enumerate(self.doors)
             if c == color and locked and (i in reachable or i + 1 in reachable)),
            None,
        )


class GridworldEnv(Environment):
    env_id = "gridworld"
    done_text = "done picking up"
    state_type = GridState

    def sample_episode(self, seed: int, split: str) -> EpisodeSpec:
        rng = self._rng(seed, split)
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
        return self._episode(state, goal, split, seed)

    def _state_violation(self, state: GridState) -> str | None:
        if state.objects != tuple(sorted(state.objects)):
            return f"objects {state.objects} are not in sorted order"
        rooms = range(state.n_rooms)
        if len(state.doors) != state.n_rooms - 1 or state.agent_room not in rooms:
            return (f"agent in room {state.agent_room} of {state.n_rooms} rooms "
                    f"joined by {len(state.doors)} doors")
        places = [loc for _, _, loc in state.objects]
        if places.count(CARRIED) > 1 or any(
            loc not in rooms and loc not in (CARRIED, VOID) for loc in places
        ):
            return f"objects {state.objects} are not in a room, the hand or the void"
        return None

    def _moves(self, state: GridState) -> list[ActionInstance]:
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
        return actions

    def _move_violation(self, state: GridState, action: ActionInstance) -> str | None:
        op = action.op[0]
        if op == "pickup":
            color, kind = action.op[1], action.op[2]
            loc = next(
                (loc for c, k, loc in state.objects if (c, k) == (color, kind)), None
            )
            if loc is None:
                raise ContractError(f"foreign action {action.text!r}")
            if state.carried is not None:
                return "the agent's hand is not empty"
            if loc == VOID:
                return f"there is no {color} {kind} left"
            if loc not in state.reachable_rooms():
                return f"{color} {kind} is not in a reachable room"
            return None
        if op == "toggle":
            color = action.op[1]
            if all(c != color for c, _ in state.doors):
                raise ContractError(f"foreign action {action.text!r}")
            if state.carried != (color, "key"):
                return f"the agent is not holding the {color} key"
            if state.door_to_open(color) is None:
                return f"no locked {color} door is adjacent to a reachable room"
            return None
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
            return replace(state, objects=tuple(sorted(objects)), agent_room=room)
        if op == "toggle":
            doors = list(state.doors)
            i = state.door_to_open(action.op[1])
            doors[i] = (doors[i][0], False)
            return replace(state, doors=tuple(doors))
        # drop: the held object goes to the void for good
        objects = tuple(
            sorted((c, k, VOID if loc == CARRIED else loc)
                   for c, k, loc in state.objects)
        )
        return replace(state, objects=objects)

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
