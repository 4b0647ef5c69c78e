"""Tower of Hanoi sequence task: move one named disk onto a target rod."""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core import ActionInstance, ContractError, GoalSpec
from .base import DEFAULT_MAX_STEPS, Environment, EpisodeSpec, SymbolicState

DISK_COLORS = ("blue", "gray", "green", "red")  # smallest first
N_RODS = 3
ROD_NAMES = tuple(str(r + 1) for r in range(N_RODS))
DONE_TEXT = "done moving disks"


@dataclass(frozen=True)
class HanoiState(SymbolicState):
    """Disks per rod, bottom to top; disk 0 is the smallest."""

    n_disks: int
    rods: tuple[tuple[int, ...], ...]

    env_id = "hanoi"


def _rod_of(state: HanoiState, disk: int) -> int:
    return next(r for r in range(N_RODS) if disk in state.rods[r])


class HanoiEnv(Environment):
    env_id = "hanoi"

    def sample_episode(self, seed: int, split: str) -> EpisodeSpec:
        self.check_seed_split(seed, split)
        rng = random.Random(f"hanoi|{split}|{seed}")
        n_disks = 4 if split == "test-generalize" else 3
        rod_of = [rng.randrange(N_RODS) for _ in range(n_disks)]
        rods = tuple(
            tuple(sorted((d for d in range(n_disks) if rod_of[d] == r), reverse=True))
            for r in range(N_RODS)
        )
        state = HanoiState(n_disks=n_disks, rods=rods)
        while True:
            disk = rng.randrange(n_disks)
            rod = rng.randrange(N_RODS)
            if rod_of[disk] != rod:
                break
        goal = GoalSpec(
            text=f"move the {DISK_COLORS[disk]} disk in rod {rod + 1}",
            predicate=("disk_on_rod", DISK_COLORS[disk], str(rod + 1)),
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
        n_disks = spec.init_state.n_disks
        actions = [
            ActionInstance.from_text(
                f"move the {DISK_COLORS[d]} disk in rod {r + 1}",
                op=("move", DISK_COLORS[d], str(r + 1)),
            )
            for d in range(n_disks)
            for r in range(N_RODS)
        ]
        actions.append(ActionInstance.from_text(DONE_TEXT, op=("done",), is_done=True))
        return actions

    def _move_violation(self, state: HanoiState, action: ActionInstance) -> str | None:
        op = action.op
        if (
            op[0] != "move"
            or op[1] not in DISK_COLORS[: state.n_disks]
            or op[2] not in ROD_NAMES
        ):
            raise ContractError(f"foreign action {action.text!r}")
        color, rod_name = op[1], op[2]
        disk = DISK_COLORS.index(color)
        target = int(rod_name) - 1
        source = _rod_of(state, disk)
        if state.rods[source][-1] != disk:
            return f"{color} disk is not the topmost disk on rod {source + 1}"
        if source == target:
            return f"{color} disk is already on rod {rod_name}"
        dest = state.rods[target]
        if dest and dest[-1] < disk:
            return f"top disk of rod {rod_name} is smaller than the {color} disk"
        return None

    def _apply(self, state: HanoiState, action: ActionInstance) -> HanoiState:
        disk = DISK_COLORS.index(action.op[1])
        target = int(action.op[2]) - 1
        source = _rod_of(state, disk)
        rods = list(state.rods)
        rods[source] = rods[source][:-1]
        rods[target] = rods[target] + (disk,)
        return HanoiState(n_disks=state.n_disks, rods=tuple(rods))

    def is_goal(self, state, goal) -> bool:
        _, color, rod_name = goal.predicate
        return DISK_COLORS.index(color) in state.rods[int(rod_name) - 1]

    def render_observation(self, state: HanoiState) -> str:
        sentences = []
        for r, stack in enumerate(state.rods):
            for height in range(len(stack) - 1, 0, -1):
                upper = DISK_COLORS[stack[height]]
                lower = DISK_COLORS[stack[height - 1]]
                sentences.append(f"{upper} disk on top of {lower} disk.")
            if stack:
                sentences.append(f"{DISK_COLORS[stack[0]]} disk in rod {r + 1}.")
        rod_list = ", ".join(f"rod {r + 1}" for r in range(N_RODS))
        sentences.append(f"the disks can be moved in {rod_list}.")
        return " ".join(sentences)

    def state_to_json(self, state: HanoiState) -> dict:
        return {"n_disks": state.n_disks, "rods": [list(r) for r in state.rods]}

    def state_from_json(self, payload: dict) -> HanoiState:
        return HanoiState(
            n_disks=payload["n_disks"],
            rods=tuple(tuple(r) for r in payload["rods"]),
        )
