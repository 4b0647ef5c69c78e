"""Tower of Hanoi sequence task: move one named disk onto a target rod."""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ActionInstance, ContractError, GoalSpec
from .base import Environment, EpisodeSpec, SymbolicState

DISK_COLORS = ("blue", "gray", "green", "red")  # smallest first
N_RODS = 3
ROD_NAMES = tuple(str(r + 1) for r in range(N_RODS))


@dataclass(frozen=True)
class HanoiState(SymbolicState):
    """Disks per rod, bottom to top; disk 0 is the smallest."""

    n_disks: int
    rods: tuple[tuple[int, ...], ...]


def _rod_of(state: HanoiState, disk: int) -> int:
    return next(r for r in range(N_RODS) if disk in state.rods[r])


class HanoiEnv(Environment):
    env_id = "hanoi"
    done_text = "done moving disks"
    state_type = HanoiState

    def sample_episode(self, seed: int, split: str) -> EpisodeSpec:
        rng = self._rng(seed, split)
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
        return self._episode(state, goal, split, seed)

    def _state_violation(self, state: HanoiState) -> str | None:
        n = state.n_disks
        if not 1 <= n <= len(DISK_COLORS) or len(state.rods) != N_RODS:
            return f"{n} disks on {len(state.rods)} rods"
        if sorted(d for rod in state.rods for d in rod) != list(range(n)):
            return f"rods {state.rods} do not hold each disk 0..{n - 1} once"
        if any(list(rod) != sorted(rod, reverse=True) for rod in state.rods):
            return f"a rod of {state.rods} is not descending from bottom to top"
        return None

    def _moves(self, state: HanoiState) -> list[ActionInstance]:
        return [
            ActionInstance.from_text(
                f"move the {DISK_COLORS[d]} disk in rod {r + 1}",
                op=("move", DISK_COLORS[d], str(r + 1)),
            )
            for d in range(state.n_disks)
            for r in range(N_RODS)
        ]

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
