"""Put-blocks-in-bowls task: place every goal-colored block in a goal-colored bowl."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property

from ..core import ActionInstance, ContractError, GoalSpec, InfeasibleActionError
from .base import DEFAULT_MAX_STEPS, Environment, EpisodeSpec, SymbolicState

COLORS = ("yellow", "gray", "blue", "red", "green", "orange")
HELD_OUT_COLORS = ("purple", "brown")
DONE_TEXT = "done placing blocks"


@dataclass(frozen=True)
class BlocksState(SymbolicState):
    """Entity listing (render order) plus block -> bowl placements."""

    listing: tuple[str, ...]
    placements: tuple[tuple[str, str], ...]

    env_id = "blocks"

    @cached_property
    def blocks(self) -> tuple[str, ...]:
        return tuple(e for e in self.listing if " block " in f" {e} ")

    @cached_property
    def bowls(self) -> tuple[str, ...]:
        return tuple(e for e in self.listing if " bowl " in f" {e} ")


class BlocksEnv(Environment):
    env_id = "blocks"

    def sample_episode(self, seed: int, split: str) -> EpisodeSpec:
        self.check_seed_split(seed, split)
        rng = random.Random(f"blocks|{split}|{seed}")
        if split == "test-generalize":
            goal_block_color, goal_bowl_color = rng.sample(HELD_OUT_COLORS, 2)
        else:
            goal_block_color, goal_bowl_color = rng.sample(COLORS, 2)
        n_blocks = rng.randint(3, 5)
        n_bowls = rng.randint(3, 5)
        n_goal_blocks = rng.randint(1, n_blocks)
        n_goal_bowls = rng.randint(1, n_bowls)
        other = [c for c in COLORS if c not in (goal_block_color, goal_bowl_color)]
        block_colors = [goal_block_color] * n_goal_blocks + [
            rng.choice(other) for _ in range(n_blocks - n_goal_blocks)
        ]
        bowl_colors = [goal_bowl_color] * n_goal_bowls + [
            rng.choice(other) for _ in range(n_bowls - n_goal_bowls)
        ]
        listing = self._numbered(bowl_colors, "bowl") + self._numbered(
            block_colors, "block"
        )
        goal_entities = [
            e
            for e in listing
            if e.startswith(f"{goal_bowl_color} bowl")
            or e.startswith(f"{goal_block_color} block")
        ]
        distractors = [e for e in listing if e not in goal_entities]
        rng.shuffle(distractors)
        state = BlocksState(
            listing=tuple(goal_entities + distractors), placements=()
        )
        goal = GoalSpec(
            text=f"put the {goal_block_color} blocks in {goal_bowl_color} bowls",
            predicate=("blocks_in_bowls", goal_block_color, goal_bowl_color),
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

    @staticmethod
    def _numbered(colors: list[str], kind: str) -> list[str]:
        counts: dict[str, int] = {}
        names = []
        for color in colors:
            counts[color] = counts.get(color, 0) + 1
            names.append(f"{color} {kind} {counts[color]}")
        return names

    def _vocabulary(self, spec: EpisodeSpec) -> list[ActionInstance]:
        state: BlocksState = spec.init_state
        actions = [
            ActionInstance.from_text(
                f"put {block} in {bowl}", op=("put", block, bowl)
            )
            for block in state.blocks
            for bowl in state.bowls
        ]
        actions.append(ActionInstance.from_text(DONE_TEXT, op=("done",), is_done=True))
        return actions

    def _put_check(self, state: BlocksState, action: ActionInstance) -> str | None:
        block = action.op[1]
        if any(b == block for b, _ in state.placements):
            return f"{block} is already in a bowl"
        return None

    def precondition_holds(self, state, goal, action) -> bool:
        if action.is_done:
            return self.is_goal(state, goal)
        if (
            action.op[0] != "put"
            or action.op[1] not in state.blocks
            or action.op[2] not in state.bowls
        ):
            raise ContractError(f"foreign action {action.text!r}")
        return self._put_check(state, action) is None

    def step(self, state, goal, action) -> BlocksState:
        if action.is_done:
            if not self.is_goal(state, goal):
                raise InfeasibleActionError(action.text, "goal not reached")
            return state
        violated = self._put_check(state, action)
        if violated is not None:
            raise InfeasibleActionError(action.text, violated)
        placements = tuple(
            sorted(state.placements + ((action.op[1], action.op[2]),))
        )
        return BlocksState(listing=state.listing, placements=placements)

    def is_goal(self, state, goal) -> bool:
        _, block_color, bowl_color = goal.predicate
        placed = dict(state.placements)
        return all(
            block in placed and placed[block].startswith(f"{bowl_color} bowl")
            for block in state.blocks
            if block.startswith(f"{block_color} block")
        )

    def render_observation(self, state: BlocksState) -> str:
        sentences = ["there is a " + ", ".join(state.listing) + "."]
        for block, bowl in state.placements:
            sentences.append(f"the {block} is in the {bowl}.")
        return " ".join(sentences)

    def parse_observation(self, text: str) -> BlocksState:
        m = re.match(r"there is a ([^.]+)\.", text.strip())
        if m is None:
            raise ContractError("missing entity listing")
        listing = tuple(part.strip() for part in m.group(1).split(","))
        placements = tuple(
            sorted(re.findall(r"the ([\w ]+?) is in the ([\w ]+?)\.", text))
        )
        return BlocksState(listing=listing, placements=placements)

    def state_to_json(self, state: BlocksState) -> dict:
        return {
            "listing": list(state.listing),
            "placements": [list(p) for p in state.placements],
        }

    def state_from_json(self, payload: dict) -> BlocksState:
        return BlocksState(
            listing=tuple(payload["listing"]),
            placements=tuple(tuple(p) for p in payload["placements"]),
        )
